"""JSON formats for states.

Dense state (schema ``renyiacc/state/v1``)::

    {"schema": "renyiacc/state/v1", "dims": [2, 2], "labels": ["A", "B"],
     "matrix": [[re, im], ...]}        # row-major, len = (prod dims)^2

Cq-state (schema ``renyiacc/cqstate/v1``) nests one dense block per classical
outcome tuple, one symbol per classical register, one entry per outcome::

    {"schema": "renyiacc/cqstate/v1",
     "registers": [{"kind": "classical", "name": "B", "alphabet": ["0", "1"]},
                   {"kind": "quantum", "name": "E", "dim": 2}],
     "entries": [{"outcome": ["0"], "weight": 0.5, "matrix": [[re, im], ...]},
                 ...]}

Files written by older versions leave out outcomes of zero weight; a missing
entry is read as weight 0 with the maximally mixed placeholder block.

Every loader first checks its document with ``validate`` against the schema
files in ``renyiacc/schemas``: a field of the wrong type, out of its bounds or
missing is a BadShapeError that names the field's path, such as ``dims[0]``
or ``pGen.00``. The loaders then check what the schemas do not state: states
must be Hermitian, PSD and normalized, and ``dims`` must fit the matrix.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

import numpy as np

from ..errors import AlphabetMismatchError, BadShapeError
from .states import CqState, DensityOperator, creg, qreg

STATE_SCHEMA = "renyiacc/state/v1"
CQSTATE_SCHEMA = "renyiacc/cqstate/v1"

_TYPES = {"object": (dict, "an object"), "array": ((list, tuple), "an array"),
          "string": (str, "a string"), "number": ((int, float), "a number"),
          "integer": ((int, float), "a whole number")}


@functools.cache
def _schemas() -> dict:
    """The packaged schema files by ``$id``, read on first use."""
    docs = [json.loads(f.read_text())
            for f in (resources.files("renyiacc") / "schemas").iterdir()]
    return {doc["$id"]: doc for doc in docs}


def validate(x, schema_id: str, *path: str):
    """``x`` checked against the schema ``schema_id``, or against the
    property at ``path`` inside it, and returned; BadShapeError naming the
    offending field otherwise. Walks only the draft-07 keywords the schema
    files use. A boolean is not a number; an integer may be a whole float."""
    schema = _schemas()[schema_id]
    for key in path:
        schema = schema["properties"][key]
    _walk(x, schema, ".".join(path))
    return x


def _span(s: dict, lo: str, hi: str) -> str:
    """The bounds keywords ``lo`` and ``hi`` of schema node ``s`` in words."""
    lo, hi = s.get(lo), s.get(hi)
    if lo is not None and hi is not None:
        return f" {lo}" if lo == hi else f" in [{lo}, {hi}]"
    return f" >= {lo}" if lo is not None else f" <= {hi}" if hi is not None else ""


def _walk(x, s, where: str) -> None:
    def fail(want):
        err = BadShapeError(f"{where or 'document'} must be {want}, got {x!r}")
        err.where = where
        raise err

    if s is False:  # from additionalProperties: false
        fail("absent")
    s = _schemas()[s["$ref"]] if "$ref" in s else s
    t = s.get("type")
    number = isinstance(x, (int, float)) and not isinstance(x, bool)
    if t and not (isinstance(x, _TYPES[t][0]) and not isinstance(x, bool)) \
            or t == "integer" and not (isinstance(x, int) or x.is_integer()) \
            or number and (x < s.get("minimum", x) or x > s.get("maximum", x)):
        fail((_TYPES[t][1] if t else "a number") + _span(s, "minimum", "maximum"))
    if "const" in s and x != s["const"]:
        fail(repr(s["const"]))
    if "enum" in s and x not in s["enum"]:
        fail(f"one of {s['enum']}")
    if isinstance(x, dict):
        for key in s.get("required", ()):
            if key not in x:
                fail(f"an object with {key!r}")
        for key, v in x.items():
            sub = s.get("properties", {}).get(key, s.get("additionalProperties", {}))
            _walk(v, sub, f"{where}.{key}" if where else key)
    if isinstance(x, (list, tuple)):
        if not s.get("minItems", 0) <= len(x) <= s.get("maxItems", len(x)):
            fail("an array of length" + _span(s, "minItems", "maxItems"))
        for i, v in enumerate(x):
            _walk(v, s.get("items", {}), f"{where}[{i}]")
    if "oneOf" in s:
        errors = []
        for branch in s["oneOf"]:
            try:
                _walk(x, branch, where)
            except BadShapeError as exc:
                errors.append(exc)
        if len(errors) == len(s["oneOf"]):  # report the deepest fault
            raise max(errors, key=lambda e: len(e.where))
        if len(errors) < len(s["oneOf"]) - 1:
            fail(f"exactly one of its {len(s['oneOf'])} forms")


def _numbers(x, what: str) -> np.ndarray:
    """A JSON array of numbers, nested to any depth, as a float array;
    BadShapeError unless the nesting is rectangular."""
    try:
        return np.asarray(x, dtype=float)
    except ValueError:
        raise BadShapeError(f"{what} is not a rectangular array") from None


def matrix_to_json(m) -> list:
    a = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(x.real), float(x.imag)] for x in a]


def matrix_from_json(pairs, d: int) -> np.ndarray:
    """A ``(d, d)`` matrix from row-major pairs."""
    a = np.asarray(pairs, dtype=float)
    if a.shape != (d * d, 2):
        raise BadShapeError(f"matrix payload has shape {a.shape}, "
                            f"want ({d * d}, 2)")
    return (a[:, 0] + 1j * a[:, 1]).reshape(d, d)


def density_to_dict(rho: DensityOperator) -> dict:
    return {
        "schema": STATE_SCHEMA,
        "dims": list(rho.dims),
        "labels": list(rho.labels),
        "matrix": matrix_to_json(rho.matrix),
    }


def density_from_dict(doc: dict) -> DensityOperator:
    validate(doc, STATE_SCHEMA)
    dims = tuple(int(x) for x in doc["dims"])
    d = int(np.prod(dims, initial=1))
    return DensityOperator(matrix_from_json(doc["matrix"], d), dims,
                           tuple(doc.get("labels", ())))


def cq_from_dict(doc: dict) -> CqState:
    validate(doc, CQSTATE_SCHEMA)
    regs = [creg(r["name"], tuple(r["alphabet"])) if r["kind"] == "classical"
            else qreg(r["name"], int(r["dim"])) for r in doc["registers"]]
    cregs = [r for r in regs if r.is_classical]
    qdim = int(np.prod([r.dim for r in regs if not r.is_classical], initial=1))
    w = np.zeros(tuple(len(r.alphabet) for r in cregs))
    conds = {}
    for e in doc["entries"]:
        if len(e["outcome"]) != len(cregs):
            raise BadShapeError(f"outcome {e['outcome']} does not name one "
                                "symbol per classical register")
        for r, o in zip(cregs, e["outcome"]):
            if o not in r.alphabet:
                raise AlphabetMismatchError(f"outcome {o!r} is not in register "
                                            f"{r.name!r}: {list(r.alphabet)}")
        idx = tuple(r.alphabet.index(o) for r, o in zip(cregs, e["outcome"]))
        if idx in conds:
            raise BadShapeError(f"outcome {e['outcome']} appears twice")
        w[idx] = e["weight"]
        conds[idx] = matrix_from_json(e["matrix"], qdim)
    return CqState(regs, w, conds)


def load_state(path: str):
    """Load either schema as a CqState: a dense state document gives the
    all-quantum ``DensityOperator``."""
    with open(path) as fh:
        doc = json.load(fh)
    return state_from_dict(doc)


def state_from_dict(doc: dict):
    """A cq-state document by its schema tag; any other document is read as
    a dense state."""
    if isinstance(doc, dict) and doc.get("schema") == CQSTATE_SCHEMA:
        return cq_from_dict(doc).validate()
    return density_from_dict(doc).validate()
