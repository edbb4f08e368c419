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
entry is read as weight 0 with the maximally mixed placeholder block. Both
schemas are validated at load (Hermitian, PSD, normalized), and so are their
whole-number fields (``dims``, ``dim``), their number fields (``weight`` and
the matrix entries), which may not be a string or a boolean, their array
fields, which may not be a string or a number, and the registers and entries,
which must be objects.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ..errors import BadShapeError
from .states import CqState, DensityOperator, creg, qreg

STATE_SCHEMA = "renyiacc/state/v1"
CQSTATE_SCHEMA = "renyiacc/cqstate/v1"


def _whole_number(x, what: str, least: int = 1) -> int:
    """A JSON field the schemas declare an integer >= ``least``: an int, or
    a float of whole value (not a bool); BadShapeError otherwise."""
    if type(x) not in (int, float) or not math.isfinite(x) or x != int(x) \
            or x < least:
        raise BadShapeError(f"{what} must be a whole number >= {least}, "
                            f"got {x!r}")
    return int(x)


def _array(x, what: str):
    """A JSON field the schemas declare an array: a list (or tuple), never
    a string read as its characters; BadShapeError otherwise."""
    if not isinstance(x, (list, tuple)):
        raise BadShapeError(f"{what} must be an array, got {x!r}")
    return x


def _object(x, what: str) -> dict:
    """A JSON field the schemas declare an object: a dict; BadShapeError
    otherwise."""
    if not isinstance(x, dict):
        raise BadShapeError(f"{what} must be an object, got {x!r}")
    return x


def _number(x, what: str) -> float:
    """A JSON field the schemas declare a number: an int or a float, never
    a string read as its value or a boolean; BadShapeError otherwise."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise BadShapeError(f"{what} must be a number, got {x!r}")
    return float(x)


def _numbers(x, what: str) -> np.ndarray:
    """A JSON array of numbers, nested to any depth, as a float array: each
    item must pass ``_number`` and the nesting must be rectangular;
    BadShapeError otherwise."""
    def walk(node):
        if isinstance(node, (list, tuple)):
            for sub in node:
                walk(sub)
        else:
            _number(node, f"{what} item")
    walk(_array(x, what))
    try:
        return np.asarray(x, dtype=float)
    except ValueError:
        raise BadShapeError(f"{what} is not a rectangular array") from None


def matrix_to_json(m) -> list:
    a = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(x.real), float(x.imag)] for x in a]


def matrix_from_json(pairs, d: int) -> np.ndarray:
    """A ``(d, d)`` matrix from row-major pairs."""
    a = _numbers(pairs, "matrix")
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
    dims = tuple(_whole_number(x, "dims entry")
                 for x in _array(doc["dims"], "dims"))
    d = int(np.prod(dims, initial=1))
    return DensityOperator(matrix_from_json(doc["matrix"], d), dims,
                           tuple(_array(doc.get("labels", ()), "labels")))


def cq_from_dict(doc: dict) -> CqState:
    regs = []
    for r in _array(doc["registers"], "registers"):
        r = _object(r, "register")
        if r["kind"] == "classical":
            regs.append(creg(r["name"], tuple(_array(r["alphabet"], "alphabet"))))
        elif r["kind"] == "quantum":
            regs.append(qreg(r["name"], _whole_number(r["dim"], "register dim")))
        else:
            raise BadShapeError(f"unknown register kind {r['kind']!r}")
    cregs = [r for r in regs if r.is_classical]
    qdim = int(np.prod([r.dim for r in regs if not r.is_classical], initial=1))
    w = np.zeros(tuple(len(r.alphabet) for r in cregs))
    conds = {}
    for e in _array(doc["entries"], "entries"):
        e = _object(e, "entry")
        if len(_array(e["outcome"], "outcome")) != len(cregs):
            raise BadShapeError(f"outcome {e['outcome']} does not name one "
                                "symbol per classical register")
        idx = tuple(cregs[i].alphabet.index(o)
                    for i, o in enumerate(e["outcome"]))
        if idx in conds:
            raise BadShapeError(f"outcome {e['outcome']} appears twice")
        w[idx] = _number(e["weight"], "weight")
        conds[idx] = matrix_from_json(e["matrix"], qdim)
    return CqState(regs, w, conds)


def load_state(path: str):
    """Load either schema as a CqState: a dense state document gives the
    all-quantum ``DensityOperator``."""
    with open(path) as fh:
        doc = json.load(fh)
    return state_from_dict(doc)


def state_from_dict(doc: dict):
    schema = doc.get("schema", "")
    if schema == STATE_SCHEMA:
        return density_from_dict(doc).validate()
    if schema == CQSTATE_SCHEMA:
        return cq_from_dict(doc).validate()
    raise BadShapeError(f"unrecognized state schema {schema!r}")

