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
schemas are validated at load (Hermitian, PSD, normalized).
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import BadShapeError
from .states import CqState, DensityOperator, creg, qreg

STATE_SCHEMA = "renyiacc/state/v1"
CQSTATE_SCHEMA = "renyiacc/cqstate/v1"


def matrix_to_json(m) -> list:
    a = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(x.real), float(x.imag)] for x in a]


def matrix_from_json(pairs, d: int) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    if a.shape != (d * d, 2):
        raise BadShapeError(f"matrix payload has shape {a.shape}, want ({d*d}, 2)")
    return (a[:, 0] + 1j * a[:, 1]).reshape(d, d)


def density_to_dict(rho: DensityOperator) -> dict:
    return {
        "schema": STATE_SCHEMA,
        "dims": list(rho.dims),
        "labels": list(rho.labels),
        "matrix": matrix_to_json(rho.matrix),
    }


def density_from_dict(doc: dict) -> DensityOperator:
    dims = tuple(int(x) for x in doc["dims"])
    d = int(np.prod(dims, initial=1))
    return DensityOperator(matrix_from_json(doc["matrix"], d), dims,
                           tuple(doc.get("labels") or ()))


def cq_from_dict(doc: dict) -> CqState:
    regs = []
    for r in doc["registers"]:
        if r["kind"] == "classical":
            regs.append(creg(r["name"], tuple(r["alphabet"])))
        elif r["kind"] == "quantum":
            regs.append(qreg(r["name"], int(r["dim"])))
        else:
            raise BadShapeError(f"unknown register kind {r['kind']!r}")
    cregs = [r for r in regs if r.is_classical]
    qdim = int(np.prod([r.dim for r in regs if not r.is_classical], initial=1))
    w = np.zeros(tuple(len(r.alphabet) for r in cregs))
    conds = {}
    for e in doc["entries"]:
        if len(e["outcome"]) != len(cregs):
            raise BadShapeError(f"outcome {e['outcome']} does not name one "
                                "symbol per classical register")
        idx = tuple(cregs[i].alphabet.index(o)
                    for i, o in enumerate(e["outcome"]))
        if idx in conds:
            raise BadShapeError(f"outcome {e['outcome']} appears twice")
        w[idx] = float(e["weight"])
        conds[idx] = matrix_from_json(e["matrix"], qdim)
    return CqState(regs, w, conds)


def load_state(path: str):
    """Load either schema; returns DensityOperator or CqState."""
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

