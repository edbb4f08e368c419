"""Test-only helpers: an independent eigensolver, a dispatcher over the
seeded instance generators, and the dense-state operations that only the
tests use as references (subsystem permutation, the conditional operator,
purification and the cq-state writer)."""

import numpy as np

from renyiacc.errors import BadIndexError, BadShapeError, NotHermitianError
from renyiacc.qcore import (
    DensityOperator,
    embed,
    is_hermitian,
    matrix_power,
    random_cq,
    random_density,
    random_distribution,
    random_isometry,
)
from renyiacc.qcore.linalg import as_matrix
from renyiacc.qcore.serialize import CQSTATE_SCHEMA, matrix_to_json
from renyiacc.qcore.states import _purification


def jacobi_hermitian_eig(m, tol: float = 1e-13, max_sweeps: int = 64):
    """Cyclic-Jacobi eigendecomposition via the embedded real-symmetric form.

    The complex Hermitian ``m = X + iY`` is embedded as ``[[X, -Y], [Y, X]]``
    and diagonalized by sweeps of plane rotations. Eigenpairs of the embedding
    come in duplicates; one complex representative of each pair is kept by
    Gram-Schmidt over ``top + i*bottom`` halves. Serves as an independent
    cross-check of ``qcore.linalg._eigh``; prefer the LAPACK path when speed
    matters.
    """
    a = as_matrix(m)
    if not is_hermitian(a):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    n = a.shape[0]
    big = np.block([[a.real, -a.imag], [a.imag, a.real]])
    p = np.eye(2 * n)
    scale = max(np.max(np.abs(big)), 1e-300)
    for _ in range(max_sweeps):
        off = 0.0
        for k in range(2 * n - 1):
            for l in range(k + 1, 2 * n):
                if abs(big[k, l]) <= tol * scale:
                    continue
                off = max(off, abs(big[k, l]))
                diff = big[l, l] - big[k, k]
                if abs(diff) > 1e300 * abs(big[k, l]):
                    t = big[k, l] / diff
                else:
                    phi = diff / (2.0 * big[k, l])
                    t = 1.0 / (abs(phi) + np.sqrt(phi * phi + 1.0))
                    if phi < 0.0:
                        t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rk, rl = big[k, :].copy(), big[l, :].copy()
                big[k, :] = c * rk - s * rl
                big[l, :] = s * rk + c * rl
                ck, cl = big[:, k].copy(), big[:, l].copy()
                big[:, k] = c * ck - s * cl
                big[:, l] = s * ck + c * cl
                pk, pl = p[:, k].copy(), p[:, l].copy()
                p[:, k] = c * pk - s * pl
                p[:, l] = s * pk + c * pl
        if off <= tol * scale:
            break
    w = np.diag(big).copy()
    order = np.argsort(w)[::-1]
    w = w[order]
    p = p[:, order]
    vals, vecs = [], []
    for i in range(2 * n):
        if len(vals) == n:
            break
        u = p[:n, i] + 1j * p[n:, i]
        for v in vecs:
            u = u - (v.conj() @ u) * v
        nrm = np.linalg.norm(u)
        if nrm > 1e-6:
            vecs.append(u / nrm)
            vals.append(w[i])
    if len(vals) < n:
        raise NotHermitianError("jacobi eigenvector extraction failed")
    return np.array(vals), np.column_stack(vecs)


def random_instance(kind: str, shape, seed):
    """Dispatcher over the generator family.

    kind='density': shape = dims tuple (optionally (dims, rank)).
    kind='cq': shape = (alphabet_sizes, qdims).
    kind='isometry': shape = (d_in, d_out).
    kind='distribution': shape = alphabet size.
    """
    if kind == "density":
        if (isinstance(shape, tuple) and len(shape) == 2
                and isinstance(shape[0], (tuple, list))):
            return random_density(tuple(shape[0]), seed, rank=shape[1])
        return random_density(shape, seed)
    if kind == "cq":
        sizes, qdims = shape
        return random_cq(tuple(sizes), tuple(qdims), seed)
    if kind == "isometry":
        d_in, d_out = shape
        return random_isometry(int(d_in), int(d_out), seed)
    if kind == "distribution":
        return random_distribution(int(shape), seed)
    raise BadShapeError(f"unknown instance kind {kind!r}")


def permute(rho: DensityOperator, order) -> DensityOperator:
    """Reorder subsystems; ``order`` lists current indices in new order."""
    order = tuple(order)
    k = len(rho.dims)
    if sorted(order) != list(range(k)):
        raise BadIndexError(f"order {order} is not a permutation")
    t = rho.matrix.reshape(rho.dims + rho.dims)
    t = t.transpose(list(order) + [k + i for i in order])
    return DensityOperator(t.reshape(rho.qdim, rho.qdim),
                           tuple(rho.dims[i] for i in order),
                           tuple(rho.labels[i] for i in order))


def permute_labels(rho: DensityOperator, label_order) -> DensityOperator:
    return permute(rho, rho.indices_of(label_order))


def conditional_operator(rho: DensityOperator, cond) -> np.ndarray:
    """rho_cond^{-1/2} rho rho_cond^{-1/2} with pseudo-inverse square roots.

    ``cond`` are the conditioning subsystem indices; the result acts on the
    full space with the embedded marginal inverse roots.
    """
    cond = tuple(cond)
    inv_sqrt = matrix_power(rho.partial_trace(cond).matrix, -0.5)
    big = embed(inv_sqrt, rho.dims, cond)
    return big @ rho.matrix @ big


def purify(rho: DensityOperator, copy_label: str = "ref") -> DensityOperator:
    """Rank-revealing purification onto a copy register of dim = rank."""
    x = _purification(rho.matrix)
    vec = x.reshape(-1)
    return DensityOperator(np.outer(vec, vec.conj()), rho.dims + (x.shape[1],),
                           rho.labels + (copy_label,))


def cq_to_dict(state) -> dict:
    """A cq state as a ``renyiacc/cqstate/v1`` document, one entry per
    outcome."""
    regs = []
    for r in state.regs:
        if r.is_classical:
            regs.append({"kind": "classical", "name": r.name,
                         "alphabet": [str(a) for a in r.alphabet]})
        else:
            regs.append({"kind": "quantum", "name": r.name, "dim": r.dim})
    entries = [{"outcome": [str(o) for o in out], "weight": p,
                "matrix": matrix_to_json(c)}
               for _, out, p, c in state.outcomes()]
    return {"schema": CQSTATE_SCHEMA, "registers": regs, "entries": entries}
