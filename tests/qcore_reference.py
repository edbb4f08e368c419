"""Test-only helpers for the qcore self-tests: an independent eigensolver
and a dispatcher over the seeded instance generators."""

import numpy as np

from renyiacc.errors import BadShapeError, NotHermitianError
from renyiacc.qcore import (
    is_hermitian,
    random_cq,
    random_density,
    random_distribution,
    random_isometry,
)
from renyiacc.qcore.linalg import as_matrix


def jacobi_hermitian_eig(m, tol: float = 1e-13, max_sweeps: int = 64):
    """Cyclic-Jacobi eigendecomposition via the embedded real-symmetric form.

    The complex Hermitian ``m = X + iY`` is embedded as ``[[X, -Y], [Y, X]]``
    and diagonalized by sweeps of plane rotations. Eigenpairs of the embedding
    come in duplicates; one complex representative of each pair is kept by
    Gram-Schmidt over ``top + i*bottom`` halves. Serves as an independent
    cross-check of :func:`hermitian_eig`; prefer the LAPACK path when speed
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
