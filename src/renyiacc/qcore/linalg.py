"""Dense complex Hermitian linear algebra on small matrices.

Conventions used throughout the package:

- matrices are numpy complex arrays;
- eigenvalues are returned in descending order;
- negative and fractional powers of PSD matrices are taken on the numerical
  support (pseudo-inverse convention) with a relative eigenvalue cutoff of
  ``SUPPORT_CUTOFF`` against the largest eigenvalue;
- eigenvalues above ``-PSD_TOL`` are accepted as nonnegative and clipped.
"""

from __future__ import annotations

import numpy as np

from ..errors import (
    BadIndexError,
    DimMismatchError,
    NotHermitianError,
    NotPSDError,
)

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-8
SUPPORT_CUTOFF = 1e-12


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise NotHermitianError("matrix contains NaN or Inf entries")
    return a


def is_hermitian(m, tol: float = HERMITICITY_TOL) -> bool:
    """Whether ``m``, a matrix or a stack ``(..., d, d)`` of them, is finite
    and Hermitian within ``tol`` relative to its largest entry."""
    a = np.asarray(m)
    top = np.abs(a).max()
    dev = np.abs(a - a.conj().swapaxes(-1, -2)).max()
    return bool(dev <= tol * max(1.0, top) and top < np.inf)


def hermitian_eig(m, tol: float = HERMITICITY_TOL):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, v)`` with ``m = v @ diag(w) @ v.conj().T`` and unitary ``v``.
    """
    a = as_matrix(m)
    if not is_hermitian(a, tol):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    return w[::-1].copy(), v[:, ::-1].copy()


def eigvalsh_desc(m) -> np.ndarray:
    a = as_matrix(m)
    return np.linalg.eigvalsh((a + a.conj().T) / 2)[::-1].copy()


def _psd_eig(m, psd_tol: float, cutoff: float):
    """Descending eigenpairs of a PSD matrix, clipped at 0, and its support:
    the eigenvalues above ``cutoff`` relative to the largest."""
    w, v = hermitian_eig(m)
    if w.size and w[-1] < -psd_tol:
        raise NotPSDError(f"matrix has a significantly negative eigenvalue {w[-1]:.3e}")
    w = np.clip(w, 0.0, None)
    return w, v, w > cutoff * max(w[0] if w.size else 0.0, 1e-300)


def matrix_power(m, t: float, psd_tol: float = PSD_TOL,
                 cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """Spectral power of a PSD matrix with 0**t := 0 for all t.

    Eigenvalues below ``cutoff`` relative to the largest are treated as zero,
    so negative powers act as pseudo-inverses on the support.
    """
    w, v, on = _psd_eig(m, psd_tol, cutoff)
    wt = np.zeros_like(w)
    wt[on] = w[on] ** t
    return (v * wt) @ v.conj().T


def support_contained(rho, sigma, cutoff: float = SUPPORT_CUTOFF,
                      leak_tol: float = 1e-10) -> bool:
    """supp(rho) subseteq supp(sigma), judged by trace leakage outside supp(sigma)."""
    _, v, on = _psd_eig(sigma, PSD_TOL, cutoff)
    pi = v[:, on] @ v[:, on].conj().T
    r = np.asarray(rho, dtype=complex)
    tr = float(np.trace(r).real)
    return tr - float(np.trace(pi @ r @ pi).real) <= leak_tol * max(tr, 1.0)


def embed(op, dims, acting_on) -> np.ndarray:
    """Embed ``op`` acting on the subsystems ``acting_on`` of a product space.

    ``dims`` lists every subsystem dimension in Kronecker order (index 0 is the
    leftmost factor); ``op`` must act on the listed subsystems in that same
    relative order. Identity is placed everywhere else. ``op`` may be a stack
    ``(..., d_act, d_act)``; each matrix of it is embedded.
    """
    dims = tuple(int(d) for d in dims)
    acting_on = tuple(acting_on)
    k = len(dims)
    op = np.asarray(op, dtype=complex)
    d_act = 1
    for i in acting_on:
        if i < 0 or i >= k:
            raise BadIndexError(f"subsystem index {i} out of range")
        d_act *= dims[i]
    if op.ndim < 2 or op.shape[-2:] != (d_act, d_act):
        raise DimMismatchError(
            f"operator shape {op.shape} does not match subsystem dims {d_act}")
    lead = op.shape[:-2]
    b = len(lead)
    rest = [i for i in range(k) if i not in acting_on]
    d_rest = int(np.prod([dims[i] for i in rest], initial=1))
    # op x identity, as np.kron does it, on every matrix of the stack
    eye = np.eye(d_rest, dtype=complex).reshape(d_rest, 1, d_rest)
    full = op[..., :, None, :, None] * eye
    # current tensor order is acting_on + rest; permute back to 0..k-1
    cur = list(acting_on) + rest
    perm = [cur.index(i) for i in range(k)]
    cur_dims = [dims[i] for i in cur]
    t = full.reshape(lead + tuple(cur_dims) * 2)
    t = t.transpose(list(range(b)) + [b + j for j in perm]
                    + [b + k + j for j in perm])
    d = int(np.prod(dims, initial=1))
    return np.ascontiguousarray(t.reshape(lead + (d, d)))
