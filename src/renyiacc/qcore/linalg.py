"""Dense complex Hermitian linear algebra on small matrices.

Conventions used throughout the package:

- matrices are numpy complex arrays;
- every eigendecomposition runs through ``_eigh``, in numpy's ascending
  order; ``eigvalsh_desc`` returns it descending;
- negative and fractional powers of PSD matrices are taken on the numerical
  support (pseudo-inverse convention) with a relative eigenvalue cutoff of
  ``SUPPORT_CUTOFF`` against the largest eigenvalue;
- eigenvalues above ``-PSD_TOL`` are accepted as nonnegative and clipped;
- Hermiticity and finiteness are checked by the public functions, not ``_eigh``.
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


def is_hermitian(m) -> bool:
    """Whether ``m``, a matrix or a stack ``(..., d, d)`` of them, is finite
    and Hermitian within ``HERMITICITY_TOL`` relative to its largest entry."""
    a = np.asarray(m)
    top = np.abs(a).max()
    dev = np.abs(a - a.conj().swapaxes(-1, -2)).max()
    return bool(dev <= HERMITICITY_TOL * max(1.0, top) and top < np.inf)


def _hermitian(m) -> np.ndarray:
    a = as_matrix(m)
    if not is_hermitian(a):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    return a


def _eigh(x, vectors: bool = True, floor=None, symmetrize: bool = True):
    """Ascending eigenvalues (and eigenvectors) of the Hermitian part of each
    matrix of a stack, unchecked. With ``floor`` (a tolerance, or one per
    matrix) they are states: NotPSDError below ``-floor``, else clipped at 0.
    ``symmetrize=False`` skips the Hermitian part for exact products."""
    h = (x + np.swapaxes(x.conj(), -1, -2)) / 2 if symmetrize else x
    w, v = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    if floor is not None and w.size:
        if (w[..., 0] < -floor).any():
            raise NotPSDError("matrix has a significantly negative eigenvalue "
                              f"{w[..., 0].min():.3e}")
        w = np.clip(w, 0.0, None)
    return (w, v) if vectors else w


def _from_eig(w, v) -> np.ndarray:
    """v diag(w) v^dagger for stacks of eigenpairs."""
    return (v * w[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _support(w) -> np.ndarray:
    top = np.max(w, axis=-1, keepdims=True, initial=0.0)
    return w > SUPPORT_CUTOFF * np.maximum(top, 1e-300)


def _power(w, t: float) -> np.ndarray:
    """Eigenvalues to the power ``t`` on the support, 0 off it."""
    on = _support(w)
    return np.where(on, np.where(on, w, 1.0) ** t, 0.0)


def eigvalsh_desc(m) -> np.ndarray:
    return _eigh(as_matrix(m), vectors=False)[::-1].copy()


def matrix_power(m, t: float) -> np.ndarray:
    """Spectral power of a PSD matrix on its support (0**t := 0 for all t)."""
    w, v = _eigh(_hermitian(m), floor=PSD_TOL)
    return _from_eig(_power(w, t), v)


def _leaks(rho, w, v):
    """(rho leaks 1e-10 of its trace out of supp(v diag(w) v^dagger),
    rho in the basis ``v``, tr rho) per matrix of stacks."""
    y = np.swapaxes(v.conj(), -1, -2) @ rho @ v
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    kept = (np.diagonal(y, axis1=-2, axis2=-1).real * _support(w)).sum(axis=-1)
    return tr - kept > 1e-10 * np.maximum(tr, 1.0), y, tr


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
