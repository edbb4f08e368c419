"""Seeded random instance generators.

Everything is driven by ``numpy.random.default_rng``; a fixed seed gives a
fixed instance. Seeds may be ints or tuples of ints (handy for deriving
per-instance streams like ``(suite_seed, property_id, index)``).
"""

from __future__ import annotations

import numpy as np

from ..errors import BadShapeError
from .states import CqState, DensityOperator, creg, qreg


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, tuple):
        return np.random.default_rng(list(seed))
    return np.random.default_rng(seed)


def random_density(dims, seed, rank: int | None = None) -> DensityOperator:
    """Haar-flavored random mixed state: normalized G G^dag with Gaussian G."""
    rng = rng_from(seed)
    dims = (dims,) if isinstance(dims, int) else tuple(int(x) for x in dims)
    d = int(np.prod(dims, initial=1))
    if d < 1:
        raise BadShapeError("empty dims")
    r = d if rank is None else int(rank)
    if r < 1 or r > d:
        raise BadShapeError(f"rank {r} out of range for dim {d}")
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real, dims)


def random_distribution(n: int, seed) -> np.ndarray:
    """Uniform-ish random point on the simplex with full support
    (normalized exponentials plus 1e-3)."""
    if n < 1:
        raise BadShapeError("alphabet must be nonempty")
    rng = rng_from(seed)
    x = rng.exponential(size=n) + 1e-3
    return x / x.sum()


def random_isometry(d_in: int, d_out: int, seed) -> np.ndarray:
    """Random isometry V: d_in -> d_out with V^dag V = I (QR of a Ginibre block)."""
    if d_out < d_in or d_in < 1:
        raise BadShapeError(f"need d_out >= d_in >= 1, got {d_in}->{d_out}")
    rng = rng_from(seed)
    g = rng.normal(size=(d_out, d_in)) + 1j * rng.normal(size=(d_out, d_in))
    q, r = np.linalg.qr(g)
    # fix phases so the factorization is unique (deterministic across runs)
    ph = np.diag(r).copy()
    ph = np.where(np.abs(ph) < 1e-12, 1.0, ph / np.abs(ph))
    return q * ph.conj()


def random_kraus_channel(d_in: int, d_out: int, n_env: int, seed):
    """Random CPTP map via Stinespring: V: d_in -> d_out*n_env, traced over env."""
    v = random_isometry(d_in, d_out * n_env, seed)
    return [v[i * d_out:(i + 1) * d_out, :] for i in range(n_env)]


def random_cq(alphabet_sizes, qdims, seed, names=None, qnames=None,
              rank: int | None = None) -> CqState:
    """Random cq-state: Dirichlet-ish weights, independent random conditionals."""
    rng = rng_from(seed)
    alphabet_sizes = tuple(int(s) for s in alphabet_sizes)
    qdims = tuple(int(d) for d in qdims)
    names = names or [f"C{i}" for i in range(len(alphabet_sizes))]
    qnames = qnames or [f"Q{i}" for i in range(len(qdims))]
    regs = [creg(n, tuple(range(s))) for n, s in zip(names, alphabet_sizes)]
    regs += [qreg(n, d) for n, d in zip(qnames, qdims)]
    shape = alphabet_sizes
    w = random_distribution(int(np.prod(shape, initial=1)), rng).reshape(shape)
    # one draw per outcome, in np.ndindex order
    conds = np.stack([random_density(qdims or (1,), rng, rank=rank).matrix
                      for _ in np.ndindex(*shape)])
    return CqState(regs, w, conds.reshape(shape + conds.shape[1:]))
