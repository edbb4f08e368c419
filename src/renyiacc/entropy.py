"""Sandwiched Renyi divergence and the conditional entropies built on it.

All logarithms are base 2 and all entropies are in bits. Orders are restricted
to alpha in (1, inf). The conventions 0*log 0 := 0 and 0**t := 0 apply
throughout, and +inf (math.inf) is the dedicated extended-real value returned
on support violations.

Three conditional entropies appear:

- ``h_down``: divergence against the state's own conditioning marginal;
- ``h_up``: marginal optimized over all states on the conditioning part;
- ``h_partial``: for a classical register B with side information C, the
  distribution on B is optimized while the per-symbol states of C stay fixed.

When the conditioning side contains classical registers, the block
decomposition of the divergence is used, which reproduces the exact classical
closed forms; a dense solver handles genuinely quantum conditioning.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import (
    AlphabetMismatchError,
    AllZeroError,
    BadEpsilonError,
    BadPartitionError,
    BadProbabilityError,
    BNotClassicalError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
)
from .optimize import simplex_grid
from .qcore import CqState, DensityOperator, embed, is_hermitian
from .qcore.linalg import PSD_TOL, _eigh, _from_eig, _leaks, _power, _support
from .qcore.states import TRACE_TOL, WEIGHT_TOL, _dense, _partial_trace

INF = math.inf


def check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (alpha > 1.0 and math.isfinite(alpha)):
        raise ValueError(f"order alpha must lie in (1, inf), got {alpha}")
    return alpha


def _cq(x, psd: bool = True) -> CqState:
    """``x`` as a CqState, blocks checked finite and Hermitian and, unless a
    caller decomposes them with the floor anyway, those of positive weight
    PSD (NotPSDError below -PSD_TOL): this module's one input check."""
    if not isinstance(x, CqState):
        x = DensityOperator(x, (len(x),))
    if not is_hermitian(x.conds):
        raise NotHermitianError("state is not Hermitian within tolerance")
    if psd:
        _eigh(x.conds[x.weights > 0.0], vectors=False, floor=PSD_TOL)
    return x


# ---------------------------------------------------------------------------
# one kernel and one reduction
# ---------------------------------------------------------------------------

def _log2(x) -> np.ndarray:
    """Elementwise log2, -inf where x <= 0 (so that 0 log 0 := 0 in sums)."""
    x = np.asarray(x, dtype=float)
    return np.log2(x, out=np.full(x.shape, -INF), where=x > 0.0)


def _log2sumexp2(x, axis=None):
    """log2 sum 2**x over ``axis``, shifted by the largest term.

    -inf terms drop out and a +inf term gives +inf. A sum without any other
    term comes from a state without mass.
    """
    x = np.asarray(x, dtype=float)
    m = np.max(x, axis=axis, keepdims=True, initial=-INF)
    if np.isneginf(m).any():
        raise NotPSDError("state has no mass")
    m = np.where(np.isinf(m), 0.0, m)
    return np.squeeze(m, axis=axis) + np.log2(np.sum(2.0 ** (x - m), axis=axis))


def _softmax(x):
    """Softmax over the last axis."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _sandwich_eigs(rho, sigma, ts):
    """Ascending eigenvalues of sigma^t rho sigma^t, clipped at 0, at each t
    of ``ts``, and whether rho leaks out of supp(sigma), per block; sigma is
    decomposed once. NotPSDError on a clearly negative sigma, or sandwich
    (below -1e-6 max(tr rho, 1)) inside the support."""
    ws, vs = _eigh(sigma, floor=PSD_TOL)
    off, y, tr = _leaks(rho, ws, vs)  # y: rho in sigma's eigenbasis
    floor = np.where(off, INF, 1e-6 * np.maximum(tr, 1.0))
    return [_eigh(wt[..., :, None] * y * wt[..., None, :], vectors=False,
                  floor=floor) for wt in (_power(ws, t) for t in ts)], off


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

def _divergence_dense(rho, sigma, alphas) -> list:
    """D_alpha(rho || sigma) per block of stacks ``(..., d, d)`` at each order
    of ``alphas``; +inf off support."""
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    if np.any(tr <= 0.0):
        raise NotPSDError("rho has nonpositive trace")
    w, off = _sandwich_eigs(rho, sigma, [(1.0 - a) / (2.0 * a) for a in alphas])
    q = [(wa ** a).sum(axis=-1) for wa, a in zip(w, alphas)]
    return [np.where(off | (qa <= 0.0), INF, (_log2(qa) - np.log2(tr)) / (a - 1.0))
            for qa, a in zip(q, alphas)]


def _block_terms(p, rho, q, sigma, alphas) -> list:
    """alpha log2 p + (1 - alpha) log2 q + (alpha - 1) D_alpha(rho || sigma)
    at each order of ``alphas``.

    ``p`` and ``q`` weigh a grid of outcomes; ``rho`` and ``sigma`` hold their
    blocks (broadcast against the grid). A block enters exactly when its p is
    positive: the others give -inf and drop out of every sum. q = 0 under a
    positive p gives +inf.
    """
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float),
                               np.asarray(q, dtype=float))
    live = p > 0.0
    rho = np.broadcast_to(rho, p.shape + np.shape(rho)[-2:])[live]
    sigma = np.broadcast_to(sigma, p.shape + np.shape(sigma)[-2:])[live]
    lp, lq = np.log2(p[live]), _log2(q[live])
    out = [np.full(p.shape, -INF) for _ in alphas]
    for t, a, d in zip(out, alphas, _divergence_dense(rho, sigma, alphas)):
        t[live] = a * lp + (1.0 - a) * lq + (a - 1.0) * d
    return out


def _blocks_divergence(terms, alpha: float) -> float:
    """Block decomposition: (1/(a-1)) log2 sum_c p^a q^(1-a) 2^((a-1) D_c)."""
    return float(_log2sumexp2(terms)) / (alpha - 1.0)


def _divergence_args(rho, sigma):
    """(p, rho blocks, q, sigma blocks) of a divergence's two arguments.

    A pair on the same classical registers is taken block by block; a pair
    of which one side has none is compared as one dense block of weight 1.
    """
    rho, sigma = _cq(rho), _cq(sigma, psd=False)
    if rho.cregs != sigma.cregs:
        if rho.cregs and sigma.cregs:
            raise AlphabetMismatchError(
                "classical registers or alphabets differ between states")
        return (np.ones(1), rho.to_density().matrix[None], np.ones(1),
                sigma.to_density().matrix[None])
    p, q = rho.weights.reshape(-1), sigma.weights.reshape(-1)
    rb = rho.conds.reshape(-1, rho.qdim, rho.qdim)
    sb = sigma.conds.reshape(-1, sigma.qdim, sigma.qdim)
    return p, rb, q, sb


def renyi_divergence(rho, sigma, alpha: float) -> float:
    """Sandwiched Renyi divergence; cq pairs use the block decomposition."""
    alpha = check_alpha(alpha)
    return _blocks_divergence(
        _block_terms(*_divergence_args(rho, sigma), (alpha,))[0], alpha)


def max_divergence(rho, sigma) -> float:
    """D_inf(rho || sigma) = inf { lam : rho <= 2^lam sigma }."""
    p, rb, q, sb = _divergence_args(rho, sigma)
    live = p > 0.0
    if np.any(q[live] <= 0.0):
        return INF
    (w,), off = _sandwich_eigs(rb[live], sb[live], (-0.5,))
    d = np.where(off, INF,
                 np.log2(p[live]) - np.log2(q[live]) + _log2(w[..., -1]))
    return float(np.max(d, initial=-INF))


def kl_divergence(v, p) -> float:
    """KL divergence in bits of two distributions of one shape; +inf if v
    puts mass outside supp(p)."""
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    if v.shape != p.shape:
        raise AlphabetMismatchError(f"shape mismatch {v.shape} vs {p.shape}")
    tot = 0.0
    for vi, pi in zip(_distribution(v.reshape(-1)),
                      _distribution(p.reshape(-1))):
        if vi <= 0.0:
            continue
        if pi <= 0.0:
            return INF
        tot += vi * math.log2(vi / pi)
    return tot


# ---------------------------------------------------------------------------
# conditional entropies
# ---------------------------------------------------------------------------

def _split(state: CqState, a_names) -> set:
    a_names = set(a_names)
    for n in a_names:
        state.reg(n)
    if not a_names:
        raise BadPartitionError("A side of the partition is empty")
    return a_names


def _given(state: CqState, names):
    """``(live, p, w, conds, rest)``: the flat indices of the outcomes of the
    classical ``names`` with p > 0, their p, and the weights and blocks of the
    state given each, stacked on axis 0, on the other registers ``rest``."""
    axes, k = [state._cpos(n) for n in names], len(names)
    w = np.moveaxis(state.weights, axes, range(k))
    w = w.reshape((-1,) + w.shape[k:])
    conds = np.moveaxis(state.conds, axes, range(k)).reshape(
        w.shape + state.conds.shape[-2:])
    p = w.reshape(len(w), -1).sum(axis=1)
    live = np.flatnonzero(p > 0.0)
    given = w[live] / p[live].reshape((-1,) + (1,) * (w.ndim - 1))
    return live, p[live], given, conds[live], [r for r in state.regs
                                                if r.name not in names]


def _down_blocks(w, conds, a_axes, a_pos, qdims, alphas) -> list:
    """Block terms of H_down_alpha(A | rest) = -D_alpha(rho || I_A x rho_rest)
    at each order of ``alphas``.

    ``w`` holds the weights of the classical outcomes, after any leading
    stack axes, and ``conds`` their blocks on quantum registers of dims
    ``qdims``; A owns the axes ``a_axes`` of ``w`` and the quantum positions
    ``a_pos``. Outcome (a, c) has conditioning weight q = p(c) and reference
    I_Aq x sigma_{Cq|c}, with sigma_{Cq|c} = sum_a p(a|c) tr_Aq rho_{a,c}.
    """
    q = w.sum(axis=a_axes, keepdims=True)
    given = np.divide(w, q, out=np.zeros_like(w), where=q > 0.0)
    cq_pos = [i for i in range(len(qdims)) if i not in a_pos]
    rest = _partial_trace(conds, qdims, cq_pos) if a_pos else conds
    sigma = (given[..., None, None] * rest).sum(axis=a_axes, keepdims=True)
    ref = embed(sigma, qdims, cq_pos) if a_pos else sigma
    return _block_terms(w, conds, q, ref, alphas)


def _down_terms(state: CqState, a_names, alphas) -> list:
    """``_down_blocks`` of a state, with A given by register names."""
    a_set = _split(state, a_names)
    return _down_blocks(
        state.weights, state.conds,
        tuple(i for i, r in enumerate(state.cregs) if r.name in a_set),
        tuple(i for i, r in enumerate(state.qregs) if r.name in a_set),
        state.qdims, alphas)


def h_down(state, a_names, alpha: float) -> float:
    """H_down_alpha(A | rest) = -D_alpha(rho || I_A x rho_rest)."""
    alpha = check_alpha(alpha)
    return -_blocks_divergence(_down_terms(_cq(state), a_names, (alpha,))[0],
                               alpha)


_UP_TOL = 1e-10       # the H_up fixed point stops a row below this step
_UP_MAX_ITER = 10000


def _ab_matrix(x: np.ndarray) -> np.ndarray:
    """``(k, a, a', i, j)`` blocks of AB operators as ``(k, d_a r, d_a r)`` matrices."""
    k, d_a, _, r, _ = x.shape
    return x.transpose(0, 1, 3, 2, 4).reshape(k, d_a * r, d_a * r)


def _trace_a(x: np.ndarray, d_a: int) -> np.ndarray:
    """tr_A of a stack ``(k, d_a r, d_a r)``; a third of the general
    ``_partial_trace``'s cost per call, which the loop pays every iteration."""
    k, d, _ = x.shape
    r = d // d_a
    return np.einsum("kaiaj->kij", x.reshape(k, d_a, r, d_a, r))


def _by_order(fn, x, e):
    """fn(x, e) with the exponent e[i] on row i of ``x``: fn runs once per
    distinct exponent, on its rows, with that exponent as a scalar (an array
    exponent would move last bits: numpy has fast paths for scalar ones)."""
    orders = dict.fromkeys(e.tolist())
    if len(orders) == 1:
        return fn(x, *orders)
    out = np.empty(x.shape)
    for ej in orders:
        rows = e == ej
        out[rows] = fn(x[rows], ej)
    return out


def _x_eigs(rc, ws, vs, s, floor):
    """Eigenpairs of X = S rho S (NotPSDError below ``-floor``) and sigma^s per
    row, S = I x sigma^s, sigma = vs diag(ws) vs^dagger, rho as rc blocks."""
    ss = _from_eig(_by_order(_power, ws, s), vs)
    sb = ss[:, None, None]
    wx, vx = _eigh(_ab_matrix(sb @ rc @ sb), floor=floor, symmetrize=False)
    return wx, vx, ss


def _q_grad(rc, ws, vs, alpha, floor):
    """Q(sigma) = tr[(S rho S)^alpha], S = I x sigma^s, and its gradient in
    sigma's eigenbasis U, at sigma = vs diag(ws) vs^dagger; ``alpha`` is one
    order or one per row, ``floor`` as in _x_eigs.

    The gradient is U (Gamma o U^dagger M U) U^dagger with
    M = alpha tr_A[rho S X^(alpha-1) + h.c.] and Gamma the divided
    differences of lambda^s at sigma's eigenvalues; this returns
    Gamma o U^dagger M U.
    """
    alpha = np.broadcast_to(alpha, len(rc))
    s = (1.0 - alpha) / (2.0 * alpha)
    wx, vx, ss = _x_eigs(rc, ws, vs, s, floor)
    p = _ab_matrix(rc @ ss[:, None, None]) @ _from_eig(
        _by_order(operator.pow, wx, alpha - 1.0), vx)
    m = alpha[:, None, None] * _trace_a(p + np.swapaxes(p.conj(), -1, -2),
                                        rc.shape[1])
    # Gamma_ij = (l_i^s - l_j^s) / (l_i - l_j) = l_j^(s-1) expm1(s d) / expm1(d)
    # with d = log l_i - log l_j, which is s l^(s-1) on the diagonal
    lw, sk = np.log(ws), s[:, None, None]
    dl = lw[:, :, None] - lw[:, None, :]
    flat = dl == 0.0
    phi = np.where(flat, sk, np.expm1(sk * dl) / np.where(flat, 1.0, np.expm1(dl)))
    return _by_order(operator.pow, wx, alpha).sum(axis=-1), _by_order(
        operator.pow, ws, s - 1.0)[:, None, :] * phi * (
        np.swapaxes(vs.conj(), -1, -2) @ m @ vs)


def _up_fixed_point(rc, w0, alpha):
    """The H_up fixed point of every row of ``rc`` at one support rank, in lockstep.

    ``rc`` is rho compressed onto supp(rho_B) as ``(k, a, a', i, j)`` blocks,
    ``w0`` the starting marginals' eigenvalues (eigenvectors: the identity)
    and ``alpha`` the order of each row. A row leaves the loop once its own
    step is below ``_UP_TOL``. Returns (values, uppers, ticks, stuck rows).

    The upper bound is Frank-Wolfe's: Q is convex in sigma for alpha > 1, so
    min Q >= Q - g with the gap g = <grad Q, sigma> - lambda_min(grad Q).
    """
    k, d_a, _, r, _ = rc.shape
    s, theta = (1.0 - alpha) / (2.0 * alpha), (1.0 / alpha)[:, None, None]
    floor = 1e-6 * np.maximum(np.einsum("kaaii->k", rc).real, 1.0)  # as a sandwich
    ws = w0.copy()
    vs = np.broadcast_to(np.eye(r, dtype=complex), (k, r, r)).copy()
    sig = _from_eig(ws, vs)
    live = np.arange(k)
    ticks = 0
    while live.size and ticks < _UP_MAX_ITER:
        ticks += 1
        wx, vx, _ = _x_eigs(rc[live], ws[live], vs[live], s[live], floor[live])
        t_mat = _trace_a(_from_eig(_by_order(operator.pow, wx, alpha[live]), vx),
                         d_a)
        wt, vt = _eigh(t_mat)
        h = (theta[live] * _from_eig(np.log(np.clip(wt, 1e-300, None)), vt)
             + (1.0 - theta[live]) * _from_eig(
                 np.log(np.clip(ws[live], 1e-300, None)), vs[live]))
        wh, vh = _eigh(h)
        e = _softmax(wh)
        new = _from_eig(e, vh)
        delta = np.abs(new - sig[live]).max(axis=(-2, -1))
        ws[live], vs[live], sig[live] = e, vh, new
        live = live[~(delta < _UP_TOL)]
    q, grad = _q_grad(rc, ws, vs, alpha, floor)
    # <grad Q, sigma> is the diagonal of grad weighed by sigma's eigenvalues
    low = q - (np.einsum("ki,kii->k", ws, grad).real
               - _eigh(grad, vectors=False)[:, 0])
    upper = np.where(low > 0.0, -_log2(low) / (alpha - 1.0), INF)
    return -_log2(q) / (alpha - 1.0), upper, ticks, live


def h_up_dense(rho: np.ndarray, d_a: int, d_b: int, alpha):
    """sup_sigma -D_alpha(rho_AB || I_A x sigma_B) by damped fixed-point iteration.

    ``rho`` is one matrix ``(d, d)`` or a stack ``(k, d, d)``, d = d_a d_b,
    checked Hermitian and PSD (NotPSDError below -PSD_TOL). ``alpha`` is one
    order or a ``(k,)`` array of one per row, each in (1, inf) (ValueError,
    before any decomposition). The update is the matrix geometric mix
    ``sigma <- exp((1/alpha) log T(sigma) + (1 - 1/alpha) log sigma)`` with
    ``T(sigma) = tr_A[(sigma^s rho sigma^s)^alpha]``, whose fixed points are
    the stationary marginals; the mix exponent makes the classical case
    converge in one step. Each row runs on the support of its rho_B, and the
    rows of one support rank iterate in lockstep, whatever their orders:
    every power is taken once per distinct exponent, as a scalar, on that
    exponent's rows, so each row is bit-identical to a lone call. An
    iteration decomposes three matrices: the sandwich, T and the exponent
    (the eigenpairs of the next sigma come with its construction).

    Returns (value, upper, iterations): ``upper`` is a Frank-Wolfe bound
    value <= H_up <= upper (+inf when the gap is too loose to bound), and
    ``iterations`` the lockstep ticks. For a stack, value and upper are
    arrays over its rows.
    """
    rho = np.asarray(rho, dtype=complex)
    lone = rho.ndim == 2
    rho = rho.reshape(-1, d_a * d_b, d_a * d_b)
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), len(rho))
    for a in set(alpha.tolist()):
        check_alpha(a)
    if not is_hermitian(rho):
        raise NotHermitianError("state is not Hermitian within tolerance")
    _eigh(rho, vectors=False, floor=PSD_TOL)
    wb, vb = _eigh(_trace_a(rho, d_a), floor=PSD_TOL)
    wb, vb = wb[:, ::-1], vb[:, :, ::-1]
    rank = _support(wb).sum(axis=1)
    value, upper = np.empty(len(rho)), np.empty(len(rho))
    ticks, stuck = 0, []
    for r in np.unique(rank):
        rows = np.flatnonzero(rank == r)
        v = vb[rows, :, :r]
        rc = np.einsum("kbi,kabcd,kdj->kacij", v.conj(),
                       rho[rows].reshape(-1, d_a, d_b, d_a, d_b), v)
        w0 = wb[rows, :r] / wb[rows, :r].sum(axis=1, keepdims=True)
        value[rows], upper[rows], n, bad = _up_fixed_point(
            rc, w0, alpha[rows])
        ticks = max(ticks, n)
        stuck.extend(rows[bad])
    if lone:
        value, upper = float(value[0]), float(upper[0])
    if stuck:
        raise NoConvergenceError(
            f"H_up solver did not reach {_UP_TOL} in {_UP_MAX_ITER} iterations",
            best_value=value, gap=upper - value)
    return value, upper, ticks


def _h_up(state, a_names, alphas) -> list:
    """H_up_alpha(A | rest) at each order of ``alphas``. The dense rows of a
    quantum conditioning side are built once and, repeated once per order,
    go through one h_up_dense call."""
    alphas = [check_alpha(a) for a in alphas]
    state = _cq(state, psd=False)  # its blocks are decomposed with the floor
    a_set = _split(state, a_names)
    ccl = [r.name for r in state.cregs if r.name not in a_set]
    cq_names = [r.name for r in state.qregs if r.name not in a_set]
    # one row per outcome c of the classical conditioning: H_up is
    # (alpha/(1-alpha)) log2 sum_c p(c) 2^(((1-alpha)/alpha) H_up(A | rest)_{|c})
    _, pc, given, conds, rest = _given(state, ccl)
    if not cq_names:
        # the conditional state is block diagonal: its spectrum is p(a|c)
        # times that of each block
        lam = _eigh(conds, vectors=False, floor=PSD_TOL)
        x = _log2(given[..., None] * lam).reshape(len(pc), -1)
        inner = [_log2sumexp2(a * x, axis=1) / a for a in alphas]
    else:
        order = [n for n in state.names if n in a_set] + cq_names
        d_a = int(np.prod([state.reg(n).size for n in order if n in a_set]))
        dense = _dense(rest, given, conds, order)
        vals, _, _ = h_up_dense(np.tile(dense, (len(alphas), 1, 1)), d_a,
                                dense.shape[-1] // d_a,
                                np.repeat(alphas, len(dense)))
        inner = [(1.0 - a) / a * v for a, v in
                 zip(alphas, vals.reshape(len(alphas), len(dense)))]
    return [float(_up_sum(np.log2(pc), i, a)) for a, i in zip(alphas, inner)]


def h_up(state, a_names, alpha: float) -> float:
    """Fully optimized conditional Renyi entropy H_up_alpha(A | rest)."""
    return _h_up(state, a_names, (alpha,))[0]


def h_classical(p, alpha: float, variant: str) -> float:
    """Exact classical conditional entropies; axis 0 of p is A, axis 1 is B."""
    alpha = check_alpha(alpha)
    p = np.asarray(p, dtype=float)
    p = p.reshape(p.shape[0], -1)
    pb = p.sum(axis=0)
    live = pb > 0.0
    lp, lpb = _log2(p[:, live]), np.log2(pb[live])
    if variant == "down":
        return float(_log2sumexp2(alpha * lp + (1.0 - alpha) * lpb)) / (1.0 - alpha)
    if variant == "up":
        inner = _log2sumexp2(alpha * (lp - lpb), axis=0) / alpha
        return float(_up_sum(lpb, inner, alpha))
    raise BadPartitionError(f"variant must be 'up' or 'down', got {variant!r}")


def _per_b(terms, w, b_axis: int, n_stack: int, alpha: float):
    """(p(b), H(A | rest)_{|b}) over the symbols b on axis ``b_axis`` of the
    block terms and their weights ``w``; the first ``n_stack`` axes are stack
    axes, kept in front of b. H is 0 where p(b) = 0."""
    rest = [i for i in range(n_stack, w.ndim) if i != b_axis]
    terms = terms.transpose([*range(n_stack), b_axis, *rest])
    pb = w.sum(axis=tuple(rest))
    return pb, _given_b(terms.reshape(pb.shape + (-1,)), pb, alpha)


def _given_b(terms, pb, alpha: float) -> np.ndarray:
    """H_down(A | rest)_{|b} from the block terms ``(..., b, j)`` of each b
    and p(b) ``(..., b)``: the terms of the state given b are these terms
    minus log2 p(b). It is 0 where p(b) = 0."""
    live = pb > 0.0
    per_b = _log2sumexp2(np.where(live[..., None], terms, 0.0), axis=-1)
    lpb = np.log2(np.where(live, pb, 1.0))
    return np.where(live, -(per_b - lpb) / (alpha - 1.0), 0.0)


def _up_sum(lpb, t, alpha: float):
    """The optimized reduction over b, on the last axis: alpha/(1-alpha)
    log2 sum_b p(b) 2^{t_b} from log2 p(b) and t_b. With t_b =
    (1-alpha)/alpha h_b it is H_alpha(A | B^up rest^down); a b with
    p(b) = 0 drops out."""
    return (alpha / (1.0 - alpha)) * _log2sumexp2(lpb + t, axis=-1)


def h_partial(state: CqState, a_names, up_name: str, alpha: float) -> float:
    """Partially optimized conditional entropy H_alpha(A | B^up C^down).

    ``up_name`` is the classical register whose distribution is optimized;
    every other non-A register is side information with fixed per-symbol
    states.
    """
    return _down_partial(state, a_names, up_name, (alpha,))[0][1]


def _down_partial(state, a_names, up_name: str, alphas) -> list:
    """(H_down, H_partial, p(b), h_b = H_down(A | rest)_{|b}) at each order of
    ``alphas``, from one set of block terms per order; b with p(b) > 0."""
    alphas = [check_alpha(a) for a in alphas]
    state = _cq(state)
    if not state.reg(up_name).is_classical:
        raise BNotClassicalError(f"register {up_name!r} must be classical")
    if up_name in set(a_names):
        raise BadPartitionError("optimized register cannot sit inside A")
    out = []
    for a, terms in zip(alphas, _down_terms(state, a_names, alphas)):
        pb, hb = _per_b(terms, state.weights, state._cpos(up_name), 0, a)
        pb, hb = pb[pb > 0.0], hb[pb > 0.0]
        out.append((-_blocks_divergence(terms, a),
                    float(_up_sum(_log2(pb), (1.0 - a) / a * hb, a)), pb, hb))
    return out


def _scalar_down_terms(w, c, alpha: float) -> np.ndarray:
    """``_down_blocks`` terms of weights ``w`` (m, n_a, n_b) with scalar
    blocks ``c`` of the same shape, A on axis 1: the reference of (a, b) is
    sigma_b = sum_a p(a|b) c_ab. A live block must be positive."""
    live = w > 0.0
    if (c[live] <= 0.0).any():
        raise NotPSDError("rho has nonpositive trace")
    q = w.sum(axis=1, keepdims=True)
    sigma = (np.divide(w, q, out=np.zeros_like(w), where=q > 0.0) * c).sum(
        axis=1, keepdims=True)
    q, sigma = (np.broadcast_to(x, w.shape)[live] for x in (q, sigma))
    terms = np.full(w.shape, -INF)
    terms[live] = (alpha * np.log2(w[live]) + (1.0 - alpha) * np.log2(q)
                   + (alpha - 1.0) * (np.log2(c[live]) - np.log2(sigma)))
    return terms


def h_partial_stack(w, conds, alpha: float) -> np.ndarray:
    """H_alpha(A | B^up E^down) of each state in a stack of cq states.

    Row i is the state sum_ab w[i, a, b] |ab><ab| x conds[i, a, b] with
    classical A and B and a quantum E; ``w`` has shape (m, n_a, n_b) and
    ``conds`` (m, n_a, n_b, d, d). This is ``h_partial(state, ["A"], "B",
    alpha)`` for every row at once. Scalar blocks (d = 1) are scored in
    closed form: D_alpha(c_ab || sigma_b) = log2 c_ab - log2 sigma_b.
    """
    alpha = check_alpha(alpha)
    w, conds = np.asarray(w, dtype=float), np.asarray(conds, dtype=complex)
    if not is_hermitian(conds):
        raise NotHermitianError("state is not Hermitian within tolerance")
    if conds.shape[-1] == 1:
        terms = _scalar_down_terms(w, conds[..., 0, 0].real, alpha)
    else:
        _eigh(conds[w > 0.0], vectors=False, floor=PSD_TOL)
        terms = _down_blocks(w, conds, (1,), (), conds.shape[-1:], (alpha,))[0]
    pb, hb = _per_b(terms, w, 2, 1, alpha)
    return _up_sum(_log2(pb), (1.0 - alpha) / alpha * hb, alpha)


def optimal_q(r, alpha: float) -> np.ndarray:
    """Minimizer of sum_b q_b^(1-alpha) r_b over the simplex: q* ~ r^(1/alpha)."""
    alpha = check_alpha(alpha)
    r = np.asarray(r, dtype=float)
    if np.all(r <= 0.0):
        raise AllZeroError("weight vector is identically zero")
    q = np.where(r > 0, r, 0.0) ** (1.0 / alpha)
    return q / q.sum()


def h_partial_variational(state: CqState, a_names, up_name: str,
                          alpha: float) -> float:
    """Grid/analytic supremum of -D_alpha(rho || I_A x sigma) over q_B.

    Independent oracle for :func:`h_partial`: evaluates the divergence at
    every distribution of denominator 200 on the optimized register (plus
    the analytic optimizer), using the block decomposition with weights q.
    """
    alpha = check_alpha(alpha)
    _, _, pb, hb = _down_partial(state, a_names, up_name, (alpha,))[0]
    # log2 r_b = alpha log2 p_b + (1 - alpha) h_b; the objective diverges to
    # -inf whenever some q_b vanishes, so the supremum sits in the interior
    # and boundary grid points can be dropped.
    log_r = alpha * np.log2(pb) + (1.0 - alpha) * hb
    nums = simplex_grid(len(pb), 200)
    q_star = optimal_q(2.0 ** (log_r - log_r.max()), alpha)
    qs = np.vstack([nums[(nums > 0).all(axis=1)] / 200, q_star])
    vals = _log2sumexp2((1.0 - alpha) * np.log2(qs) + log_r, axis=1) / (1.0 - alpha)
    return float(vals.max())


def _distribution(p, what: str = "") -> np.ndarray:
    """``p`` as floats, each row along its last axis a distribution:
    BadProbabilityError on a non-finite entry, an entry below -WEIGHT_TOL
    or a row sum off 1 by more than TRACE_TOL."""
    p = np.asarray(p, dtype=float)
    if p.min(initial=0.0) < -WEIGHT_TOL or \
            not (abs(p.sum(axis=-1) - 1.0) <= TRACE_TOL).all():
        raise BadProbabilityError(f"{what}{p.tolist()} is not a distribution")
    return p


def _spectrum(x) -> np.ndarray:
    """A distribution, or the eigenvalues of a state clipped at 0; either
    must be a ``_distribution``."""
    if np.ndim(x) == 1:
        return _distribution(x)
    return _distribution(_eigh(_cq(x, psd=False).to_density().matrix,
                               vectors=False, floor=PSD_TOL), "the spectrum ")


def renyi_entropy(x, alpha: float) -> float:
    """Unconditional Renyi entropy of a distribution or a state."""
    alpha = check_alpha(alpha)
    w = _spectrum(x)
    tot = float((w[w > 0] ** alpha).sum())
    return math.log2(tot) / (1.0 - alpha)


def von_neumann(x) -> float:
    """H(rho) = -tr rho log2 rho (or Shannon entropy of a distribution)."""
    return _shannon(_spectrum(x))


def _shannon(w) -> float:
    w = w[w > 1e-18]
    return float(-(w * np.log2(w)).sum())


def conditional_von_neumann(state, a_names) -> float:
    """H(A | rest) = H(full) - H(rest)."""
    rho = _cq(state, psd=False).to_density()  # decomposed by _spectrum
    cond = [n for n in rho.labels if n not in set(a_names)]
    h_all = von_neumann(rho.matrix)
    if not cond:
        return h_all
    marginal = rho.partial_trace_labels(cond).matrix
    return h_all - _shannon(_eigh(marginal, vectors=False, floor=PSD_TOL))


# ---------------------------------------------------------------------------
# f-weighted entropy and privacy amplification
# ---------------------------------------------------------------------------

def _f_vector(f, alphabet) -> np.ndarray:
    if isinstance(f, dict):
        return np.array([float(f[s]) for s in alphabet])
    arr = np.asarray(f, dtype=float)
    if arr.shape != (len(alphabet),):
        raise AlphabetMismatchError("tradeoff vector length mismatch")
    return arr


def f_weighted(state: CqState, a_names, c_name: str, sigma, f,
               alpha: float) -> float:
    """f-weighted Renyi entropy H^f_alpha(A C | B) against a fixed sigma_B.

    ``sigma`` is a state on the conditioning registers (everything outside A
    and the classical register ``c_name``), given densely in register order.
    Returns +inf when supp(rho_B) is not contained in supp(sigma_B).
    """
    alpha = check_alpha(alpha)
    state = _cq(state)
    c_reg = state.reg(c_name)
    if not c_reg.is_classical:
        raise BNotClassicalError(f"register {c_name!r} must be classical")
    f_arr = _f_vector(f, c_reg.alphabet)
    # D_alpha(rho_{|c} || I_A x sigma) for the symbols c with p(c) > 0, each
    # rho_{|c} the dense state of the other registers given c, in one call
    idx, pc, given, conds, rest = _given(state, [c_name])
    names = [r.name for r in rest]
    ref = embed(_cq(sigma, psd=False).to_density().matrix, [r.size for r in rest],
                [i for i, n in enumerate(names) if n not in set(a_names)])
    d = _divergence_dense(_dense(rest, given, conds, names), ref, (alpha,))[0]
    if np.any(d == INF):
        return INF
    terms = alpha * np.log2(pc) + (alpha - 1.0) * (f_arr[idx] + d)
    return float(_log2sumexp2(terms)) / (1.0 - alpha)


def f_weighted_sup_qb(state: CqState, a_names, c_name: str, b_name: str, f,
                      alpha: float) -> float:
    """Closed form of sup_{q_B} H^f_alpha(AC|BE) for classical B and C.

    Per symbol b, the inner sum runs over c with weights p(c|b)^alpha and the
    divergences are taken against the b-conditional marginal on E: this is
    the partially optimized H(AC | B^up E^down) with the block terms of each
    c shifted by (alpha - 1) f_c.
    """
    alpha = check_alpha(alpha)
    state = _cq(state)
    for n, label in ((c_name, "C"), (b_name, "B")):
        if not state.reg(n).is_classical:
            raise BNotClassicalError(f"register {n!r} ({label}) must be classical")
    f_arr = _f_vector(f, state.alphabet(c_name))
    w, c_axis = state.weights, state._cpos(c_name)
    terms = _down_terms(state, [*a_names, c_name], (alpha,))[0] + (alpha - 1.0) \
        * np.expand_dims(f_arr, tuple(range(1, w.ndim - c_axis)))
    pb, hb = _per_b(terms, w, state._cpos(b_name), 0, alpha)
    return float(_up_sum(_log2(pb), (1.0 - alpha) / alpha * hb, alpha))


def key_length(h_up_bits: float, epsilon: float, alpha: float) -> int:
    """Longest hash output with leftover-hash soundness below epsilon.

    Largest integer l with 2^(2/alpha - 1) * 2^((alpha-1)/alpha (l - h)) <=
    epsilon; zero when no positive length qualifies.
    """
    alpha = float(alpha)
    if not (1.0 < alpha <= 2.0):
        raise BadEpsilonError(f"privacy amplification needs alpha in (1, 2], got {alpha}")
    if not (0.0 < epsilon < 1.0):
        raise BadEpsilonError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not math.isfinite(h_up_bits):
        raise BadEpsilonError("entropy bound must be finite")
    bound = h_up_bits + (alpha / (alpha - 1.0)) * (
        math.log2(epsilon) - 2.0 / alpha + 1.0)
    return max(0, math.floor(bound))

