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
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphabetMismatchError,
    AllZeroError,
    BadEpsilonError,
    BadPartitionError,
    BNotClassicalError,
    NoConvergenceError,
    NotPSDError,
)
from .optimize import simplex_grid
from .qcore import (
    CqState,
    DensityOperator,
    embed,
    hermitian_eig,
    support_contained,
)
from .qcore.linalg import (
    SUPPORT_CUTOFF,
    check_psd,
    eigvalsh_desc,
    inside_support,
    psd_eig,
    spectral_power,
)

INF = math.inf


def check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (alpha > 1.0 and math.isfinite(alpha)):
        raise ValueError(f"order alpha must lie in (1, inf), got {alpha}")
    return alpha


def _as_mat(x) -> np.ndarray:
    if isinstance(x, DensityOperator):
        return x.matrix
    return np.asarray(x, dtype=complex)


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

def _divergence_dense(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """D_alpha(rho || sigma) for dense positive matrices; +inf off support."""
    tr = float(np.trace(rho).real)
    if tr <= 0.0:
        raise NotPSDError("rho has nonpositive trace")
    ws, vs, on = psd_eig(sigma)
    if not inside_support(rho, vs[:, on]):
        return INF
    ss = spectral_power(ws, vs, on, (1.0 - alpha) / (2.0 * alpha))
    x = ss @ rho @ ss
    w = check_psd(eigvalsh_desc(x), tol=1e-6 * max(tr, 1.0))
    val = float((w ** alpha).sum())
    if val <= 0.0:
        return INF
    return (math.log2(val) - math.log2(tr)) / (alpha - 1.0)


def _blocks_divergence(p, rho_blocks, q, sig_blocks, alpha: float) -> float:
    """Block decomposition: (1/(a-1)) log2 sum_c p^a q^(1-a) 2^((a-1) D_c)."""
    terms = []
    for pc, rb, qc, sb in zip(p, rho_blocks, q, sig_blocks):
        if pc <= 0.0:
            continue
        if qc <= 0.0:
            return INF
        d = _divergence_dense(rb, sb, alpha)
        if d == INF:
            return INF
        terms.append(math.log2(pc) * alpha + (1.0 - alpha) * math.log2(qc)
                     + (alpha - 1.0) * d)
    if not terms:
        raise NotPSDError("state has no mass")
    m = max(terms)
    tot = sum(2.0 ** (t - m) for t in terms)
    return (m + math.log2(tot)) / (alpha - 1.0)


def _aligned_blocks(rho: CqState, sigma: CqState):
    if rho.classical_names != sigma.classical_names:
        raise AlphabetMismatchError("classical registers differ between states")
    for n in rho.classical_names:
        if rho.alphabet(n) != sigma.alphabet(n):
            raise AlphabetMismatchError(f"alphabet mismatch on {n!r}")
    return (rho.weights.reshape(-1), rho.conds.reshape(-1, rho.qdim, rho.qdim),
            sigma.weights.reshape(-1),
            sigma.conds.reshape(-1, sigma.qdim, sigma.qdim))


def renyi_divergence(rho, sigma, alpha: float) -> float:
    """Sandwiched Renyi divergence; cq pairs use the block decomposition."""
    alpha = check_alpha(alpha)
    if isinstance(rho, CqState) and isinstance(sigma, CqState):
        return _blocks_divergence(*_aligned_blocks(rho, sigma), alpha)
    if isinstance(rho, CqState):
        rho = rho.to_density()
    if isinstance(sigma, CqState):
        sigma = sigma.to_density()
    return _divergence_dense(_as_mat(rho), _as_mat(sigma), alpha)


def max_divergence(rho, sigma) -> float:
    """D_inf(rho || sigma) = inf { lam : rho <= 2^lam sigma }."""
    if isinstance(rho, CqState) and isinstance(sigma, CqState):
        p, rb, q, sb = _aligned_blocks(rho, sigma)
        worst = -INF
        for pc, r, qc, s in zip(p, rb, q, sb):
            if pc <= 0.0:
                continue
            if qc <= 0.0:
                return INF
            d = max_divergence(r, s)
            if d == INF:
                return INF
            worst = max(worst, math.log2(pc / qc) + d)
        return worst
    r = _as_mat(rho.to_density() if isinstance(rho, CqState) else rho)
    s = _as_mat(sigma.to_density() if isinstance(sigma, CqState) else sigma)
    ws, vs, on = psd_eig(s)
    if not inside_support(r, vs[:, on]):
        return INF
    inv = spectral_power(ws, vs, on, -0.5)
    w = eigvalsh_desc(inv @ r @ inv)
    top = float(w[0])
    if top <= 0.0:
        return -INF
    return math.log2(top)


def kl_divergence(v, p) -> float:
    """KL divergence in bits; +inf if v puts mass outside supp(p)."""
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    if v.shape != p.shape:
        raise AlphabetMismatchError(f"shape mismatch {v.shape} vs {p.shape}")
    tot = 0.0
    for vi, pi in zip(v.reshape(-1), p.reshape(-1)):
        if vi <= 0.0:
            continue
        if pi <= 0.0:
            return INF
        tot += vi * math.log2(vi / pi)
    return tot


# ---------------------------------------------------------------------------
# conditional entropies
# ---------------------------------------------------------------------------

def _split(state: CqState, a_names):
    a_names = set(a_names)
    for n in a_names:
        state.reg(n)
    cond = [n for n in state.names if n not in a_names]
    if not a_names:
        raise BadPartitionError("A side of the partition is empty")
    return a_names, cond


def _h_down_flat(state: CqState, a_names) -> tuple:
    """H_down pieces for a state whose classical registers all sit inside A.

    Returns (weights p_a, blocks rho^{|a}, reference matrix I_Aq x sigma_Cq),
    so the caller can assemble the divergence.
    """
    qdims = state.qdims
    cq_names = [n for n in state.quantum_names if n not in a_names]
    cq_pos = [state._qpos(n) for n in cq_names]
    if cq_names:
        ref = embed(state.marginal(cq_names).conds, qdims, cq_pos)
    else:
        ref = np.eye(state.qdim, dtype=complex)
    return (state.weights.reshape(-1),
            state.conds.reshape(-1, state.qdim, state.qdim), ref)


def h_down(state, a_names, alpha: float) -> float:
    """H_down_alpha(A | rest) = -D_alpha(rho || I_A x rho_rest)."""
    alpha = check_alpha(alpha)
    if isinstance(state, DensityOperator):
        a_idx = state.indices_of(a_names)
        cond = tuple(i for i in range(len(state.dims)) if i not in a_idx)
        if not cond:
            return -_divergence_dense(state.matrix,
                                      np.eye(state.dim(), dtype=complex), alpha)
        sig = state.partial_trace(cond).matrix
        ref = embed(sig, state.dims, cond)
        return -_divergence_dense(state.matrix, ref, alpha)
    a_names, cond = _split(state, a_names)
    ccl = [n for n in cond if state.reg(n).is_classical]
    if not ccl:
        p, blocks, ref = _h_down_flat(state, a_names)
        refs = [ref] * len(p)
        ones = [1.0] * len(p)
        return -_blocks_divergence(p, blocks, ones, refs, alpha)
    # classical conditioning: exact block formula over the classical outcomes
    terms = []
    for _, pc, sub in state.group_by(ccl):
        if pc <= 0.0:
            continue
        t = h_down(sub, a_names, alpha)
        if t == -INF:
            return -INF
        terms.append((pc, t))
    m = max((1.0 - alpha) * t for _, t in terms)
    tot = sum(pc * 2.0 ** ((1.0 - alpha) * t - m) for pc, t in terms)
    return (m + math.log2(tot)) / (1.0 - alpha)


@dataclass
class UpConfig:
    """Settings for the iterative fully-quantum H_up solver."""

    tol: float = 1e-10
    max_iter: int = 10000


def h_up_dense(rho: np.ndarray, d_a: int, d_b: int, alpha: float,
               cfg: UpConfig | None = None, sigma0: np.ndarray | None = None):
    """sup_sigma -D_alpha(rho_AB || I_A x sigma_B) by damped fixed-point iteration.

    The update is the matrix geometric mix
    ``sigma <- exp((1/alpha) log T(sigma) + (1 - 1/alpha) log sigma)`` with
    ``T(sigma) = tr_A[(sigma^s rho sigma^s)^alpha]``, whose fixed points are
    the stationary marginals; the mix exponent makes the classical case
    converge in one step. Runs on the support of rho_B.

    Returns (value, sigma, iterations).
    """
    alpha = check_alpha(alpha)
    cfg = cfg or UpConfig()
    rho = np.asarray(rho, dtype=complex)
    rho_b = np.trace(rho.reshape(d_a, d_b, d_a, d_b), axis1=0, axis2=2)
    wB, vB = hermitian_eig(rho_b)
    wB = np.clip(wB, 0.0, None)
    on = wB > SUPPORT_CUTOFF * max(wB[0], 1e-300)
    v_sup = vB[:, on]
    r = int(on.sum())
    big = np.kron(np.eye(d_a), v_sup)
    rho_c = big.conj().T @ rho @ big  # compressed onto supp(rho_B)
    if sigma0 is None:
        sig = np.diag(wB[on] / wB[on].sum()).astype(complex)
    else:
        sig = v_sup.conj().T @ np.asarray(sigma0, dtype=complex) @ v_sup
        sig = (sig + sig.conj().T) / 2
        sig = sig / max(np.trace(sig).real, 1e-12)
    s = (1.0 - alpha) / (2.0 * alpha)
    theta = 1.0 / alpha
    eye_a = np.eye(d_a)

    def sandwich_eigs(sg):
        ws, vs = np.linalg.eigh(sg)
        ws = np.clip(ws, 0.0, None)
        keep = ws > SUPPORT_CUTOFF * max(ws.max(), 1e-300)
        wt = np.zeros_like(ws)
        wt[keep] = ws[keep] ** s
        ss = (vs * wt) @ vs.conj().T
        big_s = np.kron(eye_a, ss)
        x = big_s @ rho_c @ big_s
        wx, vx = np.linalg.eigh(x)
        wx = np.clip(wx, 0.0, None)
        return wx, vx

    it = 0
    for it in range(cfg.max_iter):
        wx, vx = sandwich_eigs(sig)
        xa = (vx * wx ** alpha) @ vx.conj().T
        t_mat = np.trace(xa.reshape(d_a, r, d_a, r), axis1=0, axis2=2)
        t_mat = (t_mat + t_mat.conj().T) / 2
        wt, vt = np.linalg.eigh(t_mat)
        wt = np.clip(wt, 1e-300, None)
        log_t = (vt * np.log(wt)) @ vt.conj().T
        ws, vs = np.linalg.eigh(sig)
        ws = np.clip(ws, 1e-300, None)
        log_s = (vs * np.log(ws)) @ vs.conj().T
        h = theta * log_t + (1.0 - theta) * log_s
        h = (h + h.conj().T) / 2
        wh, vh = np.linalg.eigh(h)
        e = np.exp(wh - wh.max())
        new = (vh * (e / e.sum())) @ vh.conj().T
        delta = float(np.abs(new - sig).max())
        sig = new
        if delta < cfg.tol:
            break
    else:
        wx, _ = sandwich_eigs(sig)
        best = -(math.log2(max(float((wx ** alpha).sum()), 1e-300))) / (alpha - 1.0)
        raise NoConvergenceError(
            f"H_up solver did not reach {cfg.tol} in {cfg.max_iter} iterations",
            best_value=best, gap=delta)
    wx, _ = sandwich_eigs(sig)
    val = -(math.log2(float((wx ** alpha).sum()))) / (alpha - 1.0)
    sigma_full = v_sup @ sig @ v_sup.conj().T
    return val, sigma_full, it + 1


def h_up(state, a_names, alpha: float, cfg: UpConfig | None = None) -> float:
    """Fully optimized conditional Renyi entropy H_up_alpha(A | rest)."""
    alpha = check_alpha(alpha)
    if isinstance(state, DensityOperator):
        a_idx = state.indices_of(a_names)
        cond = tuple(i for i in range(len(state.dims)) if i not in a_idx)
        if not cond:
            return renyi_entropy(state, alpha)
        perm = state.permute(tuple(a_idx) + cond)
        d_a = int(np.prod([state.dims[i] for i in a_idx]))
        d_b = state.dim() // d_a
        val, _, _ = h_up_dense(perm.matrix, d_a, d_b, alpha, cfg)
        return val
    a_names, cond = _split(state, a_names)
    ccl = [n for n in cond if state.reg(n).is_classical]
    if ccl:
        terms = []
        for _, pc, sub in state.group_by(ccl):
            if pc <= 0.0:
                continue
            terms.append((pc, h_up(sub, a_names, alpha, cfg)))
        m = max(((1.0 - alpha) / alpha) * t for _, t in terms)
        tot = sum(pc * 2.0 ** (((1.0 - alpha) / alpha) * t - m) for pc, t in terms)
        return (alpha / (1.0 - alpha)) * (m + math.log2(tot))
    cq_names = [n for n in cond if not state.reg(n).is_classical]
    dense = state.to_density()
    if not cq_names:
        return renyi_entropy(dense, alpha)
    order = [n for n in state.names if n in a_names] + cq_names
    perm = dense.permute_labels(order)
    d_a = int(np.prod([state.reg(n).size for n in state.names if n in a_names]))
    d_b = perm.dim() // d_a
    val, _, _ = h_up_dense(perm.matrix, d_a, d_b, alpha, cfg)
    return val


def h_classical(p, alpha: float, variant: str) -> float:
    """Exact classical conditional entropies; axis 0 of p is A, axis 1 is B."""
    alpha = check_alpha(alpha)
    p = np.asarray(p, dtype=float)
    if p.ndim == 1:
        p = p.reshape(-1, 1)
    if p.ndim != 2:
        p = p.reshape(p.shape[0], -1)
    pb = p.sum(axis=0)
    if variant == "down":
        tot = sum(pb[b] * ((p[:, b] / pb[b]) ** alpha).sum()
                  for b in range(p.shape[1]) if pb[b] > 0)
        return math.log2(tot) / (1.0 - alpha)
    if variant == "up":
        tot = sum(pb[b] * (((p[:, b] / pb[b]) ** alpha).sum()) ** (1.0 / alpha)
                  for b in range(p.shape[1]) if pb[b] > 0)
        return (alpha / (1.0 - alpha)) * math.log2(tot)
    raise BadPartitionError(f"variant must be 'up' or 'down', got {variant!r}")


def _per_b_down(state: CqState, a_names, up_name: str, alpha: float):
    reg = state.reg(up_name)
    if not reg.is_classical:
        raise BNotClassicalError(f"register {up_name!r} must be classical")
    if up_name in set(a_names):
        raise BadPartitionError("optimized register cannot sit inside A")
    out = []
    for combo, pb, sub in state.group_by([up_name]):
        if pb <= 0.0:
            continue
        rest = [n for n in sub.names if n not in set(a_names)]
        if rest:
            t = h_down(sub, a_names, alpha)
        else:
            t = renyi_entropy(sub.to_density(), alpha)
        out.append((combo[0], pb, t))
    return out


def h_partial(state: CqState, a_names, up_name: str, alpha: float) -> float:
    """Partially optimized conditional entropy H_alpha(A | B^up C^down).

    ``up_name`` is the classical register whose distribution is optimized;
    every other non-A register is side information with fixed per-symbol
    states.
    """
    alpha = check_alpha(alpha)
    per_b = _per_b_down(state, a_names, up_name, alpha)
    k = (1.0 - alpha) / alpha
    m = max(k * t for _, _, t in per_b)
    tot = sum(pb * 2.0 ** (k * t - m) for _, pb, t in per_b)
    return (alpha / (1.0 - alpha)) * (m + math.log2(tot))


def optimal_q(r, alpha: float) -> np.ndarray:
    """Minimizer of sum_b q_b^(1-alpha) r_b over the simplex: q* ~ r^(1/alpha)."""
    alpha = check_alpha(alpha)
    r = np.asarray(r, dtype=float)
    if np.all(r <= 0.0):
        raise AllZeroError("weight vector is identically zero")
    q = np.where(r > 0, r, 0.0) ** (1.0 / alpha)
    return q / q.sum()


def h_partial_variational(state: CqState, a_names, up_name: str, alpha: float,
                          resolution: int = 200) -> float:
    """Grid/analytic supremum of -D_alpha(rho || I_A x sigma) over q_B.

    Independent oracle for :func:`h_partial`: evaluates the divergence at
    every grid distribution on the optimized register (plus the analytic
    optimizer), using the block decomposition with weights q.
    """
    alpha = check_alpha(alpha)
    per_b = _per_b_down(state, a_names, up_name, alpha)
    symbols = [s for s, _, _ in per_b]
    pb = np.array([p for _, p, _ in per_b])
    hb = np.array([t for _, _, t in per_b])
    # log2 r_b = alpha log2 p_b + (1 - alpha) h_b; the objective diverges to
    # -inf whenever some q_b vanishes, so the supremum sits in the interior
    # and boundary grid points can be dropped.
    log_r = alpha * np.log2(pb) + (1.0 - alpha) * hb
    grid = simplex_grid(len(symbols), resolution)
    grid = grid[(grid > 0).all(axis=1)]
    qs = [grid, optimal_q(2.0 ** (log_r - log_r.max()), alpha).reshape(1, -1)]
    best = -INF
    for batch in qs:
        if batch.size == 0:
            continue
        expo = (1.0 - alpha) * np.log2(batch) + log_r  # per (point, b)
        m = expo.max(axis=1, keepdims=True)
        tot = (2.0 ** (expo - m)).sum(axis=1)
        vals = (m[:, 0] + np.log2(tot)) / (1.0 - alpha)
        best = max(best, float(vals.max()))
    return best


def renyi_entropy(x, alpha: float) -> float:
    """Unconditional Renyi entropy of a distribution or density operator."""
    alpha = check_alpha(alpha)
    if isinstance(x, DensityOperator):
        w = np.clip(eigvalsh_desc(x.matrix), 0.0, None)
    else:
        arr = np.asarray(x)
        if arr.ndim == 1:
            w = np.asarray(arr, dtype=float)
        else:
            w = np.clip(eigvalsh_desc(arr), 0.0, None)
    tot = float((w[w > 0] ** alpha).sum())
    return math.log2(tot) / (1.0 - alpha)


def von_neumann(x) -> float:
    """H(rho) = -tr rho log2 rho (or Shannon entropy of a distribution)."""
    if isinstance(x, DensityOperator):
        w = np.clip(eigvalsh_desc(x.matrix), 0.0, None)
    else:
        arr = np.asarray(x)
        w = np.asarray(arr, dtype=float) if arr.ndim == 1 else np.clip(
            eigvalsh_desc(arr), 0.0, None)
    w = w[w > 1e-18]
    return float(-(w * np.log2(w)).sum())


def conditional_von_neumann(state, a_names) -> float:
    """H(A | rest) = H(full) - H(rest)."""
    rho = state.to_density() if isinstance(state, CqState) else state
    cond = [n for n in rho.labels if n not in set(a_names)]
    h_all = von_neumann(rho)
    if not cond:
        return h_all
    return h_all - von_neumann(rho.partial_trace_labels(cond))


def cond_mutual_info(rho: DensityOperator, a_names, b_names, c_names) -> float:
    """I(A:B|C) = H(AC) + H(BC) - H(ABC) - H(C)."""
    a, b, c = list(a_names), list(b_names), list(c_names)
    for group in (a, b, c):
        for n in group:
            rho.index_of(n)
    if set(a) & set(b) or set(a) & set(c) or set(b) & set(c):
        raise BadPartitionError("partition groups overlap")
    h_ac = von_neumann(rho.partial_trace_labels(a + c))
    h_bc = von_neumann(rho.partial_trace_labels(b + c))
    h_abc = von_neumann(rho.partial_trace_labels(a + b + c))
    h_c = von_neumann(rho.partial_trace_labels(c)) if c else 0.0
    return h_ac + h_bc - h_abc - h_c


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


def _divergence_vs_ref(sub: CqState, a_names, ref_mat: np.ndarray,
                       ref_names, alpha: float) -> float:
    """D_alpha(sub || I_A x ref) with ref given densely on the named registers."""
    dense = sub.to_density()
    pos = dense.indices_of(ref_names)
    ref = embed(ref_mat, dense.dims, pos)
    return _divergence_dense(dense.matrix, ref, alpha)


def f_weighted(state: CqState, a_names, c_name: str, sigma, f,
               alpha: float) -> float:
    """f-weighted Renyi entropy H^f_alpha(A C | B) against a fixed sigma_B.

    ``sigma`` is a state on the conditioning registers (everything outside A
    and the classical register ``c_name``), given densely in register order.
    Returns +inf when supp(rho_B) is not contained in supp(sigma_B).
    """
    alpha = check_alpha(alpha)
    c_reg = state.reg(c_name)
    if not c_reg.is_classical:
        raise BNotClassicalError(f"register {c_name!r} must be classical")
    a_set = set(a_names)
    b_names = [n for n in state.names if n not in a_set and n != c_name]
    f_arr = _f_vector(f, c_reg.alphabet)
    sig = _as_mat(sigma)
    rho_b = state.marginal(b_names).to_density().matrix if b_names else np.ones((1, 1))
    if not support_contained(rho_b, sig):
        return INF
    terms = []
    for i, (combo, pc, sub) in enumerate(state.group_by([c_name])):
        if pc <= 0.0:
            continue
        d = _divergence_vs_ref(sub, a_names, sig, b_names, alpha)
        if d == INF:
            return INF
        terms.append(alpha * math.log2(pc) + (alpha - 1.0) * (f_arr[i] + d))
    m = max(terms)
    tot = sum(2.0 ** (t - m) for t in terms)
    return (m + math.log2(tot)) / (1.0 - alpha)


def f_weighted_sup_qb(state: CqState, a_names, c_name: str, b_name: str, f,
                      alpha: float) -> float:
    """Closed form of sup_{q_B} H^f_alpha(AC|BE) for classical B and C.

    Per symbol b, the inner sum runs over c with weights p(c|b)^alpha and the
    divergences are taken against the b-conditional marginal on E.
    """
    alpha = check_alpha(alpha)
    for n, label in ((c_name, "C"), (b_name, "B")):
        if not state.reg(n).is_classical:
            raise BNotClassicalError(f"register {n!r} ({label}) must be classical")
    a_set = set(a_names)
    f_arr = _f_vector(f, state.alphabet(c_name))
    e_names = [n for n in state.names
               if n not in a_set and n not in (c_name, b_name)]
    outer = []
    for _, pb, sub_b in state.group_by([b_name]):
        if pb <= 0.0:
            continue
        rho_e = (sub_b.marginal(e_names).to_density().matrix
                 if e_names else np.ones((1, 1)))
        inner = []
        for i, (combo, pcb, sub_cb) in enumerate(sub_b.group_by([c_name])):
            if pcb <= 0.0:
                continue
            d = _divergence_vs_ref(sub_cb, a_names, rho_e, e_names, alpha)
            if d == INF:
                return -INF
            inner.append(alpha * math.log2(pcb) + (alpha - 1.0) * (d + f_arr[i]))
        mi = max(inner)
        li = mi + math.log2(sum(2.0 ** (t - mi) for t in inner))
        outer.append(math.log2(pb) + li / alpha)
    mo = max(outer)
    lo = mo + math.log2(sum(2.0 ** (t - mo) for t in outer))
    return (alpha / (1.0 - alpha)) * lo


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

