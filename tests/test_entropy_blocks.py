"""The stacked block path of the cq entropies against per-outcome references.

The references below are the per-outcome implementations the block path
replaced: they walk the classical outcomes with ``group_by`` and take one
dense divergence per block, or one run of the unstacked H_up fixed point
(Kronecker embeddings, five eigendecompositions per iteration) per block.
Both sides must agree to 1e-12 on seeded states with classical and quantum
A, classical-only, quantum-only and mixed conditioning, a zero and a
sub-WEIGHT_TOL weight, a support violation and ``strategy_to_cq`` states.
The stacked H_up kernel must also match its own lone calls row by row, and
its Frank-Wolfe upper bound must bracket the value; the stacked
generation-round entropy ``h_partial_stack`` must match ``h_partial`` of
each row's state.
"""

import math

import numpy as np
import pytest

from renyiacc import entropy as ent
from renyiacc.channel import TwoQubitStrategy, strategy_to_cq
from renyiacc.errors import NoConvergenceError, NotHermitianError, NotPSDError
from renyiacc.qcore import (
    CqState,
    creg,
    eigvalsh_desc,
    embed,
    qreg,
    random_cq,
    random_density,
    random_distribution,
    rng_from,
)
from renyiacc.qcore.linalg import _eigh
from qcore_reference import permute_labels

TOL = 1e-12
ALPHAS = (1.1, 1.5, 2.0, 3.0)
INF = math.inf


# ---------------------------------------------------------------------------
# per-outcome references
# ---------------------------------------------------------------------------

def ref_support_power(rho, sigma, t):
    """sigma^t on supp(sigma), or None when rho leaks out of that support."""
    ws, vs = _eigh(sigma)
    ws, vs = ws[::-1], vs[:, ::-1]  # descending
    if ws[-1] < -1e-8:
        raise NotPSDError("negative reference")
    ws = np.clip(ws, 0.0, None)
    on = ws > 1e-12 * max(ws[0], 1e-300)
    pi = vs[:, on] @ vs[:, on].conj().T
    tr = float(np.trace(rho).real)
    if tr - float(np.trace(pi @ rho @ pi).real) > 1e-10 * max(tr, 1.0):
        return None
    wt = np.zeros_like(ws)
    wt[on] = ws[on] ** t
    return (vs * wt) @ vs.conj().T


def ref_divergence_dense(rho, sigma, alpha):
    tr = float(np.trace(rho).real)
    if tr <= 0.0:
        raise NotPSDError("rho has nonpositive trace")
    ss = ref_support_power(rho, sigma, (1.0 - alpha) / (2.0 * alpha))
    if ss is None:
        return INF
    w = eigvalsh_desc(ss @ rho @ ss)
    if w[-1] < -1e-6 * max(tr, 1.0):
        raise NotPSDError("negative sandwich")
    val = float((np.clip(w, 0.0, None) ** alpha).sum())
    if val <= 0.0:
        return INF
    return (math.log2(val) - math.log2(tr)) / (alpha - 1.0)


def ref_blocks_divergence(p, rho_blocks, q, sig_blocks, alpha):
    terms = []
    for pc, rb, qc, sb in zip(p, rho_blocks, q, sig_blocks):
        if pc <= 0.0:
            continue
        if qc <= 0.0:
            return INF
        d = ref_divergence_dense(rb, sb, alpha)
        if d == INF:
            return INF
        terms.append(math.log2(pc) * alpha + (1.0 - alpha) * math.log2(qc)
                     + (alpha - 1.0) * d)
    m = max(terms)
    return (m + math.log2(sum(2.0 ** (t - m) for t in terms))) / (alpha - 1.0)


def ref_h_down(state, a_names, alpha):
    a_names = set(a_names)
    cond = [n for n in state.names if n not in a_names]
    ccl = [n for n in cond if state.reg(n).is_classical]
    if not ccl:
        cq_names = [n for n in state.quantum_names if n not in a_names]
        if cq_names:
            ref = embed(state.marginal(cq_names).conds, state.qdims,
                        [state.quantum_names.index(n) for n in cq_names])
        else:
            ref = np.eye(state.qdim, dtype=complex)
        p = state.weights.reshape(-1)
        blocks = state.conds.reshape(-1, state.qdim, state.qdim)
        return -ref_blocks_divergence(p, blocks, [1.0] * len(p),
                                      [ref] * len(p), alpha)
    terms = []
    for _, pc, sub in state.group_by(ccl):
        if pc <= 0.0:
            continue
        t = ref_h_down(sub, a_names, alpha)
        if t == -INF:
            return -INF
        terms.append((pc, t))
    m = max((1.0 - alpha) * t for _, t in terms)
    tot = sum(pc * 2.0 ** ((1.0 - alpha) * t - m) for pc, t in terms)
    return (m + math.log2(tot)) / (1.0 - alpha)


def ref_per_b_down(state, a_names, up_name, alpha):
    out = []
    for _, pb, sub in state.group_by([up_name]):
        if pb <= 0.0:
            continue
        if [n for n in sub.names if n not in set(a_names)]:
            t = ref_h_down(sub, a_names, alpha)
        else:
            t = ent.renyi_entropy(sub.to_density(), alpha)
        out.append((pb, t))
    return out


def ref_h_partial(state, a_names, up_name, alpha):
    per_b = ref_per_b_down(state, a_names, up_name, alpha)
    k = (1.0 - alpha) / alpha
    m = max(k * t for _, t in per_b)
    tot = sum(pb * 2.0 ** (k * t - m) for pb, t in per_b)
    return (alpha / (1.0 - alpha)) * (m + math.log2(tot))


def ref_h_up(state, a_names, alpha):
    a_names = set(a_names)
    cond = [n for n in state.names if n not in a_names]
    ccl = [n for n in cond if state.reg(n).is_classical]
    if ccl:
        terms = [(pc, ref_h_up(sub, a_names, alpha))
                 for _, pc, sub in state.group_by(ccl) if pc > 0.0]
        k = (1.0 - alpha) / alpha
        m = max(k * t for _, t in terms)
        tot = sum(pc * 2.0 ** (k * t - m) for pc, t in terms)
        return (alpha / (1.0 - alpha)) * (m + math.log2(tot))
    cq_names = [n for n in cond if not state.reg(n).is_classical]
    dense = state.to_density()
    if not cq_names:
        return ent.renyi_entropy(dense, alpha)
    order = [n for n in state.names if n in a_names] + cq_names
    perm = permute_labels(dense, order)
    d_a = int(np.prod([state.reg(n).size for n in state.names if n in a_names]))
    return ref_h_up_dense(perm.matrix, d_a, perm.qdim // d_a, alpha)[0]


def ref_h_up_dense(rho, d_a, d_b, alpha, tol=1e-10, max_iter=10000):
    """(value, iterations) of the H_up fixed point on one dense state, with
    Kronecker embeddings and a fresh eigendecomposition of every matrix."""
    w_b, v_b = _eigh(np.trace(rho.reshape(d_a, d_b, d_a, d_b),
                              axis1=0, axis2=2))
    w_b, v_b = w_b[::-1], v_b[:, ::-1]  # descending
    w_b = np.clip(w_b, 0.0, None)
    on = w_b > 1e-12 * max(w_b[0], 1e-300)
    r = int(on.sum())
    big = np.kron(np.eye(d_a), v_b[:, on])
    rho_c = big.conj().T @ rho @ big
    sig = np.diag(w_b[on] / w_b[on].sum()).astype(complex)
    s = (1.0 - alpha) / (2.0 * alpha)

    def sandwich_eigs(sg):
        ws, vs = np.linalg.eigh(sg)
        ws = np.clip(ws, 0.0, None)
        keep = ws > 1e-12 * max(ws.max(), 1e-300)
        wt = np.zeros_like(ws)
        wt[keep] = ws[keep] ** s
        big_s = np.kron(np.eye(d_a), (vs * wt) @ vs.conj().T)
        wx, vx = np.linalg.eigh(big_s @ rho_c @ big_s)
        return np.clip(wx, 0.0, None), vx

    def log_m(m, floor):
        w, v = np.linalg.eigh(m)
        return (v * np.log(np.clip(w, floor, None))) @ v.conj().T

    for it in range(max_iter):
        wx, vx = sandwich_eigs(sig)
        xa = (vx * wx ** alpha) @ vx.conj().T
        t_mat = np.trace(xa.reshape(d_a, r, d_a, r), axis1=0, axis2=2)
        h = (log_m((t_mat + t_mat.conj().T) / 2, 1e-300) / alpha
             + (1.0 - 1.0 / alpha) * log_m(sig, 1e-300))
        wh, vh = np.linalg.eigh((h + h.conj().T) / 2)
        e = np.exp(wh - wh.max())
        new = (vh * (e / e.sum())) @ vh.conj().T
        delta = float(np.abs(new - sig).max())
        sig = new
        if delta < tol:
            break
    wx, _ = sandwich_eigs(sig)
    return -math.log2(float((wx ** alpha).sum())) / (alpha - 1.0), it + 1


def ref_max_divergence(rho, sigma):
    if isinstance(rho, CqState):
        worst = -INF
        for (_, _, pc, r), (_, _, qc, s) in zip(rho.outcomes(), sigma.outcomes()):
            if pc <= 0.0:
                continue
            if qc <= 0.0:
                return INF
            d = ref_max_divergence(r, s)
            if d == INF:
                return INF
            worst = max(worst, math.log2(pc / qc) + d)
        return worst
    inv = ref_support_power(rho, sigma, -0.5)
    if inv is None:
        return INF
    top = float(eigvalsh_desc(inv @ rho @ inv)[0])
    return math.log2(top) if top > 0.0 else -INF


def ref_divergence_vs_ref(sub, ref_mat, ref_names, alpha):
    dense = sub.to_density()
    ref = embed(ref_mat, dense.dims, dense.indices_of(ref_names))
    return ref_divergence_dense(dense.matrix, ref, alpha)


def ref_f_weighted_sup_qb(state, a_names, c_name, b_name, f, alpha):
    e_names = [n for n in state.names
               if n not in set(a_names) and n not in (c_name, b_name)]
    outer = []
    for _, pb, sub_b in state.group_by([b_name]):
        if pb <= 0.0:
            continue
        rho_e = (sub_b.marginal(e_names).to_density().matrix
                 if e_names else np.ones((1, 1)))
        inner = []
        for i, (_, pcb, sub_cb) in enumerate(sub_b.group_by([c_name])):
            if pcb <= 0.0:
                continue
            d = ref_divergence_vs_ref(sub_cb, rho_e, e_names, alpha)
            if d == INF:
                return -INF
            inner.append(alpha * math.log2(pcb) + (alpha - 1.0) * (d + f[i]))
        mi = max(inner)
        li = mi + math.log2(sum(2.0 ** (t - mi) for t in inner))
        outer.append(math.log2(pb) + li / alpha)
    mo = max(outer)
    return (alpha / (1.0 - alpha)) * (
        mo + math.log2(sum(2.0 ** (t - mo) for t in outer)))


def ref_h_classical(p, alpha, variant):
    pb = p.sum(axis=0)
    cols = [b for b in range(p.shape[1]) if pb[b] > 0]
    if variant == "down":
        tot = sum(pb[b] * ((p[:, b] / pb[b]) ** alpha).sum() for b in cols)
        return math.log2(tot) / (1.0 - alpha)
    tot = sum(pb[b] * (((p[:, b] / pb[b]) ** alpha).sum()) ** (1.0 / alpha)
              for b in cols)
    return (alpha / (1.0 - alpha)) * math.log2(tot)


# ---------------------------------------------------------------------------
# seeded states
# ---------------------------------------------------------------------------

def masked(st: CqState) -> CqState:
    """The same state with one weight 0 and one below WEIGHT_TOL."""
    w = st.weights.copy().reshape(-1)
    w[0] = 0.0
    w[-1] = 1e-13
    return CqState(st.regs, (w / w.sum()).reshape(st.weights.shape), st.conds)


def interleaved(seed) -> CqState:
    """A = {Q (quantum), X (classical)}; conditioning B, D classical, C quantum."""
    rng = rng_from((71, seed))
    regs = [qreg("Q", 2), creg("X", (0, 1)), creg("B", (0, 1, 2)), qreg("C", 2),
            creg("D", (0, 1))]
    w = random_distribution(12, rng).reshape(2, 3, 2)
    conds = np.stack([random_density((2, 2), rng).matrix for _ in range(12)])
    return CqState(regs, w, conds.reshape(2, 3, 2, 4, 4))


def strategy_state(seed) -> CqState:
    rng = rng_from((72, seed))
    params = rng.uniform(0.0, math.pi, size=5)
    s = TwoQubitStrategy.from_params(params, 2, 2)
    return strategy_to_cq(s, random_distribution(4, rng))


def b_states():
    """(state, A names) pairs with a classical register B outside A."""
    out = []
    for seed in range(3):
        rng = rng_from((70, seed))
        quantum_a = random_cq((3,), (2, 3), rng, names=["B"], qnames=["A", "C"])
        classical = random_cq((3, 2, 3), (), rng, names=["B", "C", "A"],
                              qnames=[])
        mixed = interleaved(seed)
        for st, a in ((quantum_a, ["A"]), (classical, ["A"]),
                      (mixed, ["Q", "X"]), (strategy_state(seed), ["A"])):
            out += [(st, a), (masked(st), a)]
    return out


def quantum_only_states():
    """No classical register in the conditioning."""
    out = []
    for seed in range(3):
        rng = rng_from((73, seed))
        out.append((random_cq((), (2, 3), rng, qnames=["A", "C"]), ["A"]))
        out.append((random_cq((3,), (2, 2), rng, names=["X"],
                              qnames=["A", "C"]), ["A", "X"]))
    return out


B_STATES = b_states()
Q_STATES = quantum_only_states()


def close(x, y):
    return x == y or abs(x - y) <= TOL


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("k", range(len(B_STATES)))
def test_down_partial_up_match_references(k, alpha):
    st, a = B_STATES[k]
    assert close(ent.h_down(st, a, alpha), ref_h_down(st, a, alpha))
    _, _, pb, hb = ent._down_partial(st, a, "B", (alpha,))[0]
    ref = ref_per_b_down(st, a, "B", alpha)
    assert len(pb) == len(ref)
    for p_new, h_new, (p_ref, h_ref) in zip(pb, hb, ref):
        assert close(p_new, p_ref) and close(h_new, h_ref)
    assert close(ent.h_partial(st, a, "B", alpha),
                 ref_h_partial(st, a, "B", alpha))
    assert close(ent.h_up(st, a, alpha), ref_h_up(st, a, alpha))


@pytest.mark.parametrize("alpha", (1.5, 3.0))
@pytest.mark.parametrize("k", range(len(Q_STATES)))
def test_quantum_only_conditioning_matches_references(k, alpha):
    st, a = Q_STATES[k]
    assert close(ent.h_down(st, a, alpha), ref_h_down(st, a, alpha))
    assert close(ent.h_up(st, a, alpha), ref_h_up(st, a, alpha))


def support_violating_state() -> CqState:
    # given B = 0, the block of X = 1 (weight 1e-13, below WEIGHT_TOL relative
    # to p(B = 0)) lives on |1><1|_C, outside the conditional marginal |0><0|_C
    regs = [creg("X", (0, 1)), creg("B", (0, 1)), qreg("C", 2)]
    w = np.array([[0.5, 0.25], [1e-13, 0.25]])
    conds = np.empty((2, 2, 2, 2), dtype=complex)
    conds[0, 0] = np.diag([1.0, 0.0])
    conds[1, 0] = np.diag([0.0, 1.0])
    conds[:, 1] = np.eye(2) / 2
    return CqState(regs, w / w.sum(), conds)


def test_support_violation_is_infinite_on_both_sides():
    st = support_violating_state()
    for alpha in ALPHAS:
        assert ent.h_down(st, ["X"], alpha) == ref_h_down(st, ["X"], alpha) == -INF
        _, _, pb, hb = ent._down_partial(st, ["X"], "B", (alpha,))[0]
        ref = ref_per_b_down(st, ["X"], "B", alpha)
        assert hb[0] == ref[0][1] == -INF
        assert close(hb[1], ref[1][1])
        # the per-outcome sum gave nan here; the optimum is -inf
        assert ent.h_partial(st, ["X"], "B", alpha) == -INF


@pytest.mark.parametrize("outputs", ("alice", "pair"))
@pytest.mark.parametrize("rank", (1, 2, 4))
def test_h_partial_stack_rows_match_h_partial(rank, outputs):
    # stacked rows of strategy states of one Eve dimension, with a setting
    # of zero weight, against h_partial of each state built by strategy_to_cq
    rng = rng_from((75, rank))
    strategies = [TwoQubitStrategy(random_density((2, 2), rng, rank=rank),
                                   tuple(map(tuple, rng.uniform(-3, 3, (2, 2)))),
                                   tuple(map(tuple, rng.uniform(-3, 3, (2, 2)))))
                  for _ in range(3)]
    p_b = np.array([0.5, 0.0, 0.2, 0.3])
    tables = [s.response_table(s.setting_labels("pairs"), outputs=outputs)
              for s in strategies]
    w = np.stack([p_b * t.p for t in tables])
    conds = np.stack([t.cond for t in tables])
    for alpha in ALPHAS:
        got = ent.h_partial_stack(w, conds, alpha)
        assert got.shape == (3,)
        for s, h in zip(strategies, got):
            st = strategy_to_cq(s, p_b, outputs=outputs)
            assert close(h, ent.h_partial(st, ["A"], "B", alpha))


@pytest.mark.parametrize("seed", range(4))
def test_h_partial_stack_scalar_blocks_match_h_partial(seed):
    # Eve's blocks 1x1 (the closed form), with scalars other than 1, a zero
    # weight whose block is negative, and a setting b = 1 of zero weight
    rng = rng_from((77, seed))
    w = rng.dirichlet(np.ones(8), size=5).reshape(5, 2, 4)
    w[:, :, 1] = 0.0
    w[:, 0, 2] = 0.0
    w /= w.sum(axis=(1, 2), keepdims=True)
    c = rng.uniform(0.05, 3.0, size=(5, 2, 4)) + 0j
    c[:, 0, 2] = -1.0
    regs = [creg("A", (0, 1)), creg("B", (0, 1, 2, 3)), qreg("E", 1)]
    for alpha in ALPHAS:
        got = ent.h_partial_stack(w, c[..., None, None], alpha)
        for wi, ci, h in zip(w, c, got):
            st = CqState(regs, wi, ci[..., None, None])
            assert abs(h - ent.h_partial(st, ["A"], "B", alpha)) <= 1e-14


def test_h_partial_stack_scalar_blocks_are_checked():
    w = np.full((1, 2, 2), 0.25)
    c = np.ones((1, 2, 2, 1, 1), dtype=complex)
    c[0, 1, 0] = 1.0 + 1.0j  # a 1x1 block with a large imaginary part
    with pytest.raises(NotHermitianError):
        ent.h_partial_stack(w, c, 2.0)
    c[0, 1, 0] = -1e-6
    with pytest.raises(NotPSDError):
        ent.h_partial_stack(w, c, 2.0)
    c[0, 1, 0] = 0.0  # PSD, but a block of positive weight with no trace
    with pytest.raises(NotPSDError):
        ent.h_partial_stack(w, c, 2.0)


def cq_pair(seed, case="plain"):
    """rho with a zero and a tiny weight; sigma full, or with a rank-one
    block under rho's full-rank one, or with a zero weight under rho's."""
    rng = rng_from((74, seed))
    rho = masked(random_cq((3,), (2,), rng, names=["C"], qnames=["Q"]))
    sig = random_cq((3,), (2,), rng, names=["C"], qnames=["Q"])
    if case == "violate":
        conds = sig.conds.copy()
        conds[1] = np.diag([1.0, 0.0])
        sig = CqState(sig.regs, sig.weights, conds)
    if case == "q_zero":
        w = sig.weights.copy()
        w[1] = 0.0
        sig = CqState(sig.regs, w / w.sum(), sig.conds)
    return rho, sig


@pytest.mark.parametrize("case", ("plain", "violate", "q_zero"))
@pytest.mark.parametrize("seed", range(4))
def test_cq_divergences_match_references(seed, case):
    rho, sig = cq_pair(seed, case)
    d_max = ent.max_divergence(rho, sig)
    assert close(d_max, ref_max_divergence(rho, sig))
    assert (d_max == INF) == (case != "plain")
    p, q = rho.weights, sig.weights
    for alpha in ALPHAS:
        d = ent.renyi_divergence(rho, sig, alpha)
        assert close(d, ref_blocks_divergence(p, rho.conds, q, sig.conds, alpha))
        assert (d == INF) == (case != "plain")


@pytest.mark.parametrize("seed", range(4))
def test_f_weighted_sup_qb_matches_reference(seed):
    rng = rng_from((75, seed))
    st = random_cq((2, 3), (2, 2), rng, names=["C", "B"], qnames=["A", "E"])
    if seed % 2:
        st = masked(st)
    f = rng.uniform(-1.0, 1.0, size=2)
    for alpha in ALPHAS:
        assert close(ent.f_weighted_sup_qb(st, ["A"], "C", "B", f, alpha),
                     ref_f_weighted_sup_qb(st, ["A"], "C", "B", f, alpha))


@pytest.mark.parametrize("seed", range(6))
def test_h_classical_matches_loops(seed):
    rng = rng_from((76, seed))
    p = random_distribution(12, rng).reshape(3, 4)
    p[:, seed % 4] = 0.0  # an empty column
    p[seed % 3, (seed + 1) % 4] = 0.0
    p = p / p.sum()
    for alpha in ALPHAS:
        for variant in ("down", "up"):
            assert close(ent.h_classical(p, alpha, variant),
                         ref_h_classical(p, alpha, variant))


# ---------------------------------------------------------------------------
# errors that move into the kernel or the entry check
# ---------------------------------------------------------------------------

NON_HERMITIAN = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)


def test_dense_divergence_rejects_non_hermitian_reference():
    with pytest.raises(NotHermitianError):
        ent.renyi_divergence(np.eye(2) / 2, NON_HERMITIAN, 2.0)


def non_hermitian_cq_pair():
    rho, sig = cq_pair(0)
    conds = sig.conds.copy()
    conds[2] = NON_HERMITIAN
    return rho, CqState(sig.regs, sig.weights, conds)


def test_cq_divergence_rejects_non_hermitian_reference():
    rho, sig = non_hermitian_cq_pair()
    with pytest.raises(NotHermitianError):
        ent.renyi_divergence(rho, sig, 2.0)


def test_cq_max_divergence_rejects_non_hermitian_reference():
    rho, sig = non_hermitian_cq_pair()
    with pytest.raises(NotHermitianError):
        ent.max_divergence(rho, sig)


def test_h_down_rejects_negative_block():
    # and so do h_partial and h_up: H_up's classical branch decomposes the
    # block through the same PSD check
    st = CqState([creg("B", (0, 1)), qreg("A", 2)], [0.5, 0.5],
                 {(0,): np.diag([1.5, -0.5]), (1,): np.eye(2) / 2})
    with pytest.raises(NotPSDError):
        ent.h_down(st, ["A"], 2.0)
    with pytest.raises(NotPSDError):
        ent.h_partial(st, ["A"], "B", 2.0)
    with pytest.raises(NotPSDError):
        ent.h_up(st, ["A"], 2.0)


# ---------------------------------------------------------------------------
# the stacked H_up kernel
# ---------------------------------------------------------------------------

def up_stack(seed, rank=None, n=5):
    """``n`` dense AC blocks (d_a = 2, d_c = 3) of one seeded cq state."""
    rng = rng_from((77, seed))
    return random_cq((n,), (2, 3), rng, names=["B"], qnames=["A", "C"],
                     rank=rank).conds


@pytest.mark.parametrize("tol", (1e-10, 1e-7))
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("seed", range(2))
def test_stacked_rows_match_lone_calls(seed, alpha, tol, monkeypatch):
    # the rows converge after different counts; one that kept iterating
    # after its own convergence would move its bound by far more than 1e-13
    monkeypatch.setattr(ent, "_UP_TOL", tol)
    stack = up_stack(seed, n=10)
    val, up, ticks = ent.h_up_dense(stack, 2, 3, alpha)
    lone = [ent.h_up_dense(m, 2, 3, alpha) for m in stack]
    assert isinstance(ticks, int)
    assert ticks == max(n for _, _, n in lone)
    assert len({n for _, _, n in lone}) > 1
    for v, u, (v1, u1, _) in zip(val, up, lone):
        assert abs(v - v1) <= 1e-13 and abs(u - u1) <= 1e-13


def mixed_rank_state(seed) -> CqState:
    """Pure blocks (rho_C of rank two out of three) between full-rank ones,
    and a zero-weight block that holds no state at all."""
    full, low = up_stack(seed), up_stack(seed, rank=1)
    conds = np.concatenate([full[:2], low[:2], full[2:3], low[2:3],
                            np.zeros((1, 6, 6))])
    w = random_distribution(7, rng_from((78, seed)))
    w[-1] = 0.0
    regs = [creg("B", tuple(range(7))), qreg("A", 2), qreg("C", 3)]
    return CqState(regs, w / w.sum(), conds)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("seed", range(3))
def test_mixed_support_ranks_share_one_stack(seed, alpha):
    st = mixed_rank_state(seed)
    assert close(ent.h_up(st, ["A"], alpha), ref_h_up(st, ["A"], alpha))
    live = st.conds[:-1]
    val, up, ticks = ent.h_up_dense(live, 2, 3, alpha)
    lone = [ent.h_up_dense(m, 2, 3, alpha) for m in live]
    assert ticks == max(n for _, _, n in lone)
    for v, u, (v1, u1, n1), m in zip(val, up, lone, live):
        ref, ref_n = ref_h_up_dense(m, 2, 3, alpha)
        assert abs(v - v1) <= 1e-13 and abs(u - u1) <= 1e-13
        assert abs(v - ref) <= TOL and n1 == ref_n
        assert v <= u <= v + 1e-8


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("seed", range(4))
def test_certificate_brackets_value_on_full_rank_states(seed, alpha):
    rng = rng_from((79, seed))
    d_a, d_b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    rho = random_density((d_a, d_b), rng).matrix
    val, up, _ = ent.h_up_dense(rho, d_a, d_b, alpha)
    assert val <= up <= val + 1e-8


@pytest.mark.parametrize("max_iter", (1, 2, 3))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_certificate_holds_when_the_loop_stops_early(alpha, max_iter,
                                                     monkeypatch):
    rho = random_density((2, 3), rng_from((80, 0))).matrix
    best, _, _ = ent.h_up_dense(rho, 2, 3, alpha)
    monkeypatch.setattr(ent, "_UP_TOL", 1e-16)
    monkeypatch.setattr(ent, "_UP_MAX_ITER", max_iter)
    with pytest.raises(NoConvergenceError) as err:
        ent.h_up_dense(rho, 2, 3, alpha)
    early, gap = err.value.best_value, err.value.gap
    assert early <= best + 1e-12
    assert early + gap >= best - 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("seed", range(4))
def test_certificate_on_rank_deficient_marginals(seed, alpha):
    # a pure AC block leaves rho_C with rank two out of three
    for m in up_stack(seed, rank=1):
        val, up, _ = ent.h_up_dense(m, 2, 3, alpha)
        assert up >= val - 1e-12
        assert abs(val - ref_h_up_dense(m, 2, 3, alpha)[0]) <= TOL


@pytest.mark.parametrize("alpha", ALPHAS)
def test_gradient_matches_central_differences(alpha):
    rng = rng_from((81, 0))
    rho = random_density((2, 3), rng).matrix
    rc = rho.reshape(1, 2, 3, 2, 3).transpose(0, 1, 3, 2, 4)
    sig = random_density((3,), rng).matrix
    step = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    step = step + step.conj().T

    def q_grad(m):
        w, v = np.linalg.eigh(m)
        q, g = ent._q_grad(rc, w[None], v[None], alpha, 1e-6)
        return q[0], v @ g[0] @ v.conj().T

    q, grad = q_grad(sig)
    h = 1e-6
    fd = (q_grad(sig + h * step)[0] - q_grad(sig - h * step)[0]) / (2 * h)
    assert abs(fd - np.trace(grad @ step).real) <= 1e-6 * abs(fd)
    # Q is homogeneous of degree 1 - alpha in sigma
    assert abs(np.trace(grad @ sig).real - (1.0 - alpha) * q) <= 1e-12 * q


def test_h_up_dense_rejects_non_hermitian_marginal():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 0.1  # rho_B picks up a one-sided off-diagonal entry
    with pytest.raises(NotHermitianError):
        ent.h_up_dense(rho, 2, 2, 2.0)
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 0] = np.nan
    with pytest.raises(NotHermitianError):
        ent.h_up_dense(rho, 2, 2, 2.0)
