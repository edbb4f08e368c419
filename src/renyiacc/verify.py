"""Seeded property harness: every inequality the entropies must satisfy,
as executable checks with reproducible failure records.

Each check draws its instances from per-index child seeds of the suite seed,
so single failures replay in isolation, and parallel or serial execution sees
identical streams. The two-round check is the accumulation oracle: it
enumerates an exact joint distribution for two spot-checking rounds under a
classical memory attack and compares the conditioned optimized entropy
against the finite-size bound assembled from certified single-round pieces.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import entropy
from .channel import (
    BOT,
    SamplingProtocol,
    build_read_and_prepare,
    score_alphabet,
)
from .counterexample import counterexample_channel_instance
from .eatrate import (
    ConstraintSet,
    _check_score_alphabet,
    finite_size_bound,
    inner_inf_v,  # not called here; bench/test_bench.py checks this binding
    inner_inf_v_batch,
)
from .entropy import _softmax
from .errors import (
    BadProbabilityError,
    BadShapeError,
    EmptyEventError,
    InfeasibleError,
)
from .optimize import concave_simplex_max, nelder_mead_batch, simplex_grid
from .qcore import (
    CqState,
    DensityOperator,
    creg,
    eigvalsh_desc,
    embed,
    matrix_power,
    qreg,
    random_cq,
    random_density,
    random_distribution,
    random_isometry,
    random_kraus_channel,
    rng_from,
    trace_distance,
)
from .qcore.serialize import _numbers, validate
from .qcore.states import _purification

DEFAULT_ALPHAS = (1.1, 1.5, 2.0, 3.0)


@dataclass
class SuiteConfig:
    seed: int = 0
    counts: dict = field(default_factory=dict)
    alphas: tuple = DEFAULT_ALPHAS


@dataclass
class PropertyReport:
    name: str
    passed: bool
    instances: int
    worst_slack: float
    tolerance: float
    failures: list
    elapsed: float

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "instances": self.instances, "worst_slack": self.worst_slack,
                "tolerance": self.tolerance, "failures": self.failures,
                "elapsed": round(self.elapsed, 3)}


@dataclass
class SuiteReport:
    seed: int
    results: list

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def as_dict(self) -> dict:
        return {"seed": self.seed, "all_passed": self.all_passed,
                "results": [r.as_dict() for r in self.results]}


def _child(seed, *tags) -> tuple:
    return (int(seed),) + tuple(int(t) for t in tags)


class _Recorder:
    """The bookkeeping of one check: child seeds, slacks and failures.

    Instance ``i`` draws from ``rng_from(_child(cfg.seed, tag, i))``. A slack
    is recorded as it is and fails when it is below ``-tol``; every failure
    record starts with the child seed of the instance that made it.
    """

    def __init__(self, cfg: SuiteConfig, key: str, tag: int, count: int,
                 tol: float, name: str | None = None):
        self.seed, self.tag, self.tol = cfg.seed, tag, tol
        self.name = name or key
        self.n = int(cfg.counts.get(key, count))
        self.instances = 0
        self.child = None
        self.worst = math.inf
        self.failures = []
        self.t0 = time.perf_counter()

    def instance(self, i: int):
        """Count instance ``i`` and return the rng of its child seed."""
        self.child = _child(self.seed, self.tag, i)
        self.instances += 1
        return rng_from(self.child)

    def stream(self):
        """Instances 0, 1, ... until ``n`` of them count."""
        i, start = 0, self.instances
        while self.instances - start < self.n:
            yield self.instance(i)
            i += 1

    def discard(self):
        """The current instance does not count."""
        self.instances -= 1

    def record(self, *slacks, failed: bool = False, **fields):
        """Record ``slacks``; on failure, the child seed and ``fields``."""
        self.worst = min((self.worst, *slacks))
        if failed or any(s < -self.tol for s in slacks):
            self.failures.append({"seed": self.child, **fields})

    def report(self) -> PropertyReport:
        return PropertyReport(
            name=self.name, passed=not self.failures,
            instances=self.instances, worst_slack=self.worst,
            tolerance=self.tol, failures=self.failures,
            elapsed=time.perf_counter() - self.t0)


# ---------------------------------------------------------------------------
# ordering sandwich
# ---------------------------------------------------------------------------

def check_ordering(cfg: SuiteConfig, h_down_fn=None, h_partial_fn=None,
                   h_up_fn=None) -> PropertyReport:
    """H_down <= H_partial <= H_up on seeded random cq states.

    Each state is scored at all orders in one call per entropy: H_down and
    H_partial read from one set of block terms per order, H_up from one
    stacked ``h_up_dense`` call. The entropy callables are injectable, each
    mapped over the orders, so a broken implementation can be shown to trip
    the check (mutation sanity).
    """
    rec = _Recorder(cfg, "ordering", 1, 120, 1e-9)
    for i, rng in enumerate(rec.stream()):
        nb = int(rng.integers(2, 5))
        da = int(rng.integers(2, 5))
        dc = int(rng.integers(2, 5))
        if i % 3 == 2:
            # fully classical side information exercises the closed forms
            st = random_cq((nb, dc, da), (), rng, names=["B", "C", "A"],
                           qnames=[])
        else:
            st = random_cq((nb,), (da, dc), rng, names=["B"],
                           qnames=["A", "C"])
        down = entropy._down_partial(st, ["A"], "B", cfg.alphas)
        up = None if h_up_fn else entropy._h_up(st, ["A"], cfg.alphas)
        for j, alpha in enumerate(cfg.alphas):
            hd = h_down_fn(st, ["A"], alpha) if h_down_fn else down[j][0]
            hp = h_partial_fn(st, ["A"], "B", alpha) if h_partial_fn else down[j][1]
            hu = h_up_fn(st, ["A"], alpha) if h_up_fn else up[j]
            rec.record(hp - hd, hu - hp, alpha=alpha, h_down=hd,
                       h_partial=hp, h_up=hu)
    return rec.report()


# ---------------------------------------------------------------------------
# partial-entropy properties (data processing, consistency, subadditivity)
# ---------------------------------------------------------------------------

def check_partial_entropy_props(cfg: SuiteConfig) -> PropertyReport:
    rec = _Recorder(cfg, "partial_props", 2, 40, 1e-9)
    for rng in rec.stream():
        alpha = float(rng.choice(cfg.alphas))
        nb = int(rng.integers(2, 4))
        da, dc = int(rng.integers(2, 4)), int(rng.integers(2, 4))

        # (i) product structure reduces to the plain entropies
        p_b = random_distribution(nb, rng)
        rho_c = random_density((dc,), rng).matrix
        conds = {(j,): np.kron(random_density((da,), rng).matrix, rho_c)
                 for j in range(nb)}
        regs = [creg("B", tuple(range(nb))), qreg("A", da), qreg("C", dc)]
        st = CqState(regs, p_b, conds)
        gap_up = entropy.h_partial(st, ["A"], "B", alpha) - \
            entropy.h_up(st.marginal(["A", "B"]), ["A"], alpha)
        rho_ac = random_density((da, dc), rng).matrix
        st2 = CqState(regs, p_b, {(j,): rho_ac for j in range(nb)})
        gap_down = entropy.h_partial(st2, ["A"], "B", alpha) - \
            entropy.h_down(DensityOperator(rho_ac, (da, dc), ("A", "C")),
                           ["A"], alpha)
        for g, tag in ((gap_up, "consistency-up"), (gap_down, "consistency-down")):
            rec.record(-abs(g), check=tag, gap=g)

        # (ii) data processing / isometric invariance on C
        st3 = random_cq((nb,), (da, dc), rng, names=["B"], qnames=["A", "C"])
        before = entropy.h_partial(st3, ["A"], "B", alpha)
        kraus = random_kraus_channel(dc, dc, 2, rng)
        after = entropy.h_partial(st3.apply_quantum_channel(kraus, "C"),
                                  ["A"], "B", alpha)
        rec.record(after - before, check="data-processing", before=before,
                   after=after)
        iso = random_isometry(dc, dc + 1, rng)
        inv = entropy.h_partial(st3.apply_quantum_channel([iso], "C"),
                                ["A"], "B", alpha) - before
        rec.record(-abs(inv), check="isometry", gap=inv)

        # (iii) classical D register: monotonicity and subadditivity
        nd = int(rng.integers(2, 4))
        st4 = random_cq((nb, nd), (da, dc), rng, names=["B", "D"],
                        qnames=["A", "C"])
        mid = entropy.h_partial(st4.marginal(["A", "B", "C"]), ["A"], "B", alpha)
        left = entropy.h_partial(st4, ["A", "D"], "B", alpha)
        right = entropy.h_partial(st4, ["A"], "B", alpha)
        for s, tag in ((left - mid, "AD-monotone"), (mid - right, "subadditive")):
            rec.record(s, check=tag, slack=s)
    return rec.report()


# ---------------------------------------------------------------------------
# chain rules
# ---------------------------------------------------------------------------

def _classical_h(joint: np.ndarray, a_axes, b_axes, alpha: float,
                 variant: str) -> float:
    """``h_classical`` of a joint array, with A on ``a_axes`` and B on ``b_axes``."""
    p = joint.transpose(tuple(a_axes) + tuple(b_axes))
    na = int(np.prod(p.shape[:len(a_axes)], initial=1))
    return entropy.h_classical(p.reshape(na, -1), alpha, variant)


def chain_rule_gap(omega: np.ndarray, p_b2: np.ndarray,
                        kernel: np.ndarray, alpha: float):
    """Slack of the tightened chain rule on one fully classical instance.

    ``omega[a1, b1, r]`` is the input joint, ``kernel[a2, r, b2]`` the round-two
    response. The partial-entropy infimum over inputs reduces exactly to a
    concave maximization over distributions on the memory (orthogonal
    side-information copies are optimal and the channel pinches its input),
    solved with a refinement certificate.
    """
    n_r = omega.shape[2]
    joint = np.einsum("abr,s,zrs->abzs", omega, p_b2, kernel)
    lhs = _classical_h(joint, (0, 2), (1, 3), alpha, "up")
    first = _classical_h(omega.sum(axis=2)[:, :, None], (0,), (1, 2), alpha,
                         "up")
    s_eb = (kernel ** alpha).sum(axis=0)  # s[r, b2]

    def inner(q):
        mix = q @ s_eb  # per b2
        return float((p_b2 * mix ** (1.0 / alpha)).sum())

    res = concave_simplex_max(inner, n_r, coarse=64)
    inf_term = (alpha / (1.0 - alpha)) * math.log2(res.value)
    return lhs - (first + inf_term), res.certificate, lhs, first, inf_term


def check_chain_rule(cfg: SuiteConfig) -> PropertyReport:
    rec = _Recorder(cfg, "chain_rule", 3, 40, 1e-9)

    def check(omega, p_b2, kernel):
        alpha = float(rng_from(rec.child).choice(cfg.alphas))
        slack, cert, lhs, first, inf_term = chain_rule_gap(
            omega, p_b2, kernel, alpha)
        rec.record(slack, failed=cert > 1e-8, alpha=alpha, slack=slack,
                   certificate=cert, lhs=lhs, first=first, inf_term=inf_term)

    rec.instance(10 ** 6)
    check(*counterexample_channel_instance())
    for rng in rec.stream():
        na1, nb1 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        n_r = int(rng.integers(2, 4))
        na2, nb2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        omega = random_distribution(na1 * nb1 * n_r, rng).reshape(na1, nb1, n_r)
        p_b2 = random_distribution(nb2, rng)
        kernel = np.stack([
            np.stack([random_distribution(na2, rng) for _ in range(nb2)], axis=1)
            for _ in range(n_r)], axis=1)
        check(omega, p_b2, kernel)
    return rec.report()


def check_classical_chain(cfg: SuiteConfig) -> PropertyReport:
    """Chain rule for the un-optimized entropy under independent side info."""
    rec = _Recorder(cfg, "classical_chain", 4, 200, 1e-9)
    for rng in rec.stream():
        alpha = float(rng.choice(cfg.alphas))
        na1, nb1, na2, nb2 = (int(rng.integers(2, 4)) for _ in range(4))
        p_ab = random_distribution(na1 * nb1, rng).reshape(na1, nb1)
        p_b2 = random_distribution(nb2, rng)
        kern = np.zeros((na2, na1, nb1, nb2))
        for a1 in range(na1):
            for b1 in range(nb1):
                for b2 in range(nb2):
                    kern[:, a1, b1, b2] = random_distribution(na2, rng)
        joint = np.einsum("ab,s,zabs->abzs", p_ab, p_b2, kern)
        lhs = _classical_h(joint, (0, 2), (1, 3), alpha, "down")
        first = entropy.h_classical(p_ab, alpha, "down")
        worst_round2 = min(
            entropy.h_classical(np.einsum("s,zs->zs", p_b2, kern[:, a1, b1, :]),
                                alpha, "down")
            for a1 in range(na1) for b1 in range(nb1))
        slack = lhs - (first + worst_round2)
        rec.record(slack, alpha=alpha, slack=slack)
    return rec.report()


# ---------------------------------------------------------------------------
# f-weighted entropy properties
# ---------------------------------------------------------------------------

def _random_measure_round(rng, d_r: int, n_a: int, n_c: int, n_b: int):
    """Random B-independent measurement round: POVMs per setting + p_b."""
    p_b = random_distribution(n_b, rng)
    povms = []
    for _ in range(n_b):
        blocks = [random_density((d_r,), rng).matrix *
                  float(rng.uniform(0.2, 1.0)) for _ in range(n_a * n_c)]
        total = sum(blocks)
        inv = matrix_power(total, -0.5)
        povms.append([inv @ g @ inv for g in blocks])
    return p_b, povms


def _measured_state(psi: DensityOperator, p_b, povms, n_a: int, n_c: int,
                    side_names) -> CqState:
    """Apply the measurement round to a pure input on (R, side...)."""
    d_r = psi.dims[0]
    d_side = psi.qdim // d_r
    regs = [creg("A", tuple(range(n_a))), creg("C", tuple(range(n_c))),
            creg("B", tuple(range(len(p_b))))]
    regs += [qreg(nm, psi.dims[1 + k]) for k, nm in enumerate(side_names)]
    t = psi.matrix.reshape(d_r, d_side, d_r, d_side)
    # tr_R[(F x I) psi psi^dag] on the side registers, per (b, a c)
    blk = np.einsum("kmab,bsat->kmst", np.asarray(povms), t)
    blk = blk.reshape(len(p_b), n_a, n_c, d_side, d_side).transpose(1, 2, 0, 3, 4)
    tr = np.trace(blk, axis1=-2, axis2=-1).real
    live = (tr > 1e-15)[..., None, None]
    conds = np.where(live, blk / np.where(live, tr[..., None, None], 1.0),
                     np.eye(d_side) / d_side)
    return CqState(regs, tr * p_b, conds)


def check_fweighted_props(cfg: SuiteConfig) -> PropertyReport:
    rec = _Recorder(cfg, "fweighted", 5, 40, 1e-9)
    for rng in rec.stream():
        alpha = float(rng.choice(cfg.alphas))

        # (a) concavity in f of the q_B-optimized entropy
        st = random_cq((3, 2), (2, 2), rng, names=["C", "B"], qnames=["A", "E"])
        f1 = rng.uniform(-1.0, 1.0, size=3)
        f2 = rng.uniform(-1.0, 1.0, size=3)
        h1 = entropy.f_weighted_sup_qb(st, ["A"], "C", "B", f1, alpha)
        h2 = entropy.f_weighted_sup_qb(st, ["A"], "C", "B", f2, alpha)
        hm = entropy.f_weighted_sup_qb(st, ["A"], "C", "B", (f1 + f2) / 2, alpha)
        s = hm - 0.5 * (h1 + h2)
        rec.record(s, check="f-concavity", slack=s)

        # (b) continuity in the state
        m_const = 1.4
        st_a = random_cq((3,), (2, 2), rng, names=["C"], qnames=["A", "B"])
        st_b = random_cq((3,), (2, 2), rng, names=["C"], qnames=["A", "B"])
        lam = float(rng.uniform(0.0, 0.2))
        mix_w = (1 - lam) * st_a.weights + lam * st_b.weights
        mix_c = ((1 - lam) * st_a.weights[:, None, None] * st_a.conds
                 + lam * st_b.weights[:, None, None] * st_b.conds
                 ) / mix_w[:, None, None]
        st_tau = CqState(st_a.regs, mix_w, mix_c)
        eps = trace_distance(st_a.to_density(), st_tau.to_density())
        sigma = random_density((2,), rng, rank=2).matrix
        f = rng.uniform(-m_const * 0.9, m_const * 0.45, size=3)
        ha = entropy.f_weighted(st_a, ["A"], "C", sigma, f, alpha)
        hb = entropy.f_weighted(st_tau, ["A"], "C", sigma, f, alpha)
        m_sig = float(eigvalsh_desc(sigma)[-1])
        kappa = 2 * 3 * 2 ** math.ceil(2 * m_const) / m_sig
        bound = (alpha / (alpha - 1.0)) * math.log2(
            1.0 + eps * kappa ** ((alpha - 1.0) / alpha))
        rec.record(bound - abs(ha - hb), check="continuity",
                   gap=abs(ha - hb), bound=bound, eps=eps)

        # (c) mixing bound for the channel-output entropy
        d_r = int(rng.integers(2, 4))
        p_b, povms = _random_measure_round(rng, d_r, 2, 2, 2)
        f_mix = rng.uniform(-0.8, 0.8, size=2)
        omegas = [random_density((d_r,), rng) for _ in range(2)]
        lam = float(rng.uniform(0.1, 0.9))
        # purifications on (R, E), padded to E of dimension d_r
        purs = [np.pad(x, ((0, 0), (0, d_r - x.shape[1]))).reshape(-1)
                for x in (_purification(om.matrix) for om in omegas)]
        h_parts = []
        for vec in purs:
            psi = DensityOperator(np.outer(vec, vec.conj()), (d_r, d_r),
                                  ("R", "E"))
            stm = _measured_state(psi, p_b, povms, 2, 2, ["E"])
            h_parts.append(entropy.f_weighted_sup_qb(stm, ["A"], "C", "B",
                                                     f_mix, alpha))
        psi_mix = np.zeros(d_r * d_r * 2, dtype=complex)
        psi_mix[0::2] = math.sqrt(lam) * purs[0]
        psi_mix[1::2] = math.sqrt(1.0 - lam) * purs[1]
        psi_m = DensityOperator(np.outer(psi_mix, psi_mix.conj()),
                                (d_r, d_r, 2), ("R", "E", "F"))
        stm = _measured_state(psi_m, p_b, povms, 2, 2, ["E", "F"])
        h_mix = entropy.f_weighted_sup_qb(stm, ["A"], "C", "B", f_mix, alpha)
        s = lam * h_parts[0] + (1 - lam) * h_parts[1] - h_mix
        rec.record(s, check="mixing", slack=s)

        # (d) the divergence cap from the classical weight; two independent
        # states per instance so the default run covers twice the count
        for rep in range(2):
            st_d = random_cq((int(rng.integers(2, 5)), int(rng.integers(2, 5))),
                             (int(rng.integers(2, 4)),), rng,
                             names=["A", "B"], qnames=["E"])
            rho_e = st_d.marginal(["E"]).conds[()]
            for combo, pa, sub in st_d.group_by(["A"]):
                if pa <= 0:
                    continue
                ref = CqState(sub.regs, np.ones_like(sub.weights),
                              np.broadcast_to(rho_e, sub.conds.shape))
                d_val = entropy.renyi_divergence(sub, ref, alpha)
                s = -math.log2(pa) - d_val
                rec.record(s, check="div_bnd", slack=s)

        # (e) data processing under a channel on E
        st_e = random_cq((2, 2), (2, 3), rng, names=["C", "B"],
                         qnames=["A", "E"])
        f_e = rng.uniform(-0.8, 0.8, size=2)
        before = entropy.f_weighted_sup_qb(st_e, ["A"], "C", "B", f_e, alpha)
        kraus = random_kraus_channel(3, 2, 2, rng)
        after = entropy.f_weighted_sup_qb(
            st_e.apply_quantum_channel(kraus, "E"), ["A"], "C", "B", f_e, alpha)
        s = after - before
        rec.record(s, check="dpi-E", slack=s)
    return rec.report()


def check_read_and_prepare(cfg: SuiteConfig) -> PropertyReport:
    """Divergence-expression identity and non-disturbance on random tuples."""
    rec = _Recorder(cfg, "read_and_prepare", 6, 40, 1e-8)
    for rng in rec.stream():
        alpha = float(rng.choice(cfg.alphas))
        n_c = int(rng.integers(2, 4))
        st = random_cq((n_c,), (2, 2), rng, names=["C"], qnames=["A", "B"])
        m_const = float(rng.uniform(0.8, 1.6))
        f = rng.uniform(-m_const, m_const * 0.49, size=n_c)
        sigma = random_density((2,), rng).matrix
        rp = build_read_and_prepare(f, m_const, alpha, tuple(range(n_c)))
        for j, fc in enumerate(f):
            gap = entropy.renyi_entropy(rp.taus[j], alpha) - (m_const - fc)
            rec.record(failed=abs(gap) > 1e-10, check="tau-target", gap=gap)
        lhs = entropy.f_weighted(st, ["A"], "C", sigma, f, alpha)
        bar = rp.apply(st, "C")
        ref_blk = embed(sigma, (2, 2), (1,))
        ref = CqState(bar.regs, np.ones_like(bar.weights),
                      np.broadcast_to(ref_blk, bar.conds.shape))
        rhs = -entropy.renyi_divergence(bar, ref, alpha) - m_const
        gap = abs(lhs - rhs)
        rec.record(-gap, check="divergence-expr", gap=gap)
        undo = bar.marginal(["C", "A", "B"])
        dist = trace_distance(undo.to_density(), st.to_density())
        rec.record(failed=dist > 1e-12, check="non-disturbance", gap=dist)
    return rec.report()


# ---------------------------------------------------------------------------
# two-round accumulation oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassicalAttack:
    """Two rounds of classical memory kernels with initial side information.

    ``initial[r0, e]`` is the joint start distribution; ``kernels[i][r, b, a,
    r']`` gives p(outcome a, new memory r' | memory r, setting b) for round i.
    """

    initial: np.ndarray
    kernels: tuple

    def marginal_kernels(self):
        return [k.sum(axis=3) for k in self.kernels]  # k[r, b, a]


ATTACK_SCHEMA = "renyiacc/attack/v1"


def attack_from_dict(doc: dict, proto: SamplingProtocol) -> ClassicalAttack:
    """Load an attack file, checked against the protocol it attacks.

    The schema tag must be ``ATTACK_SCHEMA``; ``initial`` must be an (r, e)
    distribution and ``kernels`` exactly two nonnegative arrays of shape
    (r, n_b, n_a, r) whose (r, b) slices each sum to one over (a, r'), all
    sums within 1e-9.
    """
    validate(doc, ATTACK_SCHEMA)
    initial = _numbers(doc["initial"], "initial")
    if initial.ndim != 2:
        raise BadShapeError(f"initial has shape {initial.shape}, want (r, e)")
    r_dim = initial.shape[0]
    want = (r_dim, len(proto.settings), len(proto.outcomes), r_dim)
    kernels = tuple(_numbers(k, f"kernel {i}")
                    for i, k in enumerate(doc["kernels"]))
    for i, k in enumerate(kernels):
        if k.shape != want:
            raise BadShapeError(f"kernel {i} has shape {k.shape}, want "
                                f"{want} (memory, setting, outcome, memory)")
    for name, arr in (("initial", initial),) + tuple(
            (f"kernel {i}", k) for i, k in enumerate(kernels)):
        if not (np.isfinite(arr).all() and (arr >= 0.0).all()):
            raise BadProbabilityError(f"{name} has a negative or non-finite "
                                      "entry")
    if abs(initial.sum() - 1.0) > 1e-9:
        raise BadProbabilityError(f"initial sums to {initial.sum():.12g}, "
                                  "not 1")
    for i, k in enumerate(kernels):
        sums = k.sum(axis=(2, 3))
        worst = np.unravel_index(np.abs(sums - 1.0).argmax(), sums.shape)
        if abs(sums[worst] - 1.0) > 1e-9:
            raise BadProbabilityError(
                f"kernel {i} slice (r, b) = {tuple(map(int, worst))} sums to "
                f"{sums[worst]:.12g} over (a, r'), not 1")
    return ClassicalAttack(initial, kernels)


def random_attack(rng, r_dim: int, e_dim: int, n_b: int,
                  n_a: int) -> ClassicalAttack:
    """A random two-round attack: start distribution, then each kernel."""
    initial = random_distribution(r_dim * e_dim, rng).reshape(r_dim, e_dim)
    kernels = []
    for _ in range(2):
        k = np.zeros((r_dim, n_b, n_a, r_dim))
        for r in range(r_dim):
            for b in range(n_b):
                k[r, b] = random_distribution(n_a * r_dim, rng).reshape(
                    n_a, r_dim)
        kernels.append(k)
    return ClassicalAttack(initial, tuple(kernels))


@dataclass(frozen=True)
class TwoRoundResult:
    lhs_exact: float
    bound: float
    h_alpha: float
    p_omega: float

    @property
    def slack(self) -> float:
        return self.lhs_exact - self.bound


def _round_rate_min(proto: SamplingProtocol, kernels,
                    cset: ConstraintSet, alpha: float) -> float:
    """min over the kernels k[r, b, a] and memory distributions q of the
    certified single-round objective.

    The channel pinches its classical memory and data processing lets the
    side-information copy be classical, so the infimum over input states
    reduces to distributions q on the memory alphabet, which every kernel
    shares. One grid over q, then one simplex polish per kernel from its
    best grid point, finds the minimum of each resulting smooth
    low-dimensional function. The grid is one batched dual solve and so is
    each tick of the polishes, which run in lockstep and score their
    reflection, expansion and contraction in one tick; the rows of a batch
    are solved independently, so each simplex takes the steps it would take
    alone.
    """
    r_dim = kernels[0].shape[0]
    # p_C is affine in q: the score law of each memory state, mixed by q
    p_c_mem = np.stack([proto.score_law(np.swapaxes(k, 1, 2))
                        for k in kernels])
    s_tab = np.stack([(k ** alpha).sum(axis=2) for k in kernels])  # s[k, r, b]
    gen_on = proto.p_gen > 0.0

    def values(qs, key):
        """The objective at each row of qs, under kernel ``key[i]``. Each
        row is its own (1, r) @ (r, .) product, so its value does not depend
        on the rows stacked with it."""
        inner = (qs[:, None] @ s_tab[key])[:, 0]  # per-b sum_a p(a|q,b)^alpha
        p_c = (qs[:, None] @ p_c_mem[key])[:, 0]
        mix = (proto.p_gen[gen_on]
               * inner[:, gen_on] ** (1.0 / alpha)).sum(axis=1)
        h_gen = (alpha / (1.0 - alpha)) * np.log2(mix)
        sol = inner_inf_v_batch(p_c, np.maximum(h_gen, 0.0), cset, alpha)
        if not sol.feasible.all():
            raise InfeasibleError("constraint set unreachable for some memory "
                                  "state of the attack")
        return sol.value

    res = {2: 48, 3: 20, 4: 12}.get(r_dim, 10)
    grid = simplex_grid(r_dim, res) / res
    vals = values(np.tile(grid, (len(kernels), 1)),
                  np.repeat(np.arange(len(kernels)), len(grid))
                  ).reshape(len(kernels), -1)
    best_val = float(vals.min())
    if r_dim > 1:
        x0s = np.log(np.maximum(grid[vals.argmin(axis=1)], 1e-6))
        runs = nelder_mead_batch(lambda xs, key: values(_softmax(xs), key),
                                 x0s, scale=0.25, tol=1e-13, max_iter=600,
                                 keyed=True, speculate=True)
        best_val = min(best_val, *(float(val) for _, val, _ in runs))
    return best_val


def simulate_two_rounds(proto: SamplingProtocol, attack: ClassicalAttack,
                        cset: ConstraintSet, alpha: float) -> TwoRoundResult:
    """Exact two-round entropy versus the accumulated finite-size bound.

    Enumerates the full classical joint of two spot-checking rounds under the
    memory attack, conditions on the score-frequency event, evaluates the
    optimized entropy of (outputs, scores) given (settings, side info)
    exactly, and compares with twice the certified single-round rate minus
    the conditioning penalty.
    """
    alpha = entropy.check_alpha(alpha)
    _check_score_alphabet(cset, proto)
    n_c = len(proto.c_alphabet)
    pt = np.array([1.0 - proto.gamma, proto.gamma])
    pb_t = np.stack([proto.p_gen, proto.p_test])  # [t, b]
    # score symbol of round (t, b, a): bot on generation rounds
    scored = proto.scored.T
    c_of = np.stack([np.full_like(scored, proto.c_alphabet.index(BOT)), scored])
    k1, k2 = attack.kernels
    # joint over (e, t1, b1, a1, t2, b2, a2), memories summed
    s1 = np.einsum("re,t,tb,rbaq->etbaq", attack.initial, pt, pb_t, k1)
    joint = np.einsum("etbaq,s,sc,qcdw->etbascd", s1, pt, pb_t, k2)
    # score frequency of rounds (t1, b1, a1) and (t2, b2, a2): half a count
    # on each round's symbol; all of them tested against the set at once
    onehot = np.eye(n_c)[c_of]
    freq = 0.5 * (onehot[:, :, :, None, None, None] + onehot)
    freq_member = (cset.violations(freq.reshape(-1, n_c)) <= 1e-12).all(
        axis=1).reshape(freq.shape[:-1])
    mask = freq_member[None, ...]
    p_omega = float(joint[np.broadcast_to(mask, joint.shape)].sum())
    p_omega = 1.0 if p_omega > 1.0 - 1e-12 else p_omega
    if p_omega <= 1e-14:
        raise EmptyEventError("the non-abort event has zero probability")
    cond = np.where(mask, joint, 0.0) / p_omega
    # H_up(A^2 C^2 | B^2 E): condition on (e, t1, b1, t2, b2); c is a
    # function of (t, b, a), so A is (a1, a2)
    lhs = _classical_h(cond, (3, 6), (0, 1, 2, 4, 5), alpha, "up")
    h_alpha = _round_rate_min(proto, attack.marginal_kernels(), cset, alpha)
    bound = finite_size_bound(2, h_alpha, p_omega, alpha)
    return TwoRoundResult(lhs_exact=lhs, bound=bound, h_alpha=h_alpha,
                          p_omega=p_omega)


def _random_protocol(rng, n_a: int, n_b: int, d: int = 1) -> SamplingProtocol:
    outcomes = tuple(str(a) for a in range(n_a))
    settings = tuple(str(b) for b in range(n_b))
    bits = score_alphabet(d)[:-1]
    score = {(a, b): bits[int(rng.integers(0, len(bits)))]
             for a in outcomes for b in settings}
    return SamplingProtocol(
        gamma=float(rng.uniform(0.05, 0.95)),
        outcomes=outcomes, settings=settings,
        p_gen=random_distribution(n_b, rng),
        p_test=random_distribution(n_b, rng),
        score=score, d=d)


def check_two_round_accumulation(cfg: SuiteConfig) -> PropertyReport:
    rec = _Recorder(cfg, "two_round", 7, 40, 1e-9,
                    name="two_round_accumulation")
    for rng in rec.stream():
        alpha = float(rng.choice(cfg.alphas))
        n_a = int(rng.integers(2, 5))
        n_b = int(rng.integers(2, 5))
        r_dim = int(rng.integers(2, 5))
        e_dim = int(rng.integers(1, 5))
        proto = _random_protocol(rng, n_a, n_b)
        attack = random_attack(rng, r_dim, e_dim, n_b, n_a)
        # build a non-abort set around an achievable score frequency
        k_marg = attack.marginal_kernels()[0]
        q0 = attack.initial.sum(axis=1)
        p_c = proto.score_law(np.einsum("r,rba->ab", q0, k_marg))
        kind = int(rng.integers(0, 3))
        alphabet = proto.c_alphabet
        if kind == 0:
            cset = ConstraintSet.full_simplex(alphabet)
        else:
            j = int(rng.integers(0, len(alphabet)))
            shift = float(rng.uniform(0.05, 0.4))
            cset = (ConstraintSet.min_mass(alphabet, alphabet[j],
                                           max(0.0, p_c[j] - shift))
                    if kind == 1 else
                    ConstraintSet.max_mass(alphabet, alphabet[j],
                                           min(1.0, p_c[j] + shift)))
        try:
            res = simulate_two_rounds(proto, attack, cset, alpha)
        except EmptyEventError:
            rec.discard()
            continue
        rec.record(res.slack, alpha=alpha, lhs=res.lhs_exact,
                   bound=res.bound, p_omega=res.p_omega)
    return rec.report()


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

ALL_CHECKS = {
    "ordering": check_ordering,
    "partial_props": check_partial_entropy_props,
    "chain_rule": check_chain_rule,
    "classical_chain": check_classical_chain,
    "fweighted": check_fweighted_props,
    "read_and_prepare": check_read_and_prepare,
    "two_round": check_two_round_accumulation,
}


def run_property_suite(cfg: SuiteConfig, only=None) -> SuiteReport:
    names = [only] if only else list(ALL_CHECKS)
    results = [ALL_CHECKS[name](cfg) for name in names]
    return SuiteReport(seed=cfg.seed, results=results)
