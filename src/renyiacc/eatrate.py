"""Single-round accumulation rates for spot-checking protocols.

The rate of one round is the constrained convex program

    inf over score distributions v in the non-abort set of
        (1/(alpha-1)) * KL(v || p_C)  +  v(bot) * H_alpha(A | B^up E^down),

solved exactly by exponential-family tilting with a KKT certificate. The
outer minimization over device strategies is a heuristic search (simplex
descent with random restarts); its value is an upper bound on the true rate
infimum and is labeled as such in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import entropy
from .channel import (
    BOT,
    SamplingProtocol,
    TwoQubitStrategy,
    bell_value,
    build_sampling_channel,
)
from .entropy import check_alpha
from .errors import (
    AlphabetMismatchError,
    BadProbabilityError,
    InfeasibleError,
)
from .optimize import nelder_mead, simplex_grid
from .qcore import rng_from

INF = math.inf


# ---------------------------------------------------------------------------
# constraint sets over score distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintSet:
    """Affine constraints G v >= t over distributions on a score alphabet."""

    alphabet: tuple
    mat: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        alphabet = tuple(self.alphabet)
        mat = np.asarray(self.mat, dtype=float).reshape(-1, len(alphabet))
        rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        if mat.shape[0] != rhs.shape[0]:
            raise AlphabetMismatchError("constraint row count mismatch")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "rhs", rhs)

    @property
    def k(self) -> int:
        return self.mat.shape[0]

    def violations(self, v) -> np.ndarray:
        if self.k == 0:
            return np.zeros(0)
        return self.rhs - self.mat @ np.asarray(v, dtype=float)

    def contains(self, v, tol: float = 1e-9) -> bool:
        viol = self.violations(v)
        return bool(viol.size == 0 or viol.max() <= tol)

    def check_nonempty(self, resolution: int = 40) -> np.ndarray:
        """Probe the simplex for a feasible point; raises when none is found."""
        if self.k == 0:
            v = np.zeros(len(self.alphabet))
            v[0] = 1.0
            return v
        grid = simplex_grid(len(self.alphabet), resolution)
        viol = np.maximum(self.rhs[None, :] - grid @ self.mat.T, 0.0).max(axis=1)
        best = int(np.argmin(viol))
        if viol[best] > 1e-9:
            point, val, _ = nelder_mead(
                lambda x: float(np.maximum(self.violations(_softmax(x)), 0.0).max()),
                np.zeros(len(self.alphabet)), scale=1.0)
            if val > 1e-9:
                raise InfeasibleError("constraint set has no feasible "
                                      "distribution (probe)")
            return _softmax(point)
        return grid[best].copy()

    @staticmethod
    def full_simplex(alphabet) -> "ConstraintSet":
        alphabet = tuple(alphabet)
        return ConstraintSet(alphabet, np.zeros((0, len(alphabet))), np.zeros(0))

    @staticmethod
    def min_mass(alphabet, symbol, bound: float) -> "ConstraintSet":
        """v(symbol) >= bound."""
        alphabet = tuple(alphabet)
        row = np.zeros((1, len(alphabet)))
        row[0, alphabet.index(symbol)] = 1.0
        return ConstraintSet(alphabet, row, np.array([bound]))

    @staticmethod
    def max_mass(alphabet, symbol, bound: float) -> "ConstraintSet":
        """v(symbol) <= bound."""
        alphabet = tuple(alphabet)
        row = np.zeros((1, len(alphabet)))
        row[0, alphabet.index(symbol)] = -1.0
        return ConstraintSet(alphabet, row, np.array([-bound]))

    @staticmethod
    def stack(*sets: "ConstraintSet") -> "ConstraintSet":
        alphabet = sets[0].alphabet
        for s in sets[1:]:
            if s.alphabet != alphabet:
                raise AlphabetMismatchError("stacked sets differ in alphabet")
        return ConstraintSet(alphabet,
                             np.vstack([s.mat for s in sets]),
                             np.concatenate([s.rhs for s in sets]))


def _softmax(x):
    e = np.exp(x - np.max(x))
    return e / e.sum()


# ---------------------------------------------------------------------------
# exact inner minimization over v
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InnerSolution:
    value: float
    v_star: np.ndarray
    lam: np.ndarray
    dual_value: float
    kkt_residual: float
    primal_violation: float
    comp_slack: float


def _tilted(p, log_tilt):
    """Normalized p * 2^log_tilt, in a numerically safe way."""
    active = p > 0.0
    expo = np.where(active, log_tilt, -np.inf)
    m = expo[active].max()
    w = np.where(active, p * np.power(2.0, expo - m), 0.0)
    return w / w.sum()


def inner_inf_v(p_c, h_gen: float, cset: ConstraintSet, alpha: float,
                bot_symbol=BOT, tol: float = 1e-12,
                max_sweeps: int = 400) -> InnerSolution:
    """Exact minimizer of (1/(alpha-1)) KL(v||p) + v(bot) h over the set.

    Solved in the exponential-family dual: v_lam ~ p * 2^{-(alpha-1)(h*1_bot -
    G^T lam)} with lam >= 0 found by coordinate-ascent bisection; the returned
    certificate carries primal feasibility, complementary slackness and the
    duality gap.
    """
    alpha = check_alpha(alpha)
    p = np.asarray(p_c, dtype=float)
    if p.shape != (len(cset.alphabet),):
        raise AlphabetMismatchError("p_C length does not match the alphabet")
    if h_gen < 0.0 and h_gen < -1e-9:
        raise BadProbabilityError("generation entropy must be nonnegative")
    beta = alpha - 1.0
    if bot_symbol not in cset.alphabet:
        raise AlphabetMismatchError(f"alphabet lacks the symbol {bot_symbol!r}")
    e_bot = np.zeros(len(cset.alphabet))
    e_bot[cset.alphabet.index(bot_symbol)] = 1.0
    g = cset.mat
    t = cset.rhs
    k = cset.k
    lam = np.zeros(k)

    def v_of(lam_vec):
        return _tilted(p, -beta * (h_gen * e_bot - (g.T @ lam_vec
                                                    if k else 0.0)))

    def primal(v):
        kl = entropy.kl_divergence(v, p)
        return kl / beta + float(v @ e_bot) * h_gen

    def dual(lam_vec):
        w = -beta * (h_gen * e_bot - (g.T @ lam_vec if k else 0.0))
        active = p > 0.0
        m = w[active].max()
        z = float((p[active] * np.power(2.0, w[active] - m)).sum())
        return float(lam_vec @ t) - (m + math.log2(z)) / beta

    if k:
        for sweep in range(max_sweeps):
            moved = 0.0
            for j in range(k):
                def slack(x):
                    trial = lam.copy()
                    trial[j] = x
                    return float(g[j] @ v_of(trial)) - t[j]

                if slack(0.0) >= 0.0 and lam[j] == 0.0:
                    continue
                if slack(lam[j]) > 0.0 and lam[j] > 0.0:
                    hi, lo = lam[j], 0.0
                    if slack(lo) >= 0.0:
                        moved = max(moved, lam[j])
                        lam[j] = 0.0
                        continue
                else:
                    lo = lam[j]
                    hi = max(1.0, 2.0 * lam[j])
                    grow = 0
                    while slack(hi) < 0.0:
                        hi *= 2.0
                        grow += 1
                        if grow > 60:
                            raise InfeasibleError(
                                f"constraint {j} unreachable by tilting; "
                                "the set is infeasible for this p_C")
                new = 0.5 * (lo + hi)
                for _ in range(200):
                    if slack(new) >= 0.0:
                        hi = new
                    else:
                        lo = new
                    new = 0.5 * (lo + hi)
                    if hi - lo < tol * max(1.0, hi):
                        break
                moved = max(moved, abs(lam[j] - hi))
                lam[j] = hi
            if moved < tol:
                break
    v = v_of(lam)
    viol = cset.violations(v)
    primal_violation = float(viol.max()) if viol.size else 0.0
    comp = float(np.abs(lam * viol).sum()) if k else 0.0
    value = primal(v)
    dual_val = dual(lam)
    gap = abs(value - dual_val)
    res = max(max(primal_violation, 0.0), comp, gap)
    if primal_violation > 1e-7:
        raise InfeasibleError(
            f"dual solve left primal violation {primal_violation:.2e}")
    return InnerSolution(value=value, v_star=v, lam=lam, dual_value=dual_val,
                         kkt_residual=res, primal_violation=primal_violation,
                         comp_slack=comp)


def inner_inf_v_grid(p_c, h_gen: float, cset: ConstraintSet, alpha: float,
                     resolution: int = 200, bot_symbol=BOT,
                     refine_rounds: int = 24) -> float:
    """Brute-force oracle: simplex grid plus shrinking local rescans.

    The refinement stays a pure primal search (mixtures of the incumbent with
    grid directions, filtered for feasibility), so the result is independent
    of the dual-tilting path it checks.
    """
    alpha = check_alpha(alpha)
    p = np.asarray(p_c, dtype=float)
    beta = alpha - 1.0
    i_bot = cset.alphabet.index(bot_symbol)

    def batch_vals(batch):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(batch > 0, batch / np.where(p > 0, p, 1.0), 1.0)
            kl = np.where(batch > 0, batch * np.log2(ratio), 0.0).sum(axis=1)
            bad = ((batch > 0) & (p <= 0)).any(axis=1)
        vals = kl / beta + batch[:, i_bot] * h_gen
        vals[bad] = np.inf
        return vals

    grid = simplex_grid(len(cset.alphabet), resolution)
    if cset.k:
        feas = (grid @ cset.mat.T >= cset.rhs[None, :] - 1e-12).all(axis=1)
        grid = grid[feas]
    if grid.size == 0:
        raise InfeasibleError("no feasible grid point at this resolution")
    vals = batch_vals(grid)
    order = np.argsort(vals)
    best_val = float(vals[order[0]])
    # polish with an exact-penalty simplex descent; the L1 penalty weight only
    # needs to exceed the active multipliers, and feasible iterates are scored
    # without it, so the result can only move down toward the constrained
    # minimum from the primal side.
    mu = 1e4

    def penalized(x):
        v = _softmax(x)
        raw = float(batch_vals(v[None, :])[0])
        viol = cset.violations(v)
        pen = float(np.maximum(viol, 0.0).sum()) if viol.size else 0.0
        return raw + mu * pen

    starts = [np.log(np.maximum(grid[int(j)], 1e-7)) for j in order[:3]]
    starts.append(np.log(np.maximum(p, 1e-7)))
    for start in starts:
        x, _, _ = nelder_mead(penalized, start, scale=1.0, tol=1e-13,
                              max_iter=2500)
        x, _, _ = nelder_mead(penalized, x, scale=0.01, tol=1e-14,
                              max_iter=2500)
        v = _softmax(x)
        if cset.contains(v, tol=1e-9):
            best_val = min(best_val, float(batch_vals(v[None, :])[0]))
    return best_val


# ---------------------------------------------------------------------------
# strategy-level quantities
# ---------------------------------------------------------------------------

def gen_round_entropy(strategy: TwoQubitStrategy, p_gen, alpha: float,
                      settings: str = "pairs", outputs: str = "alice") -> float:
    """H_alpha(A | B^up E^down) of the generation-round output."""
    state = strategy_gen_state(strategy, p_gen, settings, outputs)
    return entropy.h_partial(state, ["A"], "B", alpha)


def strategy_gen_state(strategy: TwoQubitStrategy, p_gen,
                       settings: str = "pairs", outputs: str = "alice"):
    from .channel import strategy_to_cq
    return strategy_to_cq(strategy, np.asarray(p_gen, dtype=float),
                          settings=settings, outputs=outputs)


def single_round_h(strategy: TwoQubitStrategy, proto: SamplingProtocol,
                   cset: ConstraintSet, alpha: float,
                   outputs: str = "alice") -> InnerSolution:
    """Rate contribution of one fixed strategy (upper bounds the infimum)."""
    alpha = check_alpha(alpha)
    if tuple(cset.alphabet) != tuple(proto.c_alphabet):
        raise AlphabetMismatchError("constraint alphabet differs from the "
                                    "protocol score alphabet")
    ch = build_sampling_channel(strategy, proto, outputs=outputs)
    p_c = ch.p_c()
    h_gen = gen_round_entropy(strategy, proto.p_gen, alpha,
                              settings="pairs" if len(str(proto.settings[0])) > 1
                              else "alice", outputs=outputs)
    return inner_inf_v(p_c, h_gen, cset, alpha)


def finite_size_bound(n: int, h_alpha: float, p_omega: float,
                      alpha: float) -> float:
    """n-round lower bound: n h_alpha - (alpha/(alpha-1)) log2(1/p_omega)."""
    alpha = check_alpha(alpha)
    if n < 1:
        raise BadProbabilityError("round count must be positive")
    if not (0.0 < p_omega <= 1.0):
        raise BadProbabilityError(f"p_omega {p_omega} outside (0, 1]")
    return n * h_alpha - (alpha / (alpha - 1.0)) * math.log2(1.0 / p_omega)


@dataclass(frozen=True)
class RateReport:
    """Best-found single-round rate and the finite-size numbers built on it.

    ``h_alpha`` is an upper bound on the true rate infimum obtained from the
    best strategy the heuristic search found; the finite-size figures consume
    the certified inner solution evaluated at that strategy.
    """

    alpha: float
    h_alpha: float
    v_star: tuple
    p_c: tuple
    strategy_params: tuple
    kkt_residual: float
    n: int
    p_omega: float
    total_bits: float
    key_bits: int | None
    restarts: int
    seed: int
    note: str = "upper bound on h_alpha via best-found attack"

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha, "h_alpha": self.h_alpha,
            "v_star": list(self.v_star), "p_c": list(self.p_c),
            "strategy_params": list(self.strategy_params),
            "kkt_residual": self.kkt_residual, "n": self.n,
            "p_omega": self.p_omega, "total_bits": self.total_bits,
            "key_bits": self.key_bits, "restarts": self.restarts,
            "seed": self.seed, "note": self.note,
        }


def optimize_strategy(proto: SamplingProtocol, cset: ConstraintSet,
                      alpha: float, restarts: int, seed: int,
                      n_a: int = 2, n_b: int = 2, outputs: str = "alice",
                      n: int = 1, p_omega: float = 1.0,
                      bell: tuple | None = None,
                      max_iter: int = 400) -> RateReport:
    """Heuristic minimization of the single-round rate over two-qubit strategies.

    ``bell`` optionally pins the search to strategies with a Bell value at
    least the given (functional, threshold) via a quadratic penalty.
    Deterministic under ``seed``; more restarts never increase the value.
    """
    alpha = check_alpha(alpha)
    if restarts < 1:
        raise BadProbabilityError("need at least one restart")
    cset.check_nonempty()
    dim = 1 + n_a + n_b

    def objective(params):
        try:
            s = TwoQubitStrategy.from_params(params, n_a, n_b)
            sol = single_round_h(s, proto, cset, alpha, outputs=outputs)
            val = sol.value
        except InfeasibleError:
            return 1e6
        if bell is not None:
            functional, threshold = bell
            gap = threshold - bell_value(
                TwoQubitStrategy.from_params(params, n_a, n_b), functional)
            if gap > 0.0:
                val += 50.0 * gap * gap + gap
        return val

    best_params, best_val = None, INF
    for i in range(restarts):
        rng = rng_from((int(seed), i))
        x0 = np.concatenate([[rng.uniform(0.0, math.pi / 4)],
                             rng.uniform(-math.pi, math.pi, size=n_a + n_b)])
        x, val, _ = nelder_mead(objective, x0, scale=0.3, max_iter=max_iter)
        if val < best_val:
            best_val, best_params = val, x
    s = TwoQubitStrategy.from_params(best_params, n_a, n_b)
    sol = single_round_h(s, proto, cset, alpha, outputs=outputs)
    total = finite_size_bound(n, sol.value, p_omega, alpha)
    key = entropy.key_length(total, 1e-9, alpha) if 1.0 < alpha <= 2.0 else None
    return RateReport(
        alpha=alpha, h_alpha=sol.value, v_star=tuple(sol.v_star),
        p_c=tuple(build_sampling_channel(s, proto, outputs=outputs).p_c()),
        strategy_params=tuple(float(x) for x in best_params),
        kkt_residual=sol.kkt_residual, n=n, p_omega=p_omega, total_bits=total,
        key_bits=key, restarts=restarts, seed=int(seed))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    alpha: float
    h_down: float
    h_partial: float
    per_b: dict
    gap: float
    asymmetry: float


def compare_entropies(strategy: TwoQubitStrategy, p_b, alphas,
                      settings: str = "pairs",
                      outputs: str = "alice") -> list[ComparisonRow]:
    """Partial-vs-down comparison with the per-setting entropy spread."""
    from .channel import strategy_to_cq
    state = strategy_to_cq(strategy, np.asarray(p_b, dtype=float),
                           settings=settings, outputs=outputs)
    rows = []
    for alpha in alphas:
        alpha = check_alpha(alpha)
        per_b = {}
        for combo, pb, sub in state.group_by(["B"]):
            if pb <= 0.0:
                continue
            per_b[combo[0]] = entropy.h_down(sub, ["A"], alpha)
        hd = entropy.h_down(state, ["A"], alpha)
        hp = entropy.h_partial(state, ["A"], "B", alpha)
        vals = list(per_b.values())
        rows.append(ComparisonRow(alpha=alpha, h_down=hd, h_partial=hp,
                                  per_b=per_b, gap=hp - hd,
                                  asymmetry=max(vals) - min(vals)))
    return rows


@dataclass(frozen=True)
class AsymptoticRow:
    alpha: float
    gamma: float
    value: float
    kl_term: float
    target_vn: float


def asymptotic_check(strategy: TwoQubitStrategy, schedule,
                     make_protocol, cset_for, outputs: str = "alice"):
    """Rate along a schedule of (alpha, gamma) versus the von Neumann target.

    ``make_protocol(gamma)`` builds the sampling protocol; ``cset_for(proto)``
    the non-abort set (which must contain the honest score distribution).
    Returns rows plus the generation-round H(A|B E) evaluated by two-point
    extrapolation toward order one.
    """
    rows = []
    target = None
    for alpha, gamma in schedule:
        proto = make_protocol(gamma)
        cset = cset_for(proto)
        sol = single_round_h(strategy, proto, cset, alpha, outputs=outputs)
        kl = entropy.kl_divergence(
            sol.v_star, build_sampling_channel(strategy, proto,
                                               outputs=outputs).p_c())
        if target is None:
            state = strategy_gen_state(
                strategy, proto.p_gen,
                settings="pairs" if len(str(proto.settings[0])) > 1 else "alice",
                outputs=outputs)
            target = entropy.conditional_von_neumann(state, ["A"])
        rows.append(AsymptoticRow(alpha=float(alpha), gamma=float(gamma),
                                  value=sol.value, kl_term=kl,
                                  target_vn=target))
    return rows
