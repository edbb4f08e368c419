"""Single-round accumulation rates for spot-checking protocols.

The rate of one round is the constrained convex program

    inf over score distributions v in the non-abort set of
        (1/(alpha-1)) * KL(v || p_C)  +  v(bot) * H_alpha(A | B^up E^down),

solved exactly in its exponential-family dual, by projected Newton steps on
the multipliers of the constraints, with a KKT certificate; whether the set
can be met is decided exactly by ``ConstraintSet.vertices``. A batch solve,
``inner_inf_v_batch``, takes a stack of score laws, and ``inner_inf_v`` is
its batch of one. The outer minimization over device strategies is a
heuristic search (simplex descent with random restarts); its value is an
upper bound on the true rate infimum and is labeled as such in reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import entropy
from .channel import (
    BOT,
    ResponseTable,
    SamplingProtocol,
    TwoQubitStrategy,
    _round_table,
    bell_values,
    params_stack,
    response_stack,
    strategy_to_cq,
)
from .entropy import _softmax, check_alpha
from .errors import (
    AlphabetMismatchError,
    BadProbabilityError,
    InfeasibleError,
)
from .optimize import nelder_mead_batch, simplex_grid
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
        object.__setattr__(self, "_faces", {})  # support mask -> vertices

    @property
    def k(self) -> int:
        return self.mat.shape[0]

    def violations(self, v) -> np.ndarray:
        """t - G v for a distribution ``(n,)`` or a stack ``(m, n)``."""
        v = np.asarray(v, dtype=float)
        if self.k == 0:
            return np.zeros(v.shape[:-1] + (0,))
        return self.rhs - v @ self.mat.T

    def contains(self, v, tol: float = 1e-9) -> bool:
        viol = self.violations(v)
        return bool(viol.size == 0 or viol.max() <= tol)

    def vertices(self, support) -> np.ndarray:
        """Every vertex of the face where v is 0 off the boolean mask
        ``support``, once per m - 1 of v >= 0, G v >= t tight on its m entries
        with sum(v) = 1 and the rest met within 1e-9; read-only, cached."""
        support = np.asarray(support, dtype=bool)
        if support.tobytes() not in self._faces:
            m = int(support.sum())  # rows @ v >= bound, sum(v) = 1 first
            rows = np.vstack([np.ones(m), np.eye(m), self.mat[:, support]])
            bound = np.concatenate([[1.0], np.zeros(m), self.rhs])
            a, b = (x[[(0, *c) for c in itertools.combinations(
                range(1, len(rows)), m - 1)]] for x in (rows, bound))
            ok = np.abs(np.linalg.det(a)) > 1e-12 * np.abs(a).sum(2).prod(1)
            x = np.linalg.solve(a[ok], b[ok, :, None])[:, :, 0]
            x = x[(x @ rows.T >= bound - 1e-9).all(axis=1)]
            verts = np.zeros((len(x), len(self.alphabet)))
            verts[:, support] = x
            verts.flags.writeable = False
            self._faces[support.tobytes()] = verts
        return self._faces[support.tobytes()]

    def check_nonempty(self) -> np.ndarray:
        """A vertex of the set as a new array; InfeasibleError if none."""
        verts = self.vertices(np.ones(len(self.alphabet), dtype=bool))
        if not len(verts):
            raise InfeasibleError("constraint set has no feasible distribution")
        return verts[0].copy()

    @staticmethod
    def full_simplex(alphabet) -> "ConstraintSet":
        alphabet = tuple(alphabet)
        return ConstraintSet(alphabet, np.zeros((0, len(alphabet))), np.zeros(0))

    @staticmethod
    def min_mass(alphabet, symbol, bound: float) -> "ConstraintSet":
        """v(symbol) >= bound."""
        alphabet = tuple(alphabet)
        if symbol not in alphabet:
            raise AlphabetMismatchError(f"symbol {symbol!r} not in {alphabet}")
        row = np.zeros((1, len(alphabet)))
        row[0, alphabet.index(symbol)] = 1.0
        return ConstraintSet(alphabet, row, np.array([bound]))

    @staticmethod
    def max_mass(alphabet, symbol, bound: float) -> "ConstraintSet":
        """v(symbol) <= bound."""
        cs = ConstraintSet.min_mass(alphabet, symbol, -bound)
        return ConstraintSet(cs.alphabet, -cs.mat, cs.rhs)

    @staticmethod
    def stack(*sets: "ConstraintSet") -> "ConstraintSet":
        alphabet = sets[0].alphabet
        for s in sets[1:]:
            if s.alphabet != alphabet:
                raise AlphabetMismatchError("stacked sets differ in alphabet")
        return ConstraintSet(alphabet,
                             np.vstack([s.mat for s in sets]),
                             np.concatenate([s.rhs for s in sets]))


# ---------------------------------------------------------------------------
# exact inner minimization over v
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InnerSolution:
    """Minimizer and KKT certificate; a batch solve stacks every field by row.

    ``feasible`` is False on the rows of a batch whose set has no vertex on
    supp(p_C) or whose solve ended violated by more than 1e-7: their value
    is +inf, the other fields mean nothing, and a lone solve raises instead.
    """

    value: float
    v_star: np.ndarray
    lam: np.ndarray
    dual_value: float
    kkt_residual: float
    primal_violation: float
    comp_slack: float
    feasible: np.ndarray | bool = True

    def row(self, i: int) -> "InnerSolution":
        """Row ``i`` of a batch solve as a lone solution; raises
        ``InfeasibleError`` on an infeasible row."""
        if not self.feasible[i]:
            raise InfeasibleError("the set is infeasible for this p_C: its "
                                  "face on supp(p_C) is empty, or the solve "
                                  "ended violated by more than 1e-7")
        return InnerSolution(
            value=float(self.value[i]), v_star=self.v_star[i],
            lam=self.lam[i], dual_value=float(self.dual_value[i]),
            kkt_residual=float(self.kkt_residual[i]),
            primal_violation=float(self.primal_violation[i]),
            comp_slack=float(self.comp_slack[i]))


_NEWTON_ITERS = 100
_TOL = 1e-15       # projected gradient times 1 + sum(lam) at convergence
_BACKTRACKS = 60
_ARMIJO = 1e-4
_RIDGE = 1e-13     # relative ridge on the Newton pivots (repeated rows)
_FLAT = 1e-290     # a variance at or below this is zero
_WARM_RES = 1e-9   # a warm-started row certified worse than this is redone


def inner_inf_v_batch(p_c, h_gen, cset: ConstraintSet,
                      alpha: float) -> InnerSolution:
    """Exact minimizers of (1/(alpha-1)) KL(v||p) + v(bot) h, one per row.

    ``p_c`` stacks the score laws, shape (n, |C|); ``h_gen`` holds each row's
    generation entropy, shape (n,). Every row is solved in the
    exponential-family dual (beta = alpha - 1)

        D(lam) = lam.t - (1/beta) log2 sum p 2^{beta (G^T lam - h 1_bot)},

    maximized over lam >= 0 by projected Newton steps (Bertsekas 1982). The
    gradient of D is the violation t - G v_lam and its Hessian is
    -beta ln2 Cov_{v_lam}(G). Each step solves on the free set
    {lam_j > 0 or grad_j > 0}, backtracks per row until D rises by an
    Armijo share of the projected move, and projects onto lam >= 0. A row
    leaves the batch once its projected gradient, times 1 + sum(lam), is
    below 1e-15, or once its Newton step is at rounding level; rows with
    k = 0 constraints are closed form. Every v_lam vanishes off supp(p), so
    a row whose face there has no vertex can never be met and is never
    iterated: it is marked in ``feasible``, as is one violated by more than
    1e-7 at the end, and its value is +inf. The multipliers start at 0;
    a warm-started row (``_inner_solve``) is kept only when it ends feasible
    with a KKT residual of at most 1e-9, and is otherwise solved again from
    0. The fields of the result carry the batch axis.
    """
    return _inner_solve(p_c, h_gen, cset, alpha, None)


def _inner_solve(p_c, h_gen, cset: ConstraintSet, alpha: float,
                 lam0) -> InnerSolution:
    """``inner_inf_v_batch`` with the multipliers started at ``lam0``, shape
    (n, k), unchecked, or at zero when it is None. The optimum does not
    depend on the start, but a warm result matches the cold one only to the
    solver's tolerance. One rule covers every warm row: it is kept when it
    ends feasible with a KKT residual of at most 1e-9, and any other warm
    row, such as one started far from the optimum, is solved again from
    zero."""
    alpha = check_alpha(alpha)
    p = np.asarray(p_c, dtype=float)
    h = np.asarray(h_gen, dtype=float)
    n, n_sym = p.shape[0], len(cset.alphabet)
    if p.shape != (n, n_sym) or h.shape != (n,):
        raise AlphabetMismatchError("p_C rows do not match the alphabet")
    entropy._distribution(p, "p_C ")
    if (h < -1e-9).any():
        raise BadProbabilityError("generation entropy must be nonnegative")
    if BOT not in cset.alphabet:
        raise AlphabetMismatchError(f"alphabet lacks the symbol {BOT!r}")
    active = p > 0.0
    beta = alpha - 1.0
    g, t, k = cset.mat, cset.rhs, cset.k
    i_bot = cset.alphabet.index(BOT)
    expo0 = np.where(active, 0.0, -np.inf)
    expo0[:, i_bot] -= beta * h
    faces, face = ((active[:1], np.zeros(n, int)) if active.all()
                   else np.unique(active, axis=0, return_inverse=True))
    feasible = np.array([len(cset.vertices(f)) > 0 for f in faces],
                        dtype=bool)[face.reshape(-1)]

    def tilt(p_rows, expo_rows, lam_rows):
        """v_lam, D(lam) and the gradient t - G v_lam for each row."""
        expo = expo_rows + (beta * lam_rows) @ g  # -inf where p vanishes
        m = expo.max(axis=1, keepdims=True)
        w = p_rows * np.power(2.0, expo - m)
        z = w.sum(axis=1)
        v = w / z[:, None]
        dual = lam_rows @ t - (m[:, 0] + np.log2(z)) / beta
        return v, dual, t - v @ g.T

    lam = np.zeros((n, k)) if lam0 is None else np.array(lam0, dtype=float)
    v, dual, grad = tilt(p, expo0, lam)
    # working copies of the rows still iterating, compacted as rows finish
    rows, pw, ew = np.arange(n), p, expo0
    lw, vw, dw, gw = lam, v, dual, grad
    done = ~feasible
    diag = np.arange(k)
    for _ in range(_NEWTON_ITERS if k else 0):
        free = (lw > 0.0) | (gw > 0.0)
        pg = np.where(free, gw, 0.0)
        keep = ~done & (np.abs(pg).max(axis=1) * (1.0 + lw.sum(axis=1)) > _TOL)
        if not keep.all():
            if not keep.any():
                break
            lam[rows], v[rows], dual[rows], grad[rows] = lw, vw, dw, gw
            rows, pw, ew, lw, vw, dw, gw, free, pg = (
                x[keep] for x in (rows, pw, ew, lw, vw, dw, gw, free, pg))
        # Newton system on the free set, with a unit pivot on bound rows
        dev = g[None, :, :] - (vw @ g.T)[:, :, None]
        cov = ((dev * vw[:, None, :]) @ dev.transpose(0, 2, 1)) \
            * (beta * math.log(2))
        var = cov[:, diag, diag]
        free &= var > _FLAT
        hess = np.where(free[:, :, None] & free[:, None, :], cov, 0.0)
        hess[:, diag, diag] = np.where(free, var * (1.0 + _RIDGE), 1.0)
        pg = np.where(free, pg, 0.0)
        step = (pg / hess[:, 0] if k == 1
                else np.linalg.solve(hess, pg[:, :, None])[:, :, 0])
        tiny = np.abs(step).max(axis=1) <= 1e-13 * (1.0 + lw.max(axis=1))
        noise = 1e-15 * (1.0 + np.abs(dw) + np.abs(lw @ t))
        # projected Armijo backtracking: the rows still searching share one
        # step length, and a tiny row takes its step whole
        length, todo = 1.0, True
        for _ in range(_BACKTRACKS):
            trial = np.maximum(lw + length * step, 0.0)
            v_t, d_t, g_t = tilt(pw, ew, trial)
            rise = _ARMIJO * (gw * (trial - lw)).sum(axis=1)
            ok = todo & (tiny | (d_t - dw >= rise - noise))
            if ok.all():  # every row takes its step
                lw, vw, dw, gw, todo = trial, v_t, d_t, g_t, ~ok
                break
            lw = np.where(ok[:, None], trial, lw)
            vw = np.where(ok[:, None], v_t, vw)
            dw = np.where(ok, d_t, dw)
            gw = np.where(ok[:, None], g_t, gw)
            todo &= ~ok
            if not todo.any():
                break
            length *= 0.5
        # a step at rounding level, or one that found no ascent, ends the row
        done = tiny | todo
    lam[rows], v[rows], dual[rows], grad[rows] = lw, vw, dw, gw
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(v > 0.0, v * np.log2(v / p), 0.0).sum(axis=1)
    value = kl / beta + v[:, i_bot] * h
    primal_violation = grad.max(axis=1) if k else np.zeros(n)
    comp = np.abs(lam * grad).sum(axis=1)
    res = np.maximum(primal_violation, np.maximum(comp, np.abs(value - dual)))
    feasible &= primal_violation <= 1e-7
    if not feasible.all():
        value[~feasible] = INF
    sol = InnerSolution(value=value, v_star=v, lam=lam, dual_value=dual,
                        kkt_residual=res, primal_violation=primal_violation,
                        comp_slack=comp, feasible=feasible)
    if lam0 is not None:
        redo = ~feasible | (res > _WARM_RES)
        if redo.any():
            cold = _inner_solve(p[redo], h[redo], cset, alpha, None)
            for f in fields(InnerSolution):
                getattr(sol, f.name)[redo] = getattr(cold, f.name)
    return sol


def inner_inf_v(p_c, h_gen: float, cset: ConstraintSet,
                alpha: float) -> InnerSolution:
    """Exact minimizer of (1/(alpha-1)) KL(v||p) + v(bot) h over the set.

    ``inner_inf_v_batch`` on a batch of one: v_lam ~ p * 2^{-(alpha-1)(h*1_bot
    - G^T lam)} with lam >= 0 found by projected Newton steps on the dual;
    the certificate carries primal feasibility, complementary slackness and
    the duality gap as plain floats.
    """
    alpha = check_alpha(alpha)
    p = np.asarray(p_c, dtype=float)
    if p.shape != (len(cset.alphabet),):
        raise AlphabetMismatchError("p_C length does not match the alphabet")
    return inner_inf_v_batch(p[None, :], np.array([float(h_gen)]), cset,
                             alpha).row(0)


_GRID_BLOCK = 1 << 16  # grid rows the oracle scores at a time


def inner_inf_v_grid(p_c, h_gen: float, cset: ConstraintSet, alpha: float,
                     resolution: int = 200) -> float:
    """Brute-force oracle: the best feasible simplex-grid point, polished by
    a penalised simplex descent. It stays a pure primal search, so the
    result is independent of the dual-tilting path it checks.

    One pass over the grid's numerators, ``_GRID_BLOCK`` rows at a time,
    divides each block to points, keeps its feasible rows and merges their
    values into the best three so far; among equal values the lower grid
    index wins. Those three rows and p_C start the polish.
    """
    alpha = check_alpha(alpha)
    p = entropy._distribution(p_c, "p_C ")
    if p.shape != (len(cset.alphabet),):
        raise AlphabetMismatchError("p_C length does not match the alphabet")
    beta = alpha - 1.0
    i_bot = cset.alphabet.index(BOT)
    supp = p > 0.0
    p_safe = np.where(supp, p, 1.0)

    def batch_vals(batch):
        # a zero entry reads 0 * log2(1) = 0
        terms = np.divide(batch, p_safe, out=np.ones_like(batch),
                          where=batch > 0)
        np.log2(terms, out=terms)
        terms *= batch
        return terms.sum(axis=1) / beta + batch[:, i_bot] * h_gen

    # a row's feasibility and value are computed from that row alone, so
    # scoring block by block gives the results of one pass over the grid
    nums = simplex_grid(len(cset.alphabet), resolution)
    top, top_vals = np.empty(0, dtype=np.intp), np.empty(0)
    for i in range(0, len(nums), _GRID_BLOCK):
        block = nums[i:i + _GRID_BLOCK] / resolution
        ok = (block @ cset.mat.T >= cset.rhs[None, :] - 1e-12).all(axis=1)
        block = block[ok]
        vals = batch_vals(block)
        vals[(block[:, ~supp] > 0).any(axis=1)] = np.inf  # mass off supp(p)
        idx = np.concatenate([top, i + np.flatnonzero(ok)])
        vals = np.concatenate([top_vals, vals])
        if vals.size > 3:  # only the three least values and their ties stay
            keep = vals <= np.partition(vals, 2)[2]
            idx, vals = idx[keep], vals[keep]
        order = np.lexsort((idx, vals))[:3]  # equal values: lower index
        top, top_vals = idx[order], vals[order]
    if top.size == 0:
        raise InfeasibleError("no feasible grid point at this resolution")
    best_val = float(top_vals[0])
    # polish with an exact-penalty simplex descent; the L1 penalty weight only
    # needs to exceed the active multipliers, and feasible iterates are scored
    # without it, so the result can only move down toward the constrained
    # minimum from the primal side. Mass off supp(p) scores +inf, so the
    # descent runs on the support alone, all four starts in lockstep.
    mu = 1e4

    def on_support(xs):
        if supp.all():
            return _softmax(xs)
        v = np.zeros((len(xs), p.size))
        v[:, supp] = _softmax(xs)
        return v

    def penalized(xs):
        v = on_support(xs)
        pen = np.maximum(cset.rhs - v @ cset.mat.T, 0.0).sum(axis=1)
        return batch_vals(v) + mu * pen

    starts = [np.log(np.maximum(nums[j][supp] / resolution, 1e-7))
              for j in top]
    starts.append(np.log(np.maximum(p[supp], 1e-7)))
    runs = nelder_mead_batch(penalized, starts, scale=1.0, tol=1e-13,
                             max_iter=2500)
    runs = nelder_mead_batch(penalized, [x for x, _, _ in runs], scale=0.01,
                             tol=1e-14, max_iter=2500)
    v = on_support(np.array([x for x, _, _ in runs]))
    for vi, val in zip(v, batch_vals(v)):
        if cset.contains(vi, tol=1e-9):
            best_val = min(best_val, float(val))
    return best_val


# ---------------------------------------------------------------------------
# strategy-level quantities
# ---------------------------------------------------------------------------

def _round_solutions(table: ResponseTable, proto: SamplingProtocol,
                     cset: ConstraintSet, alpha: float,
                     lam0=None) -> InnerSolution:
    """The certified single-round solve of a stack of response tables.

    ``table`` holds ``p[m, a, b]`` and Eve's blocks in the protocol's
    outcome and setting order. Each row's p_C is read off p through the
    score map, and its generation entropy H_alpha(A | B^up E^down) is taken
    on the stacked Eve blocks at the generation law p_gen(b) p(a|b). The
    dual solve starts at ``lam0`` (see ``_inner_solve``).
    """
    h_gen = entropy.h_partial_stack(proto.p_gen * table.p, table.cond, alpha)
    return _inner_solve(proto.score_law(table.p), h_gen, cset, alpha, lam0)


def _check_score_alphabet(cset: ConstraintSet, proto: SamplingProtocol):
    if tuple(cset.alphabet) != tuple(proto.c_alphabet):
        raise AlphabetMismatchError("constraint alphabet differs from the "
                                    "protocol score alphabet")


def single_round_h(strategy: TwoQubitStrategy, proto: SamplingProtocol,
                   cset: ConstraintSet, alpha: float,
                   outputs: str = "alice") -> InnerSolution:
    """Rate contribution of one fixed strategy (upper bounds the infimum).

    The strategy-stack solve on a stack of one; raises ``InfeasibleError``
    when the constraint set cannot be met under the strategy's p_C.
    """
    alpha = check_alpha(alpha)
    _check_score_alphabet(cset, proto)
    t = _round_table(strategy, proto, outputs)
    table = ResponseTable(t.outcomes, t.p[None], t.cond[None])
    return _round_solutions(table, proto, cset, alpha).row(0)


def rate_objective(proto: SamplingProtocol, cset: ConstraintSet, alpha: float,
                   n_a: int = 2, n_b: int = 2, outputs: str = "alice",
                   bell: tuple | None = None):
    """The strategy search's objective on stacks of parameter rows.

    Returns ``f(params, starts=None) -> values``, shape (m, 1 + n_a + n_b)
    -> (m,): the single-round rate of ``TwoQubitStrategy.from_params`` of
    each row, 1e6 where its constraint set cannot be met, plus the quadratic
    Bell penalty 50 gap^2 + gap when ``bell = (functional, threshold)`` is
    given and the row's Bell value falls short by gap > 0.

    Without ``starts`` every dual solve starts cold. With ``starts``, one
    key per row as ``nelder_mead_batch(..., keyed=True)`` passes them, the
    objective keeps per key the multipliers of the last feasible row of the
    key's previous call and starts the key's next solves there: a value is
    then exact only to the inner solver's tolerance, and it depends on its
    own key's earlier calls alone. Under ``speculate=True`` a key's call
    holds its reflection, expansion and contraction, in that order, so the
    multipliers kept are those of the last feasible of the three.
    """
    alpha = check_alpha(alpha)
    _check_score_alphabet(cset, proto)
    warm, cold = {}, np.zeros(cset.k)  # key -> its last feasible multipliers

    def objective(params, starts=None):
        x, meas_a, meas_b = params_stack(params, n_a, n_b)
        table = response_stack(x, meas_a, meas_b, proto.settings,
                               outputs=outputs).in_protocol_order(proto)
        lam0 = (None if starts is None
                else np.array([warm.get(s, cold) for s in starts]))
        sol = _round_solutions(table, proto, cset, alpha, lam0)
        if starts is not None:
            warm.update(zip(np.asarray(starts)[sol.feasible].tolist(),
                            sol.lam[sol.feasible]))
        vals = np.where(sol.feasible, sol.value, 1e6)
        if bell is not None:
            functional, threshold = bell
            rho = x @ np.swapaxes(x.conj(), -1, -2)
            gap = threshold - bell_values(rho, meas_a, meas_b, functional)
            vals = np.where(sol.feasible & (gap > 0.0),
                            vals + (50.0 * gap * gap + gap), vals)
        return vals
    return objective


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
        return asdict(self)


def optimize_strategy(proto: SamplingProtocol, cset: ConstraintSet,
                      alpha: float, restarts: int, seed: int,
                      n_a: int = 2, n_b: int = 2, outputs: str = "alice",
                      n: int = 1, p_omega: float = 1.0,
                      bell: tuple | None = None,
                      max_iter: int = 400) -> RateReport:
    """Heuristic minimization of the single-round rate over two-qubit strategies.

    ``bell`` optionally pins the search to strategies with a Bell value at
    least the given (functional, threshold) via a quadratic penalty. All
    restarts descend in lockstep on ``rate_objective``, one stacked call per
    tick that scores each restart's reflection, expansion and contraction
    together, each restart's dual solves starting at the multipliers of the
    last feasible of its rows in its own previous call, so every restart
    takes the steps it would take alone. The restarts' end points are
    scored again cold, and the value and
    certificate of the best come from a cold ``single_round_h``.
    Deterministic under ``seed``; more restarts never increase the value.
    """
    alpha = check_alpha(alpha)
    if restarts < 1:
        raise BadProbabilityError("need at least one restart")
    cset.check_nonempty()
    objective = rate_objective(proto, cset, alpha, n_a=n_a, n_b=n_b,
                               outputs=outputs, bell=bell)
    starts = []
    for i in range(restarts):
        rng = rng_from((int(seed), i))
        starts.append(np.concatenate(
            [[rng.uniform(0.0, math.pi / 4)],
             rng.uniform(-math.pi, math.pi, size=n_a + n_b)]))
    ends = np.array([x for x, _, _ in nelder_mead_batch(
        objective, starts, scale=0.3, max_iter=max_iter, keyed=True,
        speculate=True)])
    best_params = ends[np.argmin(objective(ends))]
    best = TwoQubitStrategy.from_params(best_params, n_a, n_b)
    sol = single_round_h(best, proto, cset, alpha, outputs)
    total = finite_size_bound(n, sol.value, p_omega, alpha)
    key = entropy.key_length(total, 1e-9, alpha) if 1.0 < alpha <= 2.0 else None
    return RateReport(
        alpha=alpha, h_alpha=sol.value, v_star=tuple(sol.v_star),
        p_c=tuple(proto.score_law(_round_table(best, proto, outputs).p)),
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
                      settings: str = "pairs") -> list[ComparisonRow]:
    """Partial-vs-down comparison, on Alice's outputs, with the per-setting
    entropy spread."""
    state = strategy_to_cq(strategy, np.asarray(p_b, dtype=float),
                           settings=settings, outputs="alice")
    live = [b for b, p in zip(state.alphabet("B"), state.weights.sum(axis=0))
            if p > 0.0]
    return [ComparisonRow(alpha=float(alpha), h_down=hd, h_partial=hp,
                          per_b=dict(zip(live, hb.tolist())), gap=hp - hd,
                          asymmetry=float(hb.max() - hb.min()))
            for alpha, (hd, hp, _, hb) in
            zip(alphas, entropy._down_partial(state, ["A"], "B", alphas))]


@dataclass(frozen=True)
class AsymptoticRow:
    alpha: float
    gamma: float
    value: float
    kl_term: float
    target_vn: float


def asymptotic_check(strategy: TwoQubitStrategy, schedule,
                     make_protocol, cset_for):
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
        sol = single_round_h(strategy, proto, cset, alpha)
        p_c = proto.score_law(_round_table(strategy, proto, "alice").p)
        kl = entropy.kl_divergence(sol.v_star, p_c)
        if target is None:
            state = strategy_to_cq(
                strategy, proto.p_gen,
                settings="pairs" if len(str(proto.settings[0])) > 1 else "alice")
            target = entropy.conditional_von_neumann(state, ["A"])
        rows.append(AsymptoticRow(alpha=float(alpha), gamma=float(gamma),
                                  value=sol.value, kl_term=kl,
                                  target_vn=target))
    return rows
