import math
import time
import tracemalloc

import numpy as np
import pytest

from renyiacc import eatrate
from renyiacc import entropy as ent
from renyiacc.channel import (
    BOT,
    BellFunctional,
    SamplingProtocol,
    TwoQubitStrategy,
    bell_value,
    protocol_from_dict,
    strategy_to_cq,
)
from renyiacc.eatrate import (
    ConstraintSet,
    asymptotic_check,
    compare_entropies,
    finite_size_bound,
    inner_inf_v,
    inner_inf_v_batch,
    inner_inf_v_grid,
    optimize_strategy,
    rate_objective,
    single_round_h,
    _inner_solve,
)
from renyiacc.errors import (
    AlphabetMismatchError,
    BadProbabilityError,
    InfeasibleError,
)
from renyiacc.optimize import nelder_mead_batch, simplex_grid
from renyiacc.qcore import random_distribution, rng_from

ALPHABET = ("0", "1", BOT)


def alice_protocol(gamma, p_gen=None):
    outs = ("0", "1")
    setts = tuple(f"{x}{y}" for x in range(2) for y in range(2))
    score = {(a, b): a for a in outs for b in setts}
    return SamplingProtocol(gamma=gamma, outcomes=outs, settings=setts,
                            p_gen=p_gen if p_gen is not None else [0.25] * 4,
                            p_test=[0.25] * 4, score=score, d=1)


def round_table(strategy, proto, outputs="alice"):
    """The strategy's response table in the protocol's order."""
    return strategy.response_table(proto.settings,
                                   outputs=outputs).in_protocol_order(proto)


class TestConstraintSet:
    def test_full_simplex(self):
        cs = ConstraintSet.full_simplex(ALPHABET)
        assert cs.k == 0 and cs.contains([0.2, 0.3, 0.5])

    def test_min_max(self):
        cs = ConstraintSet.min_mass(ALPHABET, "1", 0.4)
        assert cs.contains([0.1, 0.5, 0.4])
        assert not cs.contains([0.5, 0.1, 0.4])
        cs2 = ConstraintSet.max_mass(ALPHABET, BOT, 0.5)
        assert cs2.contains([0.4, 0.2, 0.4])
        assert not cs2.contains([0.1, 0.1, 0.8])

    def test_stack_and_feasibility(self):
        cs = ConstraintSet.stack(ConstraintSet.min_mass(ALPHABET, "1", 0.3),
                                 ConstraintSet.max_mass(ALPHABET, BOT, 0.6))
        point = cs.check_nonempty()
        assert cs.contains(point, tol=1e-8)
        before = point.copy()
        point[:] = -1.0  # check_nonempty hands back its own copy
        assert np.array_equal(cs.check_nonempty(), before)
        empty = ConstraintSet.stack(
            ConstraintSet.min_mass(ALPHABET, "1", 0.8),
            ConstraintSet.min_mass(ALPHABET, "0", 0.8))
        with pytest.raises(InfeasibleError):
            empty.check_nonempty()

    def test_unknown_symbol_is_named(self):
        # was "tuple.index(x): x not in tuple"
        for make in (ConstraintSet.min_mass, ConstraintSet.max_mass):
            with pytest.raises(AlphabetMismatchError,
                               match=r"'9' not in \('0', '1', '⊥'\)"):
                make(ALPHABET, "9", 0.1)

    def test_pinned_rows_met_between_grid_points(self):
        # two min = max pairs that meet only at (0.802, 0.193, 0.005), within
        # 1e-9 of no point of a 40-grid: a grid probe raised here
        g = np.array([[-0.2, 0.8, 0.9], [2.0, 1.1, -1.7]])
        t = np.array([-0.0015, 1.8078])
        cs = ConstraintSet(ALPHABET, np.vstack([g, -g]), np.concatenate([t, -t]))
        point = cs.check_nonempty()
        assert cs.contains(point)
        assert np.abs(point - [0.802, 0.193, 0.005]).max() < 1e-12


ALPHABET5 = ("0", "1", "2", "3", BOT)


def known_set(rng, alphabet, face, feasible):
    """1-3 random entries G_i v >= t_i whose face on the mask ``face`` is
    nonempty or empty by construction. A nonempty one has t = G v0 - s, with
    v0 > 0 on the face and s >= 0; about half its entries are min = max
    pairs (s = 0, two rows each). An empty one has y >= 0 with y.t above max
    over the face of (y^T G)_j, which bounds y.(G v) for every v there."""
    n, k = len(alphabet), int(rng.integers(1, 4))
    g = rng.normal(size=(k, n))
    if feasible:
        v0 = np.where(face, rng.exponential(size=n), 0.0)
        v0 /= v0.sum()
        pinned = rng.random(k) < 0.5
        t = g @ v0 - np.where(pinned, 0.0, rng.exponential(0.2, size=k))
        return ConstraintSet(alphabet, np.vstack([g, -g[pinned]]),
                             np.concatenate([t, -t[pinned]]))
    y = rng.exponential(size=k)
    t = rng.normal(size=k)
    t += y * ((y @ g)[face].max() + 0.05 - y @ t) / (y @ y)
    return ConstraintSet(alphabet, g, t)


class TestExactFeasibility:
    """Feasibility against sets whose answer is known by construction."""

    @pytest.mark.parametrize("alphabet", (ALPHABET, ALPHABET5),
                             ids=("3-symbol", "5-symbol"))
    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_the_construction(self, alphabet, seed):
        rng = rng_from((47, len(alphabet), seed))
        n = len(alphabet)
        for trial in range(16):
            face = rng.random(n) < 0.6
            face[rng.integers(n)] = True
            if trial % 4 == 0:
                face[:] = True
            feasible = trial % 2 == 0
            cs = known_set(rng, alphabet, face, feasible)
            verts = cs.vertices(face)
            assert (len(verts) > 0) == feasible
            assert (verts[:, ~face] == 0.0).all()
            assert all(cs.contains(v) for v in verts)
            if feasible or face.all():
                try:
                    point = cs.check_nonempty()
                except InfeasibleError:
                    point = None
                assert (point is not None) == feasible
                if feasible:
                    assert cs.contains(point)
                    assert abs(point.sum() - 1.0) < 1e-12
                    assert point.min() >= -1e-12
            p = np.where(face, rng.exponential(size=(2, n)), 0.0)
            p /= p.sum(axis=1, keepdims=True)
            h = rng.uniform(0.0, 1.2, size=2)
            # a face that the rows fix to one point is left out of the
            # solver's checks: see test_point_face_far_from_p_is_solved
            one_point = feasible and np.ptp(verts, axis=0).max() <= 1e-9
            for alpha in (1.1, 1.5, 2.0, 3.0):
                sol = inner_inf_v_batch(p, h, cs, alpha)
                if not feasible:
                    assert not sol.feasible.any()
                    assert np.isinf(sol.value).all()
                elif not one_point:
                    assert sol.feasible.all()
                    assert sol.kkt_residual.max() <= 1e-9

    # two min = max pairs fix v to one point, far from p
    G = np.array([[-0.82, -1.29, 0.37], [0.33, 1.18, -2.12],
                  [-2.13, -0.14, 2.06]])
    T = G @ [0.044, 0.42, 0.536] - [0.0, 0.0, 0.1]
    POINT = ConstraintSet(ALPHABET, np.vstack([G, -G[:2]]),
                          np.concatenate([T, -T[:2]]))

    def test_point_face_has_one_vertex(self):
        verts = self.POINT.vertices([True, True, True])
        assert np.abs(verts - [0.044, 0.42, 0.536]).max() < 1e-12

    @pytest.mark.xfail(strict=True, reason=(
        "the damped Newton steps end violated by about 0.93 at every order "
        "after 100 iterations, so the row reads infeasible"))
    @pytest.mark.parametrize("alpha", (1.1, 1.5, 2.0, 3.0))
    def test_point_face_far_from_p_is_solved(self, alpha):
        p = np.array([[0.895, 0.0266, 0.0785]])
        sol = inner_inf_v_batch(p / p.sum(), [0.6], self.POINT, alpha)
        assert sol.feasible.all()

    def test_faces_are_cached_per_mask(self):
        cs = ConstraintSet.min_mass(ALPHABET, "1", 0.3)
        full = cs.vertices([True, True, True])
        assert cs.vertices(np.ones(3, dtype=bool)) is full
        assert sorted(map(tuple, full.round(12))) == [
            (0.0, 0.3, 0.7), (0.0, 1.0, 0.0), (0.7, 0.3, 0.0)]
        assert not full.flags.writeable
        assert len(cs.vertices([True, False, True])) == 0


class TestInnerInfV:
    def test_full_simplex_zero_entropy(self):
        p = np.array([0.2, 0.3, 0.5])
        sol = inner_inf_v(p, 0.0, ConstraintSet.full_simplex(ALPHABET), 2.0)
        assert abs(sol.value) < 1e-12
        assert np.abs(sol.v_star - p).max() < 1e-12

    @pytest.mark.parametrize("alpha", (1.2, 2.0, 3.0))
    def test_full_simplex_analytic(self, alpha):
        p = np.array([0.15, 0.05, 0.8])
        h = 0.6
        sol = inner_inf_v(p, h, ConstraintSet.full_simplex(ALPHABET), alpha)
        beta = alpha - 1
        pred = -math.log2(sum(
            pi * 2 ** (-beta * h * (c == BOT))
            for pi, c in zip(p, ALPHABET))) / beta
        assert abs(sol.value - pred) < 1e-12
        grid = inner_inf_v_grid(p, h, ConstraintSet.full_simplex(ALPHABET),
                                alpha, resolution=120)
        assert abs(sol.value - grid) < 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_certified_against_grid(self, seed):
        rng = rng_from((40, seed))
        p = random_distribution(3, rng)
        h = float(rng.uniform(0, 1.2))
        alpha = float(rng.choice([1.2, 1.5, 2.0, 3.0]))
        bound = min(0.9, p[1] + float(rng.uniform(0.02, 0.3)))
        cs = ConstraintSet.min_mass(ALPHABET, "1", bound)
        sol = inner_inf_v(p, h, cs, alpha)
        assert sol.kkt_residual < 1e-9
        assert sol.primal_violation <= 1e-9
        assert np.all(sol.lam >= 0)
        grid = inner_inf_v_grid(p, h, cs, alpha, resolution=150)
        assert abs(sol.value - grid) < 1e-5

    def test_binding_constraint_active(self):
        p = np.array([0.05, 0.05, 0.9])
        cs = ConstraintSet.min_mass(ALPHABET, "1", 0.3)
        sol = inner_inf_v(p, 0.5, cs, 2.0)
        assert abs(sol.v_star[1] - 0.3) < 1e-9
        assert sol.lam[0] > 0

    def test_infeasible_raises(self):
        p = np.array([0.05, 0.05, 0.9])
        with pytest.raises(InfeasibleError):
            inner_inf_v(p, 0.5, ConstraintSet.min_mass(ALPHABET, "1", 1.2), 2.0)

    def test_monotone_under_nesting(self):
        p = np.array([0.1, 0.2, 0.7])
        h = 0.7
        small = ConstraintSet.min_mass(ALPHABET, "1", 0.5)
        large = ConstraintSet.min_mass(ALPHABET, "1", 0.25)
        v_small = inner_inf_v(p, h, small, 2.0).value
        v_large = inner_inf_v(p, h, large, 2.0).value
        assert v_large <= v_small + 1e-12


def bisection_reference(p, h, cset, alpha, tol=1e-12, max_sweeps=400):
    """Coordinate-ascent bisection on the dual: an independent reference.

    Each sweep sets every multiplier in turn to the smallest value that
    meets its constraint with the others held fixed (or to 0 when the
    constraint holds there). Returns (value, lam, v).
    """
    p = np.asarray(p, dtype=float)
    beta = alpha - 1.0
    e_bot = np.zeros(len(cset.alphabet))
    e_bot[cset.alphabet.index(BOT)] = 1.0
    g, t, k = cset.mat, cset.rhs, cset.k
    lam = np.zeros(k)

    def v_of(lam_vec):
        expo = np.where(p > 0, -beta * (h * e_bot - g.T @ lam_vec), -np.inf)
        w = np.where(p > 0, p * np.power(2.0, expo - expo.max()), 0.0)
        return w / w.sum()

    for _ in range(max_sweeps):
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
                lo, hi = lam[j], max(1.0, 2.0 * lam[j])
                while slack(hi) < 0.0:
                    hi *= 2.0
                    assert hi < 2.0 ** 62, "constraint unreachable"
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if slack(mid) >= 0.0:
                    hi = mid
                else:
                    lo = mid
                if hi - lo < tol * max(1.0, hi):
                    break
            moved = max(moved, abs(lam[j] - hi))
            lam[j] = hi
        if moved < tol:
            break
    v = v_of(lam)
    value = ent.kl_divergence(v, p) / beta + float(v @ e_bot) * h
    return value, lam, v


def reference_instance(seed, k):
    """A seeded score law and a set of k mass bounds around it."""
    rng = rng_from((44, k, seed))
    n = int(rng.integers(3, 6))
    alphabet = tuple(str(j) for j in range(n - 1)) + (BOT,)
    p = random_distribution(n, rng)
    h = float(rng.uniform(0.0, 1.5))
    syms = rng.choice(n, size=k, replace=False)
    sets = []
    for idx in syms:
        if rng.uniform() < 0.5:
            sets.append(ConstraintSet.min_mass(
                alphabet, alphabet[idx],
                min(0.9 / k, p[idx] + float(rng.uniform(-0.1, 0.3)))))
        else:
            sets.append(ConstraintSet.max_mass(
                alphabet, alphabet[idx],
                max(0.02, p[idx] - float(rng.uniform(-0.1, 0.3)))))
    return p, h, ConstraintSet.stack(*sets)


class TestNewtonDual:
    @pytest.mark.parametrize("alpha", (1.1, 1.5, 2.0, 3.0))
    @pytest.mark.parametrize("k", (1, 2))
    def test_matches_bisection_reference(self, k, alpha):
        active = inactive = 0
        for seed in range(12):
            p, h, cs = reference_instance(seed, k)
            ref_value, ref_lam, _ = bisection_reference(p, h, cs, alpha)
            sol = inner_inf_v(p, h, cs, alpha)
            assert abs(sol.value - ref_value) < 1e-10
            assert np.array_equal(sol.lam > 0, ref_lam > 0)
            assert sol.kkt_residual < 1e-9
            active += int((sol.lam > 0).sum())
            inactive += int((sol.lam == 0).sum())
        assert active and inactive  # both kinds of multiplier exercised

    @pytest.mark.parametrize("cs", (
        ConstraintSet.min_mass(ALPHABET, "1", 0.3),
        ConstraintSet.stack(ConstraintSet.min_mass(ALPHABET, "1", 0.3),
                            ConstraintSet.max_mass(ALPHABET, BOT, 0.6)),
        ConstraintSet.full_simplex(ALPHABET),
    ), ids=("k1", "k2", "k0"))
    def test_batch_rows_equal_single_solves(self, cs):
        p = np.array([
            [0.05, 0.05, 0.90],   # both bounds active
            [0.20, 0.50, 0.30],   # inactive
            [0.30, 0.40, 0.30],   # inactive
            [0.60, 0.00, 0.40],   # zero entry off the constrained symbol
            [0.00, 0.20, 0.80],   # zero entry, active
        ])
        h = np.array([0.5, 0.2, 1.1, 0.0, 0.7])
        if cs.k:
            p[3] = [0.60, 0.35, 0.05]
        for alpha in (1.5, 3.0):
            batch = inner_inf_v_batch(p, h, cs, alpha)
            assert batch.value.shape == (5,)
            assert batch.v_star.shape == (5, 3)
            assert batch.lam.shape == (5, cs.k)
            for i in range(5):
                one = inner_inf_v(p[i], h[i], cs, alpha)
                assert abs(batch.value[i] - one.value) < 1e-12
                assert np.abs(batch.v_star[i] - one.v_star).max() < 1e-12
                assert np.abs(batch.lam[i] - one.lam).max(initial=0) < 1e-12
                assert abs(batch.kkt_residual[i] - one.kkt_residual) < 1e-12
            if cs.k:
                assert (batch.lam[0] > 0).all()
                assert (batch.lam[1:3] == 0).all()

    def test_batch_shape_checks(self):
        cs = ConstraintSet.min_mass(ALPHABET, "1", 0.3)
        with pytest.raises(AlphabetMismatchError):
            inner_inf_v_batch(np.ones((2, 4)) / 4, np.zeros(2), cs, 2.0)
        with pytest.raises(AlphabetMismatchError):
            inner_inf_v_batch(np.ones((2, 3)) / 3, np.zeros(3), cs, 2.0)
        with pytest.raises(BadProbabilityError):
            inner_inf_v_batch(np.ones((2, 3)) / 3, [0.1, -0.5], cs, 2.0)

    def test_min_mass_on_unsupported_symbol_raises(self):
        # p_C(1) = 0: the constraint row has zero variance under every tilt
        p = np.array([0.5, 0.0, 0.5])
        with pytest.raises(InfeasibleError):
            inner_inf_v(p, 0.4, ConstraintSet.min_mass(ALPHABET, "1", 0.3), 2.0)

    @pytest.mark.parametrize("alpha", (1.5, 2.0))
    def test_repeated_constraint_row_converges(self, alpha):
        # the covariance of a repeated row is singular
        p = np.array([0.05, 0.05, 0.9])
        single = ConstraintSet.min_mass(ALPHABET, "1", 0.3)
        twice = ConstraintSet.stack(single, single)
        sol = inner_inf_v(p, 0.5, twice, alpha)
        assert sol.kkt_residual < 1e-9
        assert abs(sol.value - inner_inf_v(p, 0.5, single, alpha).value) < 1e-12
        assert abs(sol.v_star[1] - 0.3) < 1e-9

    def test_constraint_tight_at_zero_multiplier(self):
        p = np.array([0.2, 0.3, 0.5])
        free = inner_inf_v(p, 0.6, ConstraintSet.full_simplex(ALPHABET), 2.0)
        tight = ConstraintSet.min_mass(ALPHABET, "1", free.v_star[1])
        sol = inner_inf_v(p, 0.6, tight, 2.0)
        assert np.all(sol.lam == 0.0)
        assert sol.value == free.value
        # a zero bound on an unsupported symbol is tight at lam = 0 as well
        sol = inner_inf_v(np.array([0.5, 0.0, 0.5]), 0.6,
                          ConstraintSet.min_mass(ALPHABET, "1", 0.0), 2.0)
        assert np.all(sol.lam == 0.0)


class TestWarmStart:
    CS = ConstraintSet.stack(ConstraintSet.min_mass(ALPHABET, "1", 0.3),
                             ConstraintSet.max_mass(ALPHABET, BOT, 0.6))
    P = np.array([
        [0.05, 0.05, 0.90],   # both bounds active
        [0.20, 0.50, 0.30],   # inactive
        [0.50, 0.00, 0.50],   # symbol 1 unsupported: cannot be met
        [0.00, 0.20, 0.80],   # zero entry, active
    ])
    H = np.array([0.5, 0.2, 0.4, 0.7])

    @pytest.mark.parametrize("alpha", (1.5, 2.0, 3.0))
    def test_start_does_not_move_the_solution(self, alpha):
        # from 100x the optimum the Newton steps stall on the last row, whose
        # two constraints are collinear on its support: a stalled row read a
        # primal feasible, wrong value (see the test below)
        cold = inner_inf_v_batch(self.P, self.H, self.CS, alpha)
        assert cold.feasible.tolist() == [True, True, False, True]
        assert (cold.lam[0] > 0).all() and (cold.lam[1] == 0).all()
        best = cold.lam[cold.feasible]
        for lam0 in (np.zeros(2), cold.lam, 100 * cold.lam, best[0],
                     100 * best.max(axis=0)):
            warm = _inner_solve(self.P, self.H, self.CS, alpha,
                                np.broadcast_to(lam0, cold.lam.shape))
            assert warm.feasible.tolist() == cold.feasible.tolist()
            on = warm.feasible
            assert np.abs(warm.value[on] - cold.value[on]).max() < 1e-12
            assert warm.kkt_residual[on].max() <= 1e-9
            assert np.isinf(warm.value[~on]).all()

    @pytest.mark.parametrize("alpha", (1.1, 1.5, 2.0, 3.0))
    def test_far_start_does_not_end_uncertified(self, alpha):
        # at alpha = 1.1 and h = 0, from 1000x the optimum v_lam puts all its
        # mass on symbol 1: the max-mass multiplier has zero variance and
        # leaves the free set, so its step is 0 and the warm row ends
        # "feasible" at 23.219 (cold: 1.5098) with a KKT residual of 8.5e3;
        # such a row is now solved again cold
        h = np.linspace(0.0, 1.5, 16)
        p = np.tile([0.0, 0.2, 0.8], (len(h), 1))
        cold = inner_inf_v_batch(p, h, self.CS, alpha)
        assert cold.feasible.all() and cold.kkt_residual.max() <= 1e-9
        for scale in (10, 100, 1000):
            warm = _inner_solve(p, h, self.CS, alpha, scale * cold.lam)
            assert warm.feasible.all()
            assert np.abs(warm.value - cold.value).max() <= 1e-12
            assert warm.kkt_residual.max() <= 1e-9
        # the last row of P from 100x the largest optimum: its Hessian is
        # near singular, every halving of the step projects to one trial
        # point, and the warm row ends at KKT residual 73-382 (alpha 3-1.5),
        # so it too is solved again cold
        cold = inner_inf_v_batch(self.P, self.H, self.CS, alpha)
        lam0 = np.broadcast_to(100 * cold.lam[cold.feasible].max(axis=0),
                               cold.lam.shape)
        warm = _inner_solve(self.P, self.H, self.CS, alpha, lam0)
        on = cold.feasible
        assert warm.feasible.tolist() == on.tolist()
        assert np.abs(warm.value[on] - cold.value[on]).max() <= 1e-12
        assert warm.kkt_residual[on].max() <= 1e-9



# ``renyiacc rate`` on the README protocol: h_alpha of
# optimize_strategy(restarts=1, seed=j) at order (1.5, 2, 3)[j % 3], as the
# search gave it with cold dual solves at every step
README_PROTOCOL = {
    "schema": "renyiacc/protocol/v1", "gamma": 0.05,
    "outcomes": ["0", "1"], "settings": ["00", "01", "10", "11"],
    "pGen": {"00": 1.0},
    "pTest": {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}, "d": 1,
    "score": {"0|00": "0", "1|00": "1", "0|01": "0", "1|01": "1",
              "0|10": "0", "1|10": "1", "0|11": "1", "1|11": "0"}}
COLD_SEARCH_H = (0.05601277511106681, 0.0001223267090003911,
                 0.014003193777836417, 0.05601277511359655,
                 0.0001223267090016473, 6.116335449986404e-05)


@pytest.mark.parametrize("seed", range(6))
def test_warm_started_search_keeps_the_cold_rates(seed):
    proto = protocol_from_dict(README_PROTOCOL)
    cset = ConstraintSet.min_mass(proto.c_alphabet, "1", 0.04)
    rep = optimize_strategy(proto, cset, (1.5, 2.0, 3.0)[seed % 3],
                            restarts=1, seed=seed)
    assert abs(rep.h_alpha - COLD_SEARCH_H[seed]) <= 1e-9
    assert rep.kkt_residual <= 1e-9


def test_keyed_objective_starts_each_key_at_its_own_multipliers(
        monkeypatch):
    calls = []

    def spy(p, h, cset, alpha, lam0, solve=eatrate._inner_solve):
        sol = solve(p, h, cset, alpha, lam0)
        calls.append((lam0, sol))
        return sol

    monkeypatch.setattr(eatrate, "_inner_solve", spy)
    proto = protocol_from_dict(README_PROTOCOL)
    cset = ConstraintSet.min_mass(proto.c_alphabet, "1", 0.04)
    f = rate_objective(proto, cset, 1.5)
    pts = rng_from(17).uniform(-1.0, 1.0, size=(7, 5))
    cold = f(pts)
    assert calls[-1][0] is None and (cold < 1e6).all()
    f(pts[:4], np.array([0, 0, 1, 1]))  # unseen keys start at zero
    first = calls[-1][1]
    assert (calls[-1][0] == 0.0).all() and (first.lam > 0.0).all()
    vals = f(pts[4:], np.array([1, 0, 2]))
    # each key starts at the last row of its own previous call
    assert calls[-1][0].tolist() == [first.lam[3].tolist(),
                                     first.lam[1].tolist(), [0.0]]
    assert np.abs(vals - cold[4:]).max() <= 1e-12


@pytest.mark.parametrize("alpha", (1.1, 1.5, 2.0, 3.0))
def test_keyed_warm_search_solves_no_row_again_cold(alpha, monkeypatch):
    # the cold re-solve of a warm row is a safety net, not a hot path: a
    # warm search on the README protocol certifies every warm row
    depth, warm, redone = [0], [], []

    def spy(p, h, cset, alpha, lam0, solve=eatrate._inner_solve):
        if depth[0] == 0 and lam0 is not None:
            warm.append(len(p))
        elif depth[0] and lam0 is None:  # nested: a warm row solved again
            redone.append(len(p))
        depth[0] += 1
        try:
            return solve(p, h, cset, alpha, lam0)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(eatrate, "_inner_solve", spy)
    proto = protocol_from_dict(README_PROTOCOL)
    cset = ConstraintSet.min_mass(proto.c_alphabet, "1", 0.04)
    rep = optimize_strategy(proto, cset, alpha, restarts=3, seed=5,
                            max_iter=60)
    assert sum(warm) > 100 and redone == []
    assert rep.kkt_residual <= 1e-9


def test_keyed_lockstep_runs_each_restart_as_alone():
    # lockstep and lone runs differ only in the last bits that the stacked
    # score-law product rounds differently at other batch sizes
    proto = protocol_from_dict(README_PROTOCOL)
    cset = ConstraintSet.min_mass(proto.c_alphabet, "1", 0.04)
    starts = [rng_from((16, i)).uniform(-1.0, 1.0, size=5) for i in range(3)]
    together = nelder_mead_batch(rate_objective(proto, cset, 2.0), starts,
                                 scale=0.3, max_iter=60, keyed=True)
    for x0, (x, val, evals) in zip(starts, together):
        [(xa, va, ea)] = nelder_mead_batch(rate_objective(proto, cset, 2.0),
                                           [x0], scale=0.3, max_iter=60,
                                           keyed=True)
        assert ea == evals
        assert np.abs(xa - x).max() <= 1e-12 and abs(va - val) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_more_restarts_never_raise_the_value_under_a_constraint(seed):
    proto = protocol_from_dict(README_PROTOCOL)
    cset = ConstraintSet.min_mass(proto.c_alphabet, "1", 0.04)
    r1 = optimize_strategy(proto, cset, 2.0, restarts=1, seed=seed,
                           max_iter=60)
    r3 = optimize_strategy(proto, cset, 2.0, restarts=3, seed=seed,
                           max_iter=60)
    assert r3.h_alpha <= r1.h_alpha + 1e-12
    assert r3.kkt_residual <= 1e-9


def test_grid_oracle_checks_the_alphabet():
    cs = ConstraintSet.full_simplex(ALPHABET)
    with pytest.raises(AlphabetMismatchError):
        inner_inf_v_grid(np.full(4, 0.25), 0.3, cs, 2.0, resolution=10)


class TestGenRound:
    @pytest.mark.parametrize("seed", range(8))
    def test_deterministic_pgen_equals_down(self, seed):
        rng = rng_from((41, seed))
        s = TwoQubitStrategy.from_params(
            np.concatenate([[rng.uniform(0, math.pi / 4)],
                            rng.uniform(-math.pi, math.pi, 4)]), 2, 2)
        k = int(rng.integers(0, 4))
        p_gen = np.zeros(4)
        p_gen[k] = 1.0
        st = strategy_to_cq(s, p_gen)
        ge = ent.h_partial(st, ["A"], "B", 2.0)
        hd = ent.h_down(st, ["A"], 2.0)
        assert abs(ge - hd) < 1e-10

    def test_pure_max_chsh_equals_up(self):
        s = TwoQubitStrategy.chsh_tsirelson()
        p_gen = np.ones(4) / 4
        st = strategy_to_cq(s, p_gen)
        ge = ent.h_partial(st, ["A"], "B", 2.0)
        hu = ent.h_up(st.marginal(["A", "B"]), ["A"], 2.0)
        assert abs(ge - hu) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_sandwich_ordering(self, seed):
        rng = rng_from((42, seed))
        s = TwoQubitStrategy.from_params(
            np.concatenate([[rng.uniform(0, math.pi / 4)],
                            rng.uniform(-math.pi, math.pi, 4)]), 2, 2)
        p_gen = random_distribution(4, rng)
        st = strategy_to_cq(s, p_gen)
        for alpha in (1.5, 2.0):
            ge = ent.h_partial(st, ["A"], "B", alpha)
            assert ent.h_down(st, ["A"], alpha) <= ge + 1e-9
            assert ge <= ent.h_up(st, ["A"], alpha) + 1e-9


class TestSingleRound:
    def test_gamma_zero_value_is_gen_entropy(self):
        proto = alice_protocol(0.0)
        s = TwoQubitStrategy.chsh_tsirelson()
        cset = ConstraintSet.full_simplex(proto.c_alphabet)
        sol = single_round_h(s, proto, cset, 2.0)
        # p_C is a point mass on bot, so v = delta_bot and the value is the
        # full generation entropy
        assert abs(sol.value - ent.h_partial(strategy_to_cq(s, proto.p_gen),
                                             ["A"], "B", 2.0)) < 1e-9

    def test_honest_threshold_gives_weighted_gen(self):
        # near order one the KL coefficient dominates, pinning the optimizer
        # to the honest score distribution and the rate to (1-gamma) h_gen
        gamma = 0.2
        alpha = 1.01
        proto = alice_protocol(gamma)
        s = TwoQubitStrategy.chsh_tsirelson()
        p_c = proto.score_law(round_table(s, proto).p)
        cset = ConstraintSet.min_mass(proto.c_alphabet, "1",
                                      p_c[proto.c_alphabet.index("1")] - 1e-6)
        sol = single_round_h(s, proto, cset, alpha)
        kl = ent.kl_divergence(sol.v_star, p_c)
        assert kl < 0.01
        expect = (1 - gamma) * ent.h_partial(strategy_to_cq(s, proto.p_gen),
                                             ["A"], "B", alpha)
        assert abs(sol.value - expect) < 0.02

    def test_tighter_than_down_variant(self):
        # replacing the partial entropy by the plain down entropy can only
        # lower the objective
        proto = alice_protocol(0.1)
        rng = rng_from(43)
        s = TwoQubitStrategy.from_params(
            np.concatenate([[0.5], rng.uniform(-2, 2, 4)]), 2, 2)
        cset = ConstraintSet.full_simplex(proto.c_alphabet)
        sol = single_round_h(s, proto, cset, 2.0)
        hd = ent.h_down(strategy_to_cq(s, proto.p_gen), ["A"], 2.0)
        down_sol = inner_inf_v(proto.score_law(round_table(s, proto).p), hd,
                               cset, 2.0)
        assert sol.value >= down_sol.value - 1e-10


class TestFiniteSize:
    def test_trivial_event(self):
        assert abs(finite_size_bound(100, 0.5, 1.0, 2.0) - 50.0) < 1e-12

    def test_linear_in_n(self):
        b1 = finite_size_bound(10, 0.5, 0.9, 2.0)
        b2 = finite_size_bound(20, 0.5, 0.9, 2.0)
        assert abs((b2 - b1) - 10 * 0.5) < 1e-12

    def test_validation(self):
        with pytest.raises(BadProbabilityError):
            finite_size_bound(10, 0.5, 0.0, 2.0)
        with pytest.raises(BadProbabilityError):
            finite_size_bound(0, 0.5, 0.9, 2.0)


class TestOptimizeStrategy:
    def test_reproducible_and_monotone_in_restarts(self):
        proto = alice_protocol(0.1)
        cset = ConstraintSet.full_simplex(proto.c_alphabet)
        r1 = optimize_strategy(proto, cset, 2.0, restarts=1, seed=5,
                               max_iter=60)
        r1b = optimize_strategy(proto, cset, 2.0, restarts=1, seed=5,
                                max_iter=60)
        assert r1.h_alpha == r1b.h_alpha
        r3 = optimize_strategy(proto, cset, 2.0, restarts=3, seed=5,
                               max_iter=60)
        assert r3.h_alpha <= r1.h_alpha + 1e-12
        assert r3.kkt_residual < 1e-9
        assert r3.note.startswith("upper bound")

    def test_unconstrained_rate_collapses(self):
        # with no statistical constraint the best attack is deterministic and
        # the certified rate is (near) zero
        proto = alice_protocol(0.05)
        cset = ConstraintSet.full_simplex(proto.c_alphabet)
        rep = optimize_strategy(proto, cset, 2.0, restarts=4, seed=7,
                                max_iter=250)
        assert rep.h_alpha < 0.05


class TestCompare:
    def test_deterministic_pb_zero_gap(self):
        s = TwoQubitStrategy.chsh_tsirelson()
        p_b = np.array([1.0, 0.0, 0.0, 0.0])
        rows = compare_entropies(s, p_b, (1.5, 2.0))
        for r in rows:
            assert abs(r.gap) < 1e-10

    def test_symmetric_chsh_tiny_gap(self):
        s = TwoQubitStrategy.chsh_tsirelson()
        rows = compare_entropies(s, np.ones(4) / 4, (2.0,))
        assert rows[0].gap < 1e-9
        assert rows[0].asymmetry < 1e-9

    def test_gap_positive_when_asymmetric(self):
        s = TwoQubitStrategy.from_schmidt(
            0.45, meas_a=((0.1, 0.0), (1.3, 0.0)), meas_b=((0.6, 0.0),))
        rows = compare_entropies(s, np.array([0.5, 0.5]), (2.0,),
                                 settings="alice")
        assert rows[0].asymmetry > 1e-3
        assert rows[0].gap > 0


class TestAsymptotics:
    def test_honest_chsh_approaches_one_bit(self):
        s = TwoQubitStrategy.chsh_tsirelson()
        schedule = [(1.2, 0.05), (1.05, 0.01), (1.001, 1e-4)]
        rows = asymptotic_check(
            s, schedule, alice_protocol,
            lambda proto: ConstraintSet.full_simplex(proto.c_alphabet))
        vals = [r.value for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        assert 0.98 <= vals[-1] <= 1.0 + 1e-9
        assert rows[-1].kl_term < 1e-3
        assert abs(rows[-1].target_vn - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# the strategy-stack objective and the masked batch solve
# ---------------------------------------------------------------------------

def parity_protocol(gamma=0.3):
    """Pair outputs scored by their parity; generation on two of four pairs."""
    outs = ("00", "01", "10", "11")
    setts = tuple(f"{x}{y}" for x in range(2) for y in range(2))
    score = {(a, b): str(int(a[0]) ^ int(a[1])) for a in outs for b in setts}
    return SamplingProtocol(gamma=gamma, outcomes=outs, settings=setts,
                            p_gen=[0.7, 0.0, 0.3, 0.0], p_test=[0.25] * 4,
                            score=score, d=1)


class TestStrategyBatch:
    def test_objective_rows_match_single_round_h(self):
        proto = parity_protocol()
        cset = ConstraintSet.min_mass(proto.c_alphabet, "1", 0.05)
        chsh = BellFunctional.chsh()
        rng = rng_from(44)
        params = np.concatenate([rng.uniform(0, math.pi / 4, (7, 1)),
                                 rng.uniform(-math.pi, math.pi, (7, 4))],
                                axis=1)
        # a product state measured along z: a = b = 0, so parity "1" never
        # occurs and the bound on it cannot be met
        params[3] = 0.0
        for alpha in (1.5, 2.0):
            vals = rate_objective(proto, cset, alpha, outputs="pair",
                                  bell=(chsh, 2.5))(params)
            assert vals.shape == (7,)
            for i, row in enumerate(params):
                s = TwoQubitStrategy.from_params(row, 2, 2)
                try:
                    want = single_round_h(s, proto, cset, alpha,
                                          outputs="pair").value
                except InfeasibleError:
                    assert i == 3
                    assert vals[i] == 1e6
                    continue
                gap = 2.5 - bell_value(s, chsh)
                if gap > 0.0:
                    want += 50.0 * gap * gap + gap
                assert abs(vals[i] - want) < 1e-12
            assert (vals[[0, 1, 2, 4, 5, 6]] < 1e6).all()

    def test_objective_is_row_independent(self):
        proto = alice_protocol(0.1)
        cset = ConstraintSet.min_mass(proto.c_alphabet, "1", 0.02)
        f = rate_objective(proto, cset, 2.0)
        rng = rng_from(45)
        params = rng.uniform(-2, 2, (5, 5))
        vals = f(params)
        for i in range(5):
            assert abs(f(params[i:i + 1])[0] - vals[i]) < 1e-12

    def test_masked_batch_feasible_rows_equal_lone_solves(self):
        cs = ConstraintSet.min_mass(ALPHABET, "1", 0.3)
        p = np.array([
            [0.05, 0.05, 0.90],
            [0.50, 0.00, 0.50],   # symbol 1 unsupported: cannot be met
            [0.20, 0.50, 0.30],
            [0.70, 0.00, 0.30],   # likewise
            [0.00, 0.20, 0.80],
        ])
        h = np.array([0.5, 0.4, 1.1, 0.2, 0.7])
        for alpha in (1.5, 3.0):
            batch = inner_inf_v_batch(p, h, cs, alpha)
            assert batch.feasible.tolist() == [True, False, True, False, True]
            assert np.isinf(batch.value[[1, 3]]).all()
            for i in (0, 2, 4):
                one = inner_inf_v(p[i], h[i], cs, alpha)
                assert abs(batch.value[i] - one.value) < 1e-12
                assert np.abs(batch.v_star[i] - one.v_star).max() < 1e-12
                assert np.abs(batch.lam[i] - one.lam).max() < 1e-12
                assert abs(batch.kkt_residual[i] - one.kkt_residual) < 1e-12
            for i in (1, 3):
                with pytest.raises(InfeasibleError):
                    inner_inf_v(p[i], h[i], cs, alpha)
                with pytest.raises(InfeasibleError):
                    batch.row(i)

    def test_masked_batch_unbounded_multiplier(self):
        # no distribution has v(1) >= 1.2: every multiplier runs away
        cs = ConstraintSet.min_mass(ALPHABET, "1", 1.2)
        p = np.array([[0.05, 0.05, 0.9], [0.3, 0.3, 0.4]])
        batch = inner_inf_v_batch(p, np.array([0.5, 0.1]), cs, 2.0)
        assert not batch.feasible.any()

    def test_single_round_h_infeasible_raises(self):
        proto = parity_protocol()
        cset = ConstraintSet.min_mass(proto.c_alphabet, "1", 0.05)
        s = TwoQubitStrategy.from_params(np.zeros(5), 2, 2)
        with pytest.raises(InfeasibleError):
            single_round_h(s, proto, cset, 2.0, outputs="pair")


def test_grid_oracle_polishes_on_the_support():
    # p_C(1) = 0: the polish runs on {0, bot}, where the constrained minimum
    # lies between grid points
    p = np.array([0.5, 0.0, 0.5])
    cs = ConstraintSet.min_mass(ALPHABET, "0", 0.2)
    for h, alpha in ((1.0, 1.5), (0.4, 2.0), (0.1, 3.0)):
        sol = inner_inf_v(p, h, cs, alpha)
        start = time.perf_counter()
        grid = inner_inf_v_grid(p, h, cs, alpha, resolution=100)
        assert time.perf_counter() - start < 1.0
        assert abs(grid - sol.value) < 1e-5


def test_grid_oracle_pinned_values():
    # values recorded from the oracle before its objective was trimmed: the
    # second case has p_C(1) = 0, so grid points with mass there score +inf;
    # the third has no constraint rows (k = 0)
    rng = np.random.default_rng(7)
    abc, abcd = ALPHABET, ("0", "1", "2", BOT)
    p3, p4 = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4))
    p4[1] = 0.0
    p4 /= p4.sum()
    pf = rng.dirichlet(np.ones(3))
    cases = [
        (p3, 0.7, ConstraintSet.min_mass(abc, "1", p3[1] + 0.2), 2.0, 100,
         0.212628652636748),
        (p4, 0.9, ConstraintSet.max_mass(abcd, "0", p4[0] - 0.15), 1.5, 60,
         0.25867421671087165),
        (pf, 0.6, ConstraintSet.full_simplex(abc), 3.0, 80,
         0.03401151761099559),
    ]
    for p, h, cs, alpha, resolution, pinned in cases:
        assert inner_inf_v_grid(p, h, cs, alpha, resolution) == pinned


ABCD = ("0", "1", "2", BOT)


def grid_reference(p, h, cset, alpha, resolution):
    """Brute force over the whole grid at once: the feasible rows' indices
    and values, ordered by value and then by index."""
    grid = simplex_grid(len(p), resolution) / resolution
    feas = np.flatnonzero((grid @ cset.mat.T >= cset.rhs - 1e-12).all(axis=1))
    g = grid[feas]
    ratio = np.where(g > 0, g / np.where(p > 0, p, 1.0), 1.0)
    vals = (g * np.log2(ratio)).sum(axis=1) / (alpha - 1.0) + g[:, -1] * h
    vals[(g[:, p == 0] > 0).any(axis=1)] = np.inf
    order = np.lexsort((feas, vals))
    return feas[order], vals[order]


def block_cases():
    rng = np.random.default_rng(11)
    p3, p4 = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4))
    return [
        (p3, 0.5, ConstraintSet.min_mass(ALPHABET, "1", p3[1] + 0.1), 2.0, 40),
        (p4, 0.8, ConstraintSet.max_mass(ABCD, "2", p4[2] - 0.1), 1.5, 30),
        # the best grid point lies in the last, partial block of 64 rows
        (np.array([0.9, 0.04, 0.06]), 0.3, ConstraintSet.full_simplex(ALPHABET),
         1.5, 40),
    ]


@pytest.mark.parametrize("case", range(3))
@pytest.mark.parametrize("block", [5, 64])
def test_grid_oracle_is_independent_of_the_block_size(monkeypatch, case,
                                                      block):
    p, h, cs, alpha, res = block_cases()[case]
    want = inner_inf_v_grid(p, h, cs, alpha, res)
    if case == 2:
        n = len(simplex_grid(len(p), res))
        assert grid_reference(p, h, cs, alpha, res)[0][0] >= n - n % 64 > 0
    monkeypatch.setattr(eatrate, "_GRID_BLOCK", block)
    assert inner_inf_v_grid(p, h, cs, alpha, res) == want


@pytest.mark.parametrize("block", [5, 1 << 16])
def test_grid_oracle_with_one_or_two_feasible_points(monkeypatch, block):
    monkeypatch.setattr(eatrate, "_GRID_BLOCK", block)
    p, h, alpha, res = np.array([0.5, 0.2, 0.3]), 0.4, 2.0, 20
    # only the vertex at symbol 1 meets v(1) >= 1
    one = ConstraintSet.min_mass(ALPHABET, "1", 1.0)
    assert len(grid_reference(p, h, one, alpha, res)[0]) == 1
    assert inner_inf_v_grid(p, h, one, alpha, res) == pytest.approx(
        -math.log2(0.2) / (alpha - 1.0), abs=1e-12)
    # v(0) >= 19/20 and v(1) <= 0: two grid points, in different blocks of 5
    two = ConstraintSet(ALPHABET, [[1, 0, 0], [0, -1, 0]], [1 - 1 / res, 0])
    idx, vals = grid_reference(p, h, two, alpha, res)
    assert len(idx) == 2
    got = inner_inf_v_grid(p, h, two, alpha, res)
    assert got <= vals[0]
    assert got == pytest.approx(inner_inf_v(p, h, two, alpha).value,
                                abs=1e-9)


@pytest.mark.parametrize("block", [5, 1 << 16])
def test_grid_oracle_without_a_feasible_point(monkeypatch, block):
    # the set v(0) = 0.3 is not empty, but no point of resolution 7 is in it
    monkeypatch.setattr(eatrate, "_GRID_BLOCK", block)
    cs = ConstraintSet(ALPHABET, [[1, 0, 0], [-1, 0, 0]], [0.3, -0.3])
    assert cs.check_nonempty()[0] == pytest.approx(0.3)
    with pytest.raises(InfeasibleError):
        inner_inf_v_grid(np.array([0.5, 0.2, 0.3]), 0.4, cs, 2.0, 7)


@pytest.mark.parametrize("cs", [ConstraintSet.full_simplex(ABCD),
                                ConstraintSet.min_mass(ABCD, BOT, 0.2)])
def test_grid_oracle_breaks_ties_by_grid_index(monkeypatch, cs):
    # p and the set treat symbols 0 and 1 alike, so rows that swap them tie;
    # the third and fourth best rows are such a pair
    p, h, alpha, res = np.array([0.13, 0.13, 0.37, 0.37]), 0.5, 2.0, 12
    idx, vals = grid_reference(p, h, cs, alpha, res)
    assert vals[2] == vals[3] and idx[2] < idx[3]
    seen = []
    real = eatrate.nelder_mead_batch

    def spy(f, x0s, **kw):
        seen.append([np.array(x) for x in x0s])
        return real(f, x0s, **kw)

    monkeypatch.setattr(eatrate, "nelder_mead_batch", spy)
    inner_inf_v_grid(p, h, cs, alpha, res)
    rows = simplex_grid(4, res)[idx[:3]] / res
    want = np.log(np.maximum(rows, 1e-7))
    assert np.array_equal(np.array(seen[0][:3]), want)


def test_grid_oracle_call_traces_little_memory():
    # every row of the 4-symbol grid is feasible here, so every block is
    # scored whole; the shared grid is built before tracing starts
    cs = ConstraintSet.full_simplex(ABCD)
    simplex_grid(4, 200)
    tracemalloc.start()
    try:
        inner_inf_v_grid(np.full(4, 0.25), 0.5, cs, 2.0, resolution=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
