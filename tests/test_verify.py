import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from renyiacc import entropy as ent
from renyiacc.channel import BOT, SamplingProtocol
from renyiacc.counterexample import counterexample_channel_instance
from renyiacc.eatrate import ConstraintSet, inner_inf_v
from renyiacc.errors import AlphabetMismatchError, EmptyEventError
from renyiacc.optimize import nelder_mead_batch, simplex_grid
from renyiacc.qcore import rng_from
from renyiacc.verify import (
    ALL_CHECKS,
    ClassicalAttack,
    SuiteConfig,
    _random_protocol,
    check_chain_rule,
    check_classical_chain,
    check_fweighted_props,
    check_partial_entropy_props,
    check_ordering,
    check_read_and_prepare,
    check_two_round_accumulation,
    chain_rule_gap,
    random_attack,
    run_property_suite,
    simulate_two_rounds,
)

SMALL = SuiteConfig(seed=3, counts={"ordering": 10, "partial_props": 5, "chain_rule": 5,
                                    "classical_chain": 30, "fweighted": 4,
                                    "read_and_prepare": 5, "two_round": 6})


def simple_protocol(gamma, n_a=2, n_b=2):
    outs = tuple(str(a) for a in range(n_a))
    setts = tuple(str(b) for b in range(n_b))
    score = {(a, b): str((int(a) + int(b)) % 2) for a in outs for b in setts}
    return SamplingProtocol(gamma=gamma, outcomes=outs, settings=setts,
                            p_gen=np.ones(n_b) / n_b, p_test=np.ones(n_b) / n_b,
                            score=score, d=1)


class TestChecksPass:
    def test_ordering(self):
        assert check_ordering(SMALL).passed

    def test_partial_entropy_props(self):
        assert check_partial_entropy_props(SMALL).passed

    def test_chain_rule(self):
        rep = check_chain_rule(SMALL)
        assert rep.passed
        assert rep.instances == 6  # includes the worked counterexample

    def test_classical_chain(self):
        assert check_classical_chain(SMALL).passed

    def test_fweighted(self):
        assert check_fweighted_props(SMALL).passed

    def test_read_and_prepare(self):
        assert check_read_and_prepare(SMALL).passed

    def test_two_round(self):
        assert check_two_round_accumulation(SMALL).passed


class TestDeterminism:
    def test_suite_repeats_identically(self):
        cfg = SuiteConfig(seed=9, counts={k: 3 for k in ALL_CHECKS})
        r1 = run_property_suite(cfg)
        r2 = run_property_suite(cfg)
        for a, b in zip(r1.results, r2.results):
            assert a.worst_slack == b.worst_slack
            assert a.passed == b.passed

    def test_report_serializes(self):
        cfg = SuiteConfig(seed=9, counts={k: 2 for k in ALL_CHECKS})
        doc = run_property_suite(cfg).as_dict()
        assert doc["all_passed"] in (True, False)
        assert len(doc["results"]) == len(ALL_CHECKS)


class TestMutationSanity:
    def test_broken_entropy_is_caught(self):
        # an off-by-base partial entropy (natural log instead of log2)
        def broken_partial(state, a_names, up_name, alpha):
            return ent.h_partial(state, a_names, up_name, alpha) * math.log(2)

        rep = check_ordering(SMALL, h_partial_fn=broken_partial)
        assert not rep.passed
        assert rep.failures
        assert "seed" in rep.failures[0]

    def test_reproducer_seed_replays(self):
        def broken_partial(state, a_names, up_name, alpha):
            return ent.h_partial(state, a_names, up_name, alpha) - 0.1

        rep = check_ordering(SMALL, h_partial_fn=broken_partial)
        assert not rep.passed
        seed = tuple(rep.failures[0]["seed"])
        rng = rng_from(seed)
        assert rng is not None  # the child seed is reconstructible

    @pytest.mark.parametrize("fn, shift", [("h_down_fn", 0.1),
                                           ("h_up_fn", -0.1)])
    def test_broken_bound_is_caught_and_replays(self, fn, shift):
        base = ent.h_down if fn == "h_down_fn" else ent.h_up

        def broken(state, a_names, alpha):
            return base(state, a_names, alpha) + shift

        rep = check_ordering(SMALL, **{fn: broken})
        assert not rep.passed
        assert rep.worst_slack < -0.09
        first = rep.failures[0]
        suite_seed, tag, index = first["seed"]
        assert (suite_seed, tag) == (SMALL.seed, 1)
        # the child seed alone rebuilds the failing instance
        replay = check_ordering(
            SuiteConfig(seed=suite_seed, counts={"ordering": index + 1}),
            **{fn: broken})
        assert first in replay.failures


    def test_two_round_skips_empty_events(self, monkeypatch):
        # every other attack has an empty non-abort event; the rest fail
        import renyiacc.verify as verify
        calls = []

        def fake(proto, attack, cset, alpha):
            calls.append(alpha)
            if len(calls) % 2:
                raise EmptyEventError("no mass")
            return verify.TwoRoundResult(lhs_exact=0.0, bound=1.0,
                                         h_alpha=0.5, p_omega=0.5)

        monkeypatch.setattr(verify, "simulate_two_rounds", fake)
        rep = check_two_round_accumulation(
            SuiteConfig(seed=4, counts={"two_round": 3}))
        assert rep.instances == 3 and len(calls) == 6
        assert [f["seed"] for f in rep.failures] == [(4, 7, 1), (4, 7, 3),
                                                     (4, 7, 5)]
        assert rep.worst_slack == -1.0


PINS = json.loads((Path(__file__).parent / "suite_pins.json").read_text())


def _assert_pinned(got: dict, want: dict):
    """``got`` (a ``PropertyReport.as_dict()``) against its pinned report.

    The pins were taken when six of the seven checks reported the worst
    slack plus their tolerance; only ``ordering`` reported the raw slack.
    Every check now reports the raw slack, so the pinned value less the
    tolerance is expected of the other six, to rounding.
    """
    got = json.loads(json.dumps(got))  # seed tuples as JSON lists
    got.pop("elapsed")
    g_slack, w_slack = got.pop("worst_slack"), want["worst_slack"]
    assert got == {k: v for k, v in want.items() if k != "worst_slack"}
    if got["name"] == "ordering":
        assert g_slack == w_slack
    else:
        assert abs(g_slack - (w_slack - want["tolerance"])) <= 1e-15


class TestPinnedSuite:
    @pytest.mark.parametrize("seed", (0, 5))
    def test_suite_report_is_pinned(self, seed):
        cfg = SuiteConfig(seed=seed, counts={k: 4 for k in ALL_CHECKS})
        doc = run_property_suite(cfg).as_dict()
        want = PINS[f"suite-{seed}"]
        assert (doc["seed"], doc["all_passed"]) == (want["seed"],
                                                    want["all_passed"])
        assert len(doc["results"]) == len(want["results"])
        for got, pin in zip(doc["results"], want["results"]):
            _assert_pinned(got, pin)

    def test_mutation_report_is_pinned(self):
        def broken_partial(state, a_names, up_name, alpha):
            return ent.h_partial(state, a_names, up_name, alpha) - 0.1

        rep = check_ordering(SuiteConfig(seed=3, counts={"ordering": 6}),
                             h_partial_fn=broken_partial)
        assert rep.instances == 6 and len(rep.failures) == 24
        _assert_pinned(rep.as_dict(), PINS["mutation"])


class TestChainRuleInstance:
    def test_counterexample_instance_holds_with_gap(self):
        omega, p_b2, kernel = counterexample_channel_instance()
        slack, cert, lhs, first, inf_term = chain_rule_gap(
            omega, p_b2, kernel, 1.5)
        assert slack > 0.005  # strictly positive gap at order 1.5
        assert cert < 1e-8
        assert abs(lhs - 0.82057) < 1e-5
        assert abs(first - 0.35295) < 1e-5
        assert inf_term < 0.47118  # partial-entropy infimum below the up one

    def test_product_channel_additivity(self):
        # a channel ignoring its memory makes the chain rule tight
        rng = rng_from(77)
        from renyiacc.qcore import random_distribution
        omega = random_distribution(4, rng).reshape(2, 2, 1)
        p_b2 = random_distribution(2, rng)
        kernel = np.zeros((2, 1, 2))
        for b2 in range(2):
            kernel[:, 0, b2] = random_distribution(2, rng)
        slack, cert, lhs, first, inf_term = chain_rule_gap(
            omega, p_b2, kernel, 2.0)
        assert abs(slack) < 1e-9


class TestTwoRounds:
    def test_iid_honest_attack(self):
        proto = simple_protocol(0.3)
        # memoryless deterministic-ish attack: kernels ignore memory
        rng = rng_from(11)
        from renyiacc.qcore import random_distribution
        k = np.zeros((2, 2, 2, 2))
        for b in range(2):
            out = random_distribution(2, rng)
            for r in range(2):
                k[r, b, :, 0] = out  # memory reset to 0
        attack = ClassicalAttack(np.array([[1.0], [0.0]]), (k, k))
        cset = ConstraintSet.full_simplex(proto.c_alphabet)
        res = simulate_two_rounds(proto, attack, cset, 2.0)
        assert res.p_omega == 1.0
        assert res.bound == pytest.approx(2 * res.h_alpha)
        assert res.slack >= -1e-9
        # the exact entropy of two independent rounds is twice one round
        single = simulate_two_rounds(proto, attack, cset, 2.0)
        assert res.lhs_exact == pytest.approx(single.lhs_exact)

    def test_full_event_zero_penalty(self):
        proto = simple_protocol(0.5)
        attack = random_attack(rng_from(12), 2, 2, 2, 2)
        cset = ConstraintSet.full_simplex(proto.c_alphabet)
        res = simulate_two_rounds(proto, attack, cset, 1.5)
        assert res.p_omega == 1.0
        assert res.bound == pytest.approx(2 * res.h_alpha)

    def test_empty_event_raises(self):
        proto = simple_protocol(0.0)  # only bot ever occurs
        attack = random_attack(rng_from(13), 2, 1, 2, 2)
        cset = ConstraintSet.min_mass(proto.c_alphabet, "1", 0.9)
        with pytest.raises(EmptyEventError):
            simulate_two_rounds(proto, attack, cset, 2.0)

    def test_alphabet_mismatch_raises(self):
        proto = simple_protocol(0.3)
        attack = random_attack(rng_from(15), 2, 1, 2, 2)
        cset = ConstraintSet.full_simplex(("0", "1", "2", BOT))
        with pytest.raises(AlphabetMismatchError):
            simulate_two_rounds(proto, attack, cset, 2.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_two_bit_scores(self, seed):
        rng = rng_from((16, seed))
        proto = _random_protocol(rng, 3, 2, d=2)
        attack = random_attack(rng, 2, 2, 2, 3)
        cset = ConstraintSet.max_mass(proto.c_alphabet, BOT,
                                      min(1.0, 1.0 - proto.gamma + 0.1))
        res = simulate_two_rounds(proto, attack, cset, 2.0)
        assert res.slack >= -1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_adversarial_memory_attacks(self, seed):
        rng = rng_from((14, seed))
        proto = simple_protocol(float(rng.uniform(0.1, 0.9)))
        attack = random_attack(rng, 3, 2, 2, 2)
        p_bot = 1.0 - proto.gamma
        cset = ConstraintSet.max_mass(proto.c_alphabet, BOT,
                                      min(1.0, p_bot + 0.1))
        res = simulate_two_rounds(proto, attack, cset, 2.0)
        assert res.slack >= -1e-9

    def test_scripted_reset_attack(self):
        # round two answers deterministically from the copied round-one key
        proto = simple_protocol(0.4)
        k1 = np.zeros((2, 2, 2, 2))
        for r, b in itertools.product(range(2), range(2)):
            a = (r + b) % 2
            k1[r, b, a, a] = 1.0  # output a, store it
        k2 = np.zeros((2, 2, 2, 2))
        for r, b in itertools.product(range(2), range(2)):
            k2[r, b, r, r] = 1.0  # replay the stored bit
        attack = ClassicalAttack(np.array([[0.6], [0.4]]), (k1, k2))
        cset = ConstraintSet.full_simplex(proto.c_alphabet)
        res = simulate_two_rounds(proto, attack, cset, 2.0)
        assert res.slack >= -1e-9


POLISH_GRID = {2: 48, 3: 20, 4: 12}  # grid resolution per memory size


def lone_round_rate_min(proto, kernels, cset, alpha):
    """h_alpha as one lone search per kernel would find it: its grid, then
    a simplex from its best grid point, each point scored with a lone
    ``inner_inf_v``. Returns the minimum and each polish's tick count."""
    r_dim = kernels[0].shape[0]
    grid = simplex_grid(r_dim, POLISH_GRID[r_dim]) / POLISH_GRID[r_dim]
    gen_on = proto.p_gen > 0.0
    best, ticks = math.inf, []
    for k in kernels:
        p_c_mem = proto.score_law(np.swapaxes(k, 1, 2))
        s_tab = (k ** alpha).sum(axis=2)

        def value(qs):
            inner = qs @ s_tab
            mix = (proto.p_gen[gen_on]
                   * inner[:, gen_on] ** (1.0 / alpha)).sum(axis=1)
            h_gen = np.maximum((alpha / (1.0 - alpha)) * np.log2(mix), 0.0)
            return [inner_inf_v(p, h, cset, alpha).value
                    for p, h in zip(qs @ p_c_mem, h_gen)]

        def polish(xs):
            ticks[-1] += 1
            qs = [np.exp(x - x.max()) for x in xs]
            return [value((e / e.sum())[None, :])[0] for e in qs]

        vals = value(grid)
        x0 = np.log(np.maximum(grid[int(np.argmin(vals))], 1e-6))
        ticks.append(0)
        [(_, val, _)] = nelder_mead_batch(polish, [x0], scale=0.25, tol=1e-13,
                                          max_iter=600)
        best = min(best, *vals, val)
    return best, ticks


def two_round_case(r_dim, kind, seed):
    """A seeded protocol, attack and non-abort set of ``r_dim`` memory
    symbols, the set drawn as the two-round check draws it: ``kind`` 0 is
    the full simplex, 1 a lower and 2 an upper bound on one symbol."""
    rng = rng_from((31, r_dim, kind, seed))
    proto = _random_protocol(rng, int(rng.integers(2, 4)),
                             int(rng.integers(2, 4)))
    attack = random_attack(rng, r_dim, int(rng.integers(1, 3)),
                           len(proto.settings), len(proto.outcomes))
    q0 = attack.initial.sum(axis=1)
    p_c = proto.score_law(np.einsum("r,rba->ab", q0,
                                    attack.marginal_kernels()[0]))
    alphabet, j = proto.c_alphabet, int(rng.integers(0, 3))
    cset = [ConstraintSet.full_simplex(alphabet),
            ConstraintSet.min_mass(alphabet, alphabet[j],
                                   max(0.0, p_c[j] - 0.1)),
            ConstraintSet.max_mass(alphabet, alphabet[j],
                                   min(1.0, p_c[j] + 0.1))][kind]
    return proto, attack, cset, float(rng.choice([1.1, 1.5, 2.0, 3.0]))


class TestLockstepPolish:
    """Both rounds' kernels share one grid solve, and their simplices run in
    lockstep with one batched dual solve per tick; h_alpha equals, bit for
    bit, what one lone search per kernel finds."""

    def _solve_counted(self, monkeypatch, case):
        import renyiacc.verify as verify
        calls = []
        real = verify.inner_inf_v_batch

        def counted(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(verify, "inner_inf_v_batch", counted)
        return simulate_two_rounds(*case), calls

    @pytest.mark.parametrize("kind", range(3), ids=["full", "min", "max"])
    @pytest.mark.parametrize("r_dim", [2, 3, 4])
    def test_equals_lone_searches(self, monkeypatch, r_dim, kind):
        proto, attack, cset, alpha = case = two_round_case(r_dim, kind, 0)
        want, ticks = lone_round_rate_min(proto, attack.marginal_kernels(),
                                          cset, alpha)
        res, calls = self._solve_counted(monkeypatch, case)
        assert res.h_alpha == want
        # the grid of both kernels, then one call per tick of the longer run
        assert len(calls) <= 1 + max(ticks)
        assert calls[0] == 2 * len(simplex_grid(r_dim, POLISH_GRID[r_dim]))

    # in the second case the second kernel's polish sets h_alpha
    @pytest.mark.parametrize("draw", [(3, 1, 1), (2, 0, 1)])
    def test_simplices_stop_at_different_ticks(self, monkeypatch, draw):
        proto, attack, cset, alpha = case = two_round_case(*draw)
        want, ticks = lone_round_rate_min(proto, attack.marginal_kernels(),
                                          cset, alpha)
        assert ticks[0] != ticks[1]
        res, calls = self._solve_counted(monkeypatch, case)
        assert res.h_alpha == want
        assert len(calls) <= 1 + max(ticks)

    @pytest.mark.parametrize("r_dim", [2, 3, 4])
    def test_row_value_does_not_depend_on_its_stack(self, monkeypatch, r_dim):
        # a speculative tick stacks 3 rows of one kernel, where a plain tick
        # has 1: each row's value must not depend on the rows around it
        import renyiacc.verify as verify
        objectives = []
        real = verify.nelder_mead_batch

        def recorded(fbatch, *args, **kwargs):
            objectives.append(fbatch)
            return real(fbatch, *args, **kwargs)

        monkeypatch.setattr(verify, "nelder_mead_batch", recorded)
        simulate_two_rounds(*two_round_case(r_dim, 0, 0))
        [objective] = objectives
        xs = rng_from((47, r_dim)).normal(size=(40, r_dim))
        key = np.arange(40) % 3 % 2  # runs of 1 and 2 rows of each kernel
        stacked = objective(xs, key)
        for i in range(len(xs)):
            assert objective(xs[i:i + 1], key[i:i + 1])[0] == stacked[i]

    def test_infeasible_polish_row_raises(self, monkeypatch):
        import renyiacc.verify as verify
        from renyiacc.errors import InfeasibleError
        real = verify.inner_inf_v_batch
        calls = []

        def second_call_infeasible(*args):
            sol = real(*args)
            calls.append(len(args[0]))
            if len(calls) == 2:  # the first polish tick
                sol.feasible[0] = False
            return sol

        monkeypatch.setattr(verify, "inner_inf_v_batch",
                            second_call_infeasible)
        with pytest.raises(InfeasibleError):
            simulate_two_rounds(*two_round_case(2, 0, 0))
