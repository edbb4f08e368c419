import math

import numpy as np
import pytest

from renyiacc import entropy as ent
from renyiacc.counterexample import (
    alpha_grid_scan,
    ce_first_term,
    ce_inf_term,
    ce_inf_term_analytic,
    ce_lhs,
    ce_report,
    counterexample_channel_instance,
    joint_cq_state,
    joint_distribution,
)
from renyiacc.qcore import CqState, random_density, rng_from

from test_verify import pinched_round_two

ALPHA_SET = (1.1, 1.5, 2.0, 3.0, 5.0)


class TestGoldenValues:
    def test_printed_values_at_three_halves(self):
        assert abs(ce_lhs(1.5) - 0.82057) < 1e-5
        assert abs(ce_first_term(1.5) - 0.35295) < 1e-5
        assert abs(ce_inf_term(1.5, "up") - 0.47118) < 1e-5
        rep = ce_report(1.5)
        assert abs(rep.rhs - 0.82413) < 1e-5
        assert rep.violated
        assert abs((rep.rhs - rep.lhs) - 0.00356) < 2e-5

    def test_rounding_matches_print(self):
        assert round(ce_lhs(1.5), 5) == 0.82057
        assert round(ce_first_term(1.5), 5) == 0.35295
        assert round(ce_inf_term(1.5, "up"), 5) == 0.47118
        assert round(ce_report(1.5).rhs, 5) == 0.82413

    def test_down_saturation(self):
        rep = ce_report(1.5)
        assert rep.saturation_gap < 1e-6


class TestStructure:
    def test_joint_is_distribution(self):
        p = joint_distribution()
        assert p.min() >= 0 and abs(p.sum() - 1) < 1e-14

    def test_first_term_deterministic_branch(self):
        # the b1 = 1 branch is a point mass, contributing exactly 1/2
        alpha = 1.5
        tot = 0.5 * ((0.75) ** alpha + 0.25 ** alpha) ** (1 / alpha) + 0.5
        assert abs(ce_first_term(alpha)
                   - alpha / (1 - alpha) * math.log2(tot)) < 1e-14

    @pytest.mark.parametrize("alpha", ALPHA_SET)
    def test_vertex_vs_analytic(self, alpha):
        assert abs(ce_inf_term(alpha, "up")
                   - ce_inf_term_analytic(alpha)) < 1e-10

    @pytest.mark.parametrize("alpha", (1.2, 1.5, 2.5))
    def test_up_inf_dominates_down_inf(self, alpha):
        assert ce_inf_term(alpha, "up") >= ce_inf_term(alpha, "down") - 1e-12

    def test_shannon_limit(self):
        # as alpha -> 1 the optimized entropy approaches the Shannon one
        p = joint_distribution()
        joint = p.transpose(0, 2, 1, 3).reshape(4, 4)
        pb = joint.sum(axis=0)
        shannon = -sum(joint[a, b] * math.log2(joint[a, b] / pb[b])
                       for a in range(4) for b in range(4)
                       if joint[a, b] > 0)
        assert abs(ce_lhs(1.0 + 1e-6) - shannon) < 1e-4

    @pytest.mark.parametrize("alpha", (1.3, 1.5, 2.0))
    def test_dual_path_against_entropy_module(self, alpha):
        st = joint_cq_state()
        assert abs(ce_lhs(alpha)
                   - ent.h_up(st, ["A1", "A2"], alpha)) < 1e-12
        rep = ce_report(alpha)
        assert abs(rep.h_down_lhs
                   - ent.h_down(st, ["A1", "A2"], alpha)) < 1e-12

    def test_first_term_is_input_independent_infimum(self):
        # round one ignores its input, so the worst case over trivial-input
        # extensions equals the plain value (vertex enumeration over the
        # 1-point input alphabet is the value itself)
        alpha = 1.5
        p1 = np.array([[3 / 8, 0.0], [1 / 8, 0.5]])
        assert abs(ce_first_term(alpha)
                   - ent.h_classical(p1, alpha, "up")) < 1e-12


class TestReport:
    def test_report_fields(self):
        rep = ce_report(1.01)
        assert rep.lhs <= rep.h_down_lhs + 1.0  # sanity: both finite
        assert rep.h_down_lhs <= rep.lhs + 1e-12  # down below up
        assert rep.h_down_first <= rep.first_term + 1e-12
        assert rep.saturation_gap < 1e-6
        d = rep.as_dict()
        assert set(d) >= {"alpha", "lhs", "rhs", "violated", "saturation_gap"}

    def test_grid_scan_reports(self):
        rows = alpha_grid_scan(1.2, 3.0, 5)
        assert len(rows) == 5
        assert all(r.saturation_gap < 1e-6 for r in rows)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            ce_report(1.0)
        with pytest.raises(ValueError):
            ce_lhs(0.5)


def round_two_output(rho_re) -> CqState:
    """Round two of the worked example on an input rho_RE, R a qubit: the
    output on classical A2, B2 and quantum E."""
    _, p_b2, kernel = counterexample_channel_instance()
    return pinched_round_two(rho_re, p_b2, kernel)


def classical_copy(r, d_e):
    """The input |r r><r r|: the memory r, and E holding a copy of it."""
    v = np.zeros(2 * d_e)
    v[r * d_e + r] = 1.0
    return np.outer(v, v)


class TestInfimumOracle:
    """ce_inf_term takes round two's infimum over all inputs rho_RE from two
    classical vertices. Seeded quantum inputs, pushed through the channel
    and scored with the package's H_up, must never fall below it."""

    ORDERS = (1.1, 1.5, 2.0, 3.0)

    @staticmethod
    def inputs():
        rng = rng_from(2026)
        for i in range(60):
            d_e = 2 + i % 3
            rank = None if i % 2 else 1  # pure (entangled) or full rank
            yield random_density((2, d_e), rng, rank=rank).matrix

    def scores(self, alpha):
        return np.array([ent.h_up(round_two_output(rho), ["A2"], alpha)
                         for rho in self.inputs()])

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_no_input_falls_below_the_vertex_infimum(self, alpha):
        inf = ce_inf_term(alpha)
        assert self.scores(alpha).min() >= inf - 1e-9
        for r in (0, 1):
            for d_e in (2, 3):
                vertex = round_two_output(classical_copy(r, d_e))
                assert abs(ent.h_up(vertex, ["A2"], alpha) - inf) <= 1e-12

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_oracle_rejects_a_wrong_reduction(self, alpha):
        # the uniformly mixed memory scored without side information: the
        # vertex input and the seeded inputs undercut it, so the check above
        # fails on it
        mixed = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0]))
        wrong = ent.h_up(round_two_output(mixed), ["A2"], alpha)
        vertex = ent.h_up(round_two_output(classical_copy(0, 2)), ["A2"],
                          alpha)
        assert vertex < wrong - 1e-9
        assert self.scores(alpha).min() < wrong - 1e-9
