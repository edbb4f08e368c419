import math

import numpy as np
import pytest

from renyiacc import entropy as ent
from renyiacc.channel import (
    BOT,
    BellFunctional,
    CPMapFamily,
    KrausChannel,
    SamplingProtocol,
    TwoQubitStrategy,
    _round_state,
    bell_value,
    bloch_projectors,
    build_read_and_prepare,
    build_sampling_channel,
    check_b_independence,
    decomposition_gap,
    family_round,
    flat_spike_distribution,
    reweighted_state,
    protocol_from_dict,
    protocol_to_dict,
    strategy_from_dict,
    strategy_to_cq,
    strategy_to_dict,
)
from renyiacc.errors import (
    AlphabetMismatchError,
    DimMismatchError,
    SupportViolationError,
    TargetOutOfRangeError,
)
from renyiacc.qcore import (
    CqState,
    DensityOperator,
    creg,
    embed,
    qreg,
    random_cq,
    random_density,
    random_distribution,
    random_kraus_channel,
    rng_from,
    trace_distance,
)
from renyiacc.verify import _random_protocol
from qcore_reference import conditional_operator, permute_labels, purify


def chsh_protocol(gamma, outputs="pair", p_gen=None):
    outs = (tuple(f"{a}{b}" for a in range(2) for b in range(2))
            if outputs == "pair" else ("0", "1"))
    setts = tuple(f"{x}{y}" for x in range(2) for y in range(2))
    if outputs == "pair":
        score = {(a, b): ("1" if (int(a[0]) ^ int(a[1]))
                          == (int(b[0]) and int(b[1])) else "0")
                 for a in outs for b in setts}
    else:
        score = {(a, b): a for a in outs for b in setts}
    return SamplingProtocol(gamma=gamma, outcomes=outs, settings=setts,
                            p_gen=p_gen if p_gen is not None else [0.25] * 4,
                            p_test=[0.25] * 4, score=score, d=1)


class TestKraus:
    def test_identity(self):
        rho = random_density((3,), 0)
        ch = KrausChannel((np.eye(3),), (3,), (3,))
        out = rho.apply_quantum_channel(ch.kraus, "Q0")
        assert np.abs(out.conds - rho.matrix).max() < 1e-14

    def test_dephasing(self):
        rho = random_density((3,), 1)
        ch = KrausChannel(tuple(np.diag(e) for e in np.eye(3)), (3,), (3,))
        out = rho.apply_quantum_channel(ch.kraus, "Q0")
        assert np.abs(out.conds - np.diag(np.diag(rho.matrix))).max() < 1e-14

    def test_validate_and_errors(self):
        KrausChannel((np.eye(2),), (2,), (2,)).validate()
        bad = KrausChannel((np.eye(2) * 0.5,), (2,), (2,))
        with pytest.raises(DimMismatchError):
            bad.validate()
        with pytest.raises(DimMismatchError):
            KrausChannel((np.eye(3),), (2,), (2,))

    def test_stinespring_random_is_cptp(self):
        ks = random_kraus_channel(3, 2, 2, 5)
        ch = KrausChannel(tuple(ks), (3,), (2,))
        ch.validate()


class TestCPMapFamily:
    def test_normalization_check(self):
        rng = rng_from(7)
        maps = {}
        for b in ("0", "1"):
            ks = random_kraus_channel(2, 2, 2, rng)
            maps[("0", b)] = KrausChannel((ks[0],), (2,), (2,))
            maps[("1", b)] = KrausChannel((ks[1],), (2,), (2,))
        fam = CPMapFamily(maps, ("0", "1"), ("0", "1"))
        assert fam.validate() is fam
        maps[("1", "1")] = KrausChannel((ks[1] / 2,), (2,), (2,))
        with pytest.raises(DimMismatchError, match="trace preserving"):
            fam.validate()
        proto = SamplingProtocol(gamma=0.4, outcomes=("0", "1"),
                                 settings=("0", "1"), p_gen=[0.5, 0.5],
                                 p_test=[0.5, 0.5],
                                 score={(a, b): a for a, b in maps}, d=1)
        with pytest.raises(DimMismatchError, match="trace preserving"):
            family_round(fam, proto, random_density((2, 2), 0))

    def test_missing_map_rejected(self):
        with pytest.raises(AlphabetMismatchError):
            CPMapFamily({}, ("0",), ("0",))


def round_table(strategy, proto, outputs="alice"):
    """The strategy's response table in the protocol's order."""
    return strategy.response_table(proto.settings,
                                   outputs=outputs).in_protocol_order(proto)


class TestRoundLaw:
    """The score index, the round state and p_C read one round law."""

    def test_gamma_zero_all_generation(self):
        proto = chsh_protocol(0.0)
        p_c = proto.score_law(round_table(TwoQubitStrategy.chsh_tsirelson(),
                                          proto, outputs="pair").p)
        assert abs(p_c[-1] - 1.0) < 1e-12  # bot carries all mass

    def test_gamma_one_deterministic_score_support(self):
        outs = ("0", "1")
        setts = ("00",)
        score = {(a, b): "1" for a in outs for b in setts}
        proto = SamplingProtocol(gamma=1.0, outcomes=outs, settings=setts,
                                 p_gen=[1.0], p_test=[1.0], score=score, d=1)
        s = TwoQubitStrategy.chsh_tsirelson()
        p_c = proto.score_law(round_table(s, proto).p)
        assert abs(p_c[proto.c_alphabet.index("1")] - 1.0) < 1e-12

    def test_chsh_win_probability(self):
        proto = chsh_protocol(1.0)
        p_c = proto.score_law(round_table(TwoQubitStrategy.chsh_tsirelson(),
                                          proto, outputs="pair").p)
        win = p_c[proto.c_alphabet.index("1")]
        assert abs(win - math.cos(math.pi / 8) ** 2) < 1e-9

    @pytest.mark.parametrize("key", ["p_gen", "p_test"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_setting_law_is_rejected(self, key, bad):
        # NaN passed the sum and sign checks and reached the kernels
        law = {"p_gen": [0.5, 0.5, 0.0, 0.0], "p_test": [0.25] * 4}
        law[key][1] = bad
        score = {(a, b): a for a in ("0", "1") for b in ("00", "01", "10", "11")}
        with pytest.raises(AlphabetMismatchError,
                           match=f"{key} is not a distribution on B"):
            SamplingProtocol(gamma=0.5, outcomes=("0", "1"),
                             settings=("00", "01", "10", "11"), score=score,
                             d=1, **law)

    def test_alphabet_mismatch(self):
        proto = chsh_protocol(0.5)  # pair outcomes
        with pytest.raises(AlphabetMismatchError):
            round_table(TwoQubitStrategy.chsh_tsirelson(), proto,
                        outputs="alice")

    def test_output_state_is_valid(self):
        proto = chsh_protocol(0.3, outputs="alice")
        table = round_table(TwoQubitStrategy.chsh_tsirelson(), proto,
                            outputs="alice")
        st = _round_state(proto, table.p, table.cond, "E")
        st.validate()
        assert st.classical_names == ("A", "C", "T", "B")

    def test_build_sampling_channel_is_round_law_and_state(self):
        # the strategy binding is the round state, and its C marginal p_C
        proto = chsh_protocol(0.3, outputs="alice")
        s = TwoQubitStrategy.chsh_tsirelson()
        st = build_sampling_channel(s, proto)
        table = round_table(s, proto, outputs="alice")
        ref = _round_state(proto, table.p, table.cond, "E")
        assert st.names == ref.names
        assert np.array_equal(st.weights, ref.weights)
        assert np.array_equal(st.conds, ref.conds)
        assert np.abs(st.marginal(["C"]).weights
                      - proto.score_law(table.p)).max() <= 1e-15

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("d", [1, 2])
    def test_round_state_marginal_is_score_law(self, d, seed):
        rng = rng_from((41, d, seed))
        n_a, n_b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        proto = _random_protocol(rng, n_a, n_b, d=d)
        for ia, a in enumerate(proto.outcomes):
            for ib, b in enumerate(proto.settings):
                assert proto.c_alphabet[proto.scored[ia, ib]] == \
                    proto.score[(a, b)]
        p = np.stack([random_distribution(n_a, rng) for _ in range(n_b)],
                     axis=1)
        blocks = np.array([[random_density((2,), rng).matrix
                            for _ in range(n_b)] for _ in range(n_a)])
        st = _round_state(proto, p, blocks, "E")
        assert np.abs(st.marginal(["C"]).weights
                      - proto.score_law(p)).max() <= 1e-15

    def test_scored_is_read_only(self):
        proto = chsh_protocol(0.3)
        assert proto.scored.shape == (4, 4)
        with pytest.raises(ValueError):
            proto.scored[0, 0] = 0


class TestBIndependence:
    @staticmethod
    def _family(seed, n_a=2, n_b=2, d_r=2):
        rng = rng_from(seed)
        maps = {}
        for b in range(n_b):
            ks = random_kraus_channel(d_r, d_r, n_a, rng)
            for a in range(n_a):
                maps[(str(a), str(b))] = KrausChannel((ks[a],), (d_r,), (d_r,))
        return CPMapFamily(maps, tuple(str(a) for a in range(n_a)),
                           tuple(str(b) for b in range(n_b)))

    def test_sampling_channel_passes(self):
        fam = self._family(11)
        outs, setts = fam.outcomes, fam.settings
        score = {(a, b): "0" for a in outs for b in setts}
        proto = SamplingProtocol(gamma=0.4, outcomes=outs, settings=setts,
                                 p_gen=[0.5, 0.5], p_test=[0.3, 0.7],
                                 score=score, d=1)
        ok, dev = check_b_independence(
            lambda omega: family_round(fam, proto, omega), trials=5, seed=3,
            r_dim=2)
        assert ok and dev < 1e-9

    def test_copying_channel_fails(self):
        def leaky(omega: DensityOperator):
            # "setting" B copies the measured memory bit: clearly dependent
            regs = [creg("A", ("0",)), creg("C", ("0", BOT)),
                    creg("T", (0, 1)), creg("B", ("0", "1")),
                    qreg("Rp", omega.dims[1])]
            w = np.zeros((1, 2, 2, 2))
            conds = {}
            for r in range(2):
                proj = np.zeros((2, 2))
                proj[r, r] = 1.0
                sub = omega.apply_quantum_channel([proj], "R")
                blk = sub.marginal(["Rp"]).conds
                p_r = float(np.trace(blk).real)
                if p_r <= 0:
                    continue
                w[0, 1, 0, r] = p_r
                conds[(0, 1, 0, r)] = blk / p_r
            return CqState(regs, w, conds)

        ok, dev = check_b_independence(leaky, trials=5, seed=4, r_dim=2)
        assert not ok
        assert dev > 0.05

    def test_product_channel_passes(self):
        rho_fixed = random_density((2,), 13).matrix

        def product(omega: DensityOperator):
            regs = [creg("A", ("0",)), creg("C", (BOT,)), creg("T", (0,)),
                    creg("B", ("0", "1")), qreg("Rp", omega.dims[1])]
            w = np.zeros((1, 1, 1, 2))
            w[0, 0, 0, 0], w[0, 0, 0, 1] = 0.25, 0.75
            rp = omega.partial_trace_labels(["Rp"]).matrix
            conds = {(0, 0, 0, b): rp for b in range(2)}
            return CqState(regs, w, conds)

        ok, dev = check_b_independence(product, trials=4, seed=5, r_dim=2)
        assert ok and dev < 1e-12


class TestFlatSpike:
    def test_extremes(self):
        assert np.allclose(flat_spike_distribution(2.0, 2.0, 4),
                           np.ones(4) / 4)
        assert np.allclose(flat_spike_distribution(0.0, 2.0, 4),
                           [1, 0, 0, 0])

    def test_target_roundtrip(self):
        p = flat_spike_distribution(1.37, 2.0, 4)
        assert abs(ent.renyi_entropy(p, 2.0) - 1.37) < 1e-10

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("target", [0.1, 0.9, 1.6])
    def test_many_targets(self, alpha, target):
        p = flat_spike_distribution(target, alpha, 4)
        assert abs(ent.renyi_entropy(p, alpha) - target) < 1e-10
        assert p.min() >= 0 and abs(p.sum() - 1) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(TargetOutOfRangeError):
            flat_spike_distribution(3.0, 2.0, 4)


class TestReadAndPrepare:
    def test_zero_f_shares_entropy(self):
        rp = build_read_and_prepare(np.zeros(3), 1.0, 2.0, (0, 1, 2))
        vals = [ent.renyi_entropy(t, 2.0) for t in rp.taus]
        assert max(abs(v - 1.0) for v in vals) < 1e-10

    def test_non_disturbance(self):
        rng = rng_from(17)
        st = random_cq((3,), (2,), rng, names=["C"], qnames=["Q"])
        rp = build_read_and_prepare(np.array([0.2, -0.4, 0.1]), 1.2, 2.0,
                                    (0, 1, 2))
        undone = rp.apply(st, "C").marginal(["C", "Q"])
        assert trace_distance(undone.to_density(), st.to_density()) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_divergence_expression_identity(self, seed):
        rng = rng_from((18, seed))
        alpha = float(rng.choice([1.3, 1.5, 2.0, 3.0]))
        n_c = int(rng.integers(2, 4))
        st = random_cq((n_c,), (2, 2), rng, names=["C"], qnames=["A", "B"])
        m_const = float(rng.uniform(0.9, 1.5))
        f = rng.uniform(-m_const, 0.49 * m_const, size=n_c)
        sigma = random_density((2,), rng).matrix
        rp = build_read_and_prepare(f, m_const, alpha, tuple(range(n_c)))
        lhs = ent.f_weighted(st, ["A"], "C", sigma, f, alpha)
        bar = rp.apply(st, "C")
        ref_blk = embed(sigma, (2, 2), (1,))
        ref = CqState(bar.regs, np.ones_like(bar.weights),
                      {idx: ref_blk for idx, _, _, _ in bar.outcomes()})
        rhs = -ent.renyi_divergence(bar, ref, alpha) - m_const
        assert abs(lhs - rhs) < 1e-8

    def test_cap_violation_rejected(self):
        with pytest.raises(TargetOutOfRangeError):
            build_read_and_prepare(np.array([0.6]), 1.0, 2.0, (0,))


def product_structure_state(rng, d_a1=2, d_b1=2, d_a2=2, n_b2=2):
    """cq state on (B2; A1 B1 A2) whose (A1, B1) marginal ignores b2.

    The marginal is blended with the maximally mixed state so the instances
    stay comfortably full rank (power reweighting amplifies roundoff near the
    support boundary).
    """
    d = d_a1 * d_b1
    raw = random_density((d_a1, d_b1), rng).matrix
    rho_ab = DensityOperator(0.8 * raw + 0.2 * np.eye(d) / d,
                             (d_a1, d_b1), ("A1", "B1"))
    pur = purify(rho_ab, "P")
    d_p = pur.dims[2]
    conds = {}
    p_b2 = random_distribution(n_b2, rng)
    for j in range(n_b2):
        ks = random_kraus_channel(d_p, d_a2, 2, rng)
        out = pur.apply_quantum_channel(ks, "P")
        conds[(j,)] = out.conds
    regs = [creg("B2", tuple(range(n_b2))), qreg("A1", d_a1),
            qreg("B1", d_b1), qreg("A2", d_a2)]
    return CqState(regs, p_b2, conds), rho_ab


class TestReweightedState:
    def test_trivial_b1_power_reweights(self):
        # dim-1 conditioning: nu = rho^alpha / tr rho^alpha; uniform classical
        # input stays uniform
        alpha = 2.0
        rho_a = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        regs = [creg("B2", (0,)), qreg("A1", 4), qreg("B1", 1), qreg("A2", 1)]
        st = CqState(regs, np.array([1.0]), {(0,): rho_a})
        nu = reweighted_state(st, "A1", "B1", "A2", "B2", np.ones((1, 1)), alpha)
        marg = nu.marginal(["A1"]).conds[()]
        assert np.abs(marg - rho_a).max() < 1e-12

    def test_sigma_equal_marginal_product(self):
        rng = rng_from(19)
        st, rho_ab = product_structure_state(rng)
        sig = rho_ab.partial_trace_labels(["B1"]).matrix
        nu = reweighted_state(st, "A1", "B1", "A2", "B2", sig, 2.0)
        assert abs(nu.weights.sum() - 1.0) < 1e-10
        for _, _, p, c in nu.outcomes():
            if p > 0:
                assert abs(np.trace(c).real - 1.0) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_conditional_operator_equality(self, seed):
        rng = rng_from((20, seed))
        alpha = float(rng.choice([1.3, 1.5, 2.0, 2.5]))
        st, rho_ab = product_structure_state(rng)
        sig = random_density((2,), rng).matrix
        nu = reweighted_state(st, "A1", "B1", "A2", "B2", sig, alpha)
        order = ["A1", "B1", "A2", "B2"]
        dense_nu = permute_labels(nu.to_density(), order)
        dense_rho = permute_labels(st.to_density(), order)
        gap = np.abs(conditional_operator(dense_nu, (0, 1))
                     - conditional_operator(dense_rho, (0, 1))).max()
        assert gap < 1e-9

    def test_support_violation(self):
        rng = rng_from(21)
        st, _ = product_structure_state(rng)
        with pytest.raises(SupportViolationError):
            reweighted_state(st, "A1", "B1", "A2", "B2", np.diag([1.0, 0.0]), 2.0)

    def test_rejects_b2_dependent_marginal(self):
        rng = rng_from(22)
        regs = [creg("B2", (0, 1)), qreg("A1", 2), qreg("B1", 2), qreg("A2", 2)]
        conds = {(j,): random_density((2, 2, 2), rng).matrix for j in range(2)}
        st = CqState(regs, [0.5, 0.5], conds)
        with pytest.raises(SupportViolationError):
            reweighted_state(st, "A1", "B1", "A2", "B2", np.eye(2) / 2, 2.0)


class TestDFRGap:
    def test_product_additivity(self):
        rng = rng_from(23)
        r1 = random_density((2, 2), rng)  # A1, B
        r2 = random_density((2,), rng)    # A2
        joint = DensityOperator(
            np.kron(r1.matrix, r2.matrix), (2, 2, 2), ("A1", "B", "A2"))
        joint = permute_labels(joint, ["A1", "A2", "B"])
        sig = random_density((2,), rng).matrix
        for alpha in (1.5, 2.0, 3.0):
            assert decomposition_gap(joint, ["A1"], ["A2"], ["B"], sig,
                                         alpha) < 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_random_classical(self, seed):
        rng = rng_from((24, seed))
        alpha = float(rng.choice([1.2, 1.5, 2.0, 3.0]))
        p = random_distribution(8, rng)
        rho = DensityOperator(np.diag(p).astype(complex), (2, 2, 2),
                              ("A1", "A2", "B"))
        sig = np.diag(random_distribution(2, rng)).astype(complex)
        assert decomposition_gap(rho, ["A1"], ["A2"], ["B"], sig,
                                     alpha) < 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_random_quantum(self, seed):
        rng = rng_from((25, seed))
        alpha = float(rng.choice([1.2, 1.5, 2.0, 3.0]))
        rho = random_density((2, 2, 2), rng)
        rho = DensityOperator(rho.matrix, (2, 2, 2), ("A1", "A2", "B"))
        sig = random_density((2,), rng).matrix
        assert decomposition_gap(rho, ["A1"], ["A2"], ["B"], sig,
                                     alpha) < 1e-8

    def test_support_violation(self):
        rho = random_density((2, 2, 2), 26)
        rho = DensityOperator(rho.matrix, (2, 2, 2), ("A1", "A2", "B"))
        with pytest.raises(SupportViolationError):
            decomposition_gap(rho, ["A1"], ["A2"], ["B"],
                                  np.diag([1.0, 0.0]), 2.0)


class TestStrategy:
    def test_chsh_tsirelson_value(self):
        s = TwoQubitStrategy.chsh_tsirelson()
        assert abs(bell_value(s, BellFunctional.chsh()) - 2 * math.sqrt(2)) < 1e-9

    def test_classical_strategy_bounded(self):
        s = TwoQubitStrategy.from_schmidt(
            0.0, meas_a=((0.0, 0.0), (0.0, 0.0)), meas_b=((0.0, 0.0), (0.0, 0.0)))
        assert bell_value(s, BellFunctional.chsh()) <= 2.0 + 1e-9

    def test_zero_functional(self):
        s = TwoQubitStrategy.chsh_tsirelson()
        zero = BellFunctional(np.zeros((2, 2)), "zero")
        assert bell_value(s, zero) == 0.0

    def test_born_rule_against_direct(self):
        s = TwoQubitStrategy.chsh_tsirelson()
        table = s.response_table(("00",), outputs="pair")
        p00 = bloch_projectors(*s.meas_a[0])[0]
        q00 = bloch_projectors(*s.meas_b[0])[0]
        direct = float(np.trace(np.kron(p00, q00) @ s.state.matrix).real)
        assert abs(table.p[0, 0] - direct) < 1e-12

    def test_marginal_independent_of_setting(self):
        s = TwoQubitStrategy.from_schmidt(
            0.6, meas_a=((0.3, 0.1), (1.2, 0.4)), meas_b=((0.7, 0.0), (2.0, 0.2)))
        st = strategy_to_cq(s, np.ones(4) / 4, settings="pairs",
                            outputs="alice")
        margs = []
        for combo, pb, sub in st.group_by(["B"]):
            margs.append(sub.marginal(["E"]).conds[()])
        for m in margs[1:]:
            assert np.abs(m - margs[0]).max() < 1e-10

    def test_pure_max_entangled_decouples_eve(self):
        s = TwoQubitStrategy.chsh_tsirelson()
        st = strategy_to_cq(s, np.ones(4) / 4, settings="pairs",
                            outputs="alice")
        for alpha in (1.5, 2.0):
            for combo, pb, sub in st.group_by(["B"]):
                assert abs(ent.h_down(sub, ["A"], alpha) - 1.0) < 1e-9

    def test_product_state_equal_conditionals(self):
        s = TwoQubitStrategy.from_schmidt(
            0.0, meas_a=((0.5, 0.0),), meas_b=((0.2, 0.0),))
        table = s.response_table(("00",), outputs="alice")
        # product pure state: Eve sees the same (trivial) state for every a
        assert np.abs(table.cond[0, 0] - table.cond[1, 0]).max() < 1e-9

    def test_serialization_roundtrip(self):
        s = TwoQubitStrategy.from_schmidt(
            0.5, meas_a=((0.3, 0.1), (1.0, 0.0)), meas_b=((0.2, 0.0), (0.9, 0.3)))
        back = strategy_from_dict(strategy_to_dict(s))
        assert np.abs(back.state.matrix - s.state.matrix).max() < 1e-12
        assert back.meas_a == s.meas_a

    def test_i3322_preset_loads(self):
        f = BellFunctional.i3322_correlator()
        assert f.coefficients.shape == (3, 3)
        assert f.classical_bound == 4.0


def reference_response_table(s, setting_labels, outputs):
    """The embed / partial-trace loop per (setting, outcome) that the
    response kernel replaced, kept as an independent reference."""
    pur = purify(s.state, copy_label="E")
    d_e = pur.dims[2]
    mat, dims = pur.matrix, pur.dims
    p, cond, outcome_set = {}, {}, []
    for lab in setting_labels:
        pa = bloch_projectors(*s.meas_a[int(str(lab)[0])])
        has_y = len(str(lab)) > 1
        pb = bloch_projectors(*s.meas_b[int(str(lab)[1])]) if has_y else None
        if outputs == "alice":
            combos = [(str(a), (a, None)) for a in range(2)]
        else:
            combos = [(f"{a}{b}", (a, b)) for a in range(2) for b in range(2)]
        for sym, (a, b) in combos:
            if b is not None:
                big = embed(np.kron(pa[a], pb[b]), dims, (0, 1))
            else:
                big = embed(pa[a], dims, (0,))
            sub = DensityOperator(big @ mat @ big.conj().T, dims, pur.labels)
            blk = sub.partial_trace_labels(["E"]).matrix
            prob = float(np.trace(blk).real)
            p[(sym, lab)] = prob
            cond[(sym, lab)] = blk / prob if prob > 1e-15 else \
                np.eye(d_e) / d_e
            if sym not in outcome_set:
                outcome_set.append(sym)
    return tuple(outcome_set), p, cond


def assert_table_matches_reference(s, labels, outputs):
    table = s.response_table(labels, outputs=outputs)
    outcomes, p, cond = reference_response_table(s, labels, outputs)
    assert table.outcomes == outcomes
    assert table.p.shape == (len(outcomes), len(labels))
    for ia, a in enumerate(outcomes):
        for ib, b in enumerate(labels):
            assert abs(table.p[ia, ib] - p[(a, b)]) < 1e-12
            assert np.abs(table.cond[ia, ib] - cond[(a, b)]).max() < 1e-12
    return table


def random_strategy(rank, n_set, seed):
    rng = rng_from((41, rank, n_set, seed))
    state = random_density((2, 2), rng, rank=rank)
    angles = rng.uniform(-math.pi, math.pi, size=(2, n_set, 2))
    return TwoQubitStrategy(state, tuple(map(tuple, angles[0])),
                            tuple(map(tuple, angles[1])))


class TestResponseKernel:
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("n_set", [2, 3])
    @pytest.mark.parametrize("mode,outputs", [("pairs", "alice"),
                                              ("pairs", "pair"),
                                              ("alice", "alice")])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_embed_loop(self, rank, mode, outputs, n_set, seed):
        s = random_strategy(rank, n_set, seed)
        labels = s.setting_labels(mode)
        table = assert_table_matches_reference(s, labels, outputs)
        # Eve holds the purification: her dimension is the rank
        assert table.cond.shape == (len(table.outcomes), len(labels),
                                    rank, rank)
        assert np.abs(table.p.sum(axis=0) - 1.0).max() < 1e-12

    def test_pair_outputs_need_pair_settings(self):
        s = random_strategy(2, 2, 0)
        with pytest.raises(AlphabetMismatchError):
            s.response_table(s.setting_labels("alice"), outputs="pair")

    @pytest.mark.parametrize("outputs", ["alice", "pair"])
    def test_zero_probability_gets_fallback_block(self, outputs):
        # |0><0| x I/2 has rank 2; measuring Alice along z never gives 1
        state = DensityOperator(np.diag([0.5, 0.5, 0.0, 0.0]), (2, 2))
        s = TwoQubitStrategy(state, ((0.0, 0.0),), ((0.0, 0.0),))
        table = assert_table_matches_reference(s, ("00",), outputs)
        dead = [i for i, a in enumerate(table.outcomes) if a[0] == "1"]
        assert table.p[dead].max() <= 1e-15
        assert np.all(table.cond[dead] == np.eye(2) / 2)


class TestProtocolSerialization:
    def test_roundtrip(self):
        proto = chsh_protocol(0.2)
        back = protocol_from_dict(protocol_to_dict(proto))
        assert back.gamma == proto.gamma
        assert back.outcomes == proto.outcomes
        assert np.allclose(back.p_test, proto.p_test)
        assert back.score == proto.score

    def test_invalid_gamma(self):
        with pytest.raises(TargetOutOfRangeError):
            SamplingProtocol(gamma=1.5, outcomes=("0",), settings=("0",),
                             p_gen=[1.0], p_test=[1.0],
                             score={("0", "0"): "0"}, d=1)
