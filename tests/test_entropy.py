import math

import numpy as np
import pytest

from renyiacc import entropy as ent
from renyiacc.errors import (
    AlphabetMismatchError,
    AllZeroError,
    BadEpsilonError,
    BadPartitionError,
    BNotClassicalError,
    NoConvergenceError,
)
from renyiacc.qcore import (
    CqState,
    DensityOperator,
    cq_from_joint,
    creg,
    embed,
    qreg,
    random_cq,
    random_density,
    random_distribution,
    rng_from,
)

ALPHAS = (1.1, 1.5, 2.0, 3.0)

# (h_down, h_up) at ALPHAS of random_density(dims, rng_from((911, i))), i the
# index of dims in DENSE_DIMS, with A its first, its last or all its registers
DENSE_DIMS = [(2, 3), (3, 2), (2, 2), (2, 2, 2)]
DENSE_PINNED = {
    ((2, 3), "first"): (
        [0.5893717365678963, 0.508678331048134,
         0.43053534701127916, 0.319442077387234],
        [0.5896685677858741, 0.5141950880008355,
         0.44676350426159306, 0.36014381546830787]),
    ((2, 3), "last"): (
        [1.041563199523673, 0.9538514381389576,
         0.8704731594882203, 0.7513028855358688],
        [1.0417464724129568, 0.9577842748972218,
         0.8834876351768028, 0.7872096473652003]),
    ((2, 3), "all"): (
        [2.025471780168988, 1.928018857824973,
         1.8318295966435723, 1.6903363744593425],
        [2.025471780168991, 1.9280188578249737,
         1.8318295966435725, 1.6903363744593427]),
    ((3, 2), "first"): (
        [0.718223616512298, 0.5750937953895491,
         0.4543384332127259, 0.30933095523168636],
        [0.718424434181034, 0.5780918528394026,
         0.46106473472410026, 0.31947909568226573]),
    ((3, 2), "last"): (
        [0.27052225910188377, 0.15887921625051296,
         0.0667082443196413, -0.0457338126956635],
        [0.27083209770777794, 0.16443405841040226,
         0.08282313774838113, -0.005965662873474601]),
    ((3, 2), "all"): (
        [1.5118357700218428, 1.343530697192827,
         1.1997986443038506, 1.0281819489824089],
        [1.5118357700218443, 1.3435306971928271,
         1.1997986443038509, 1.0281819489824089]),
    ((2, 2), "first"): (
        [0.3939839141387026, 0.3111042362146104,
         0.25261389316649624, 0.20006879900142574],
        [0.39400760821892095, 0.31145389015757025,
         0.25339926569642385, 0.20149208352934883]),
    ((2, 2), "last"): (
        [0.6121566675564384, 0.5365303802417856,
         0.47121184504185326, 0.3874690125148302],
        [0.6124828561407951, 0.5433190707841393,
         0.49239904604819024, 0.4416860554751055]),
    ((2, 2), "all"): (
        [1.1341150859738112, 0.9917305309068765,
         0.8723195155380143, 0.7377229938314899],
        [1.1341150859738145, 0.9917305309068772,
         0.8723195155380145, 0.7377229938314901]),
    ((2, 2, 2), "first"): (
        [0.4078007621611969, 0.30308302687549543,
         0.20298219999220282, 0.056270736576576434],
        [0.40835591187811565, 0.314842115996994,
         0.24119992775448074, 0.1599074176502865]),
    ((2, 2, 2), "last"): (
        [0.31820909745787473, 0.2142933633378241,
         0.12379403932182383, 0.004087900935780309],
        [0.3186091918397282, 0.22248743468176524,
         0.1498860501097294, 0.073605556991275]),
    ((2, 2, 2), "all"): (
        [2.252702473395117, 2.156031821290919,
         2.078501260888054, 1.9866672204945428],
        [2.252702473395117, 2.156031821290919,
         2.078501260888054, 1.9866672204945428]),
}


def classical_up_bruteforce(p, alpha):
    pb = p.sum(axis=0)
    tot = sum(pb[b] * ((p[:, b] / pb[b]) ** alpha).sum() ** (1 / alpha)
              for b in range(p.shape[1]) if pb[b] > 0)
    return alpha / (1 - alpha) * math.log2(tot)


class TestDivergence:
    def test_self_divergence_zero(self):
        rho = random_density((3,), 0).matrix
        for a in ALPHAS:
            assert abs(ent.renyi_divergence(rho, rho, a)) < 1e-10

    def test_classical_single_atom(self):
        p = np.diag([1.0, 0.0])
        q = np.diag([0.5, 0.5])
        assert abs(ent.renyi_divergence(p, q, 2.0) - 1.0) < 1e-12

    def test_support_violation_inf(self):
        rho = np.diag([0.5, 0.5, 0.0])
        sig = np.diag([0.0, 1.0, 0.0])
        assert ent.renyi_divergence(rho, sig, 2.0) == math.inf

    @pytest.mark.parametrize("seed", range(15))
    def test_cq_decomposition_matches_dense(self, seed):
        rng = rng_from((5, seed))
        alpha = float(rng.choice(ALPHAS))
        rho = random_cq((3,), (2,), rng, names=["C"], qnames=["Q"])
        sig = random_cq((3,), (2,), rng, names=["C"], qnames=["Q"])
        d_cq = ent.renyi_divergence(rho, sig, alpha)
        d_dense = ent.renyi_divergence(rho.to_density().matrix,
                                       sig.to_density().matrix, alpha)
        assert abs(d_cq - d_dense) < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_cq_against_dense_is_the_dense_pair(self, seed):
        # one side without classical registers: both are compared as one
        # dense block
        rng = rng_from((8, seed))
        rho = random_cq((3,), (2,), rng, names=["C"], qnames=["Q"])
        sig = random_density((6,), rng).matrix
        dense = rho.to_density().matrix
        for a in ALPHAS:
            assert ent.renyi_divergence(rho, sig, a) \
                == ent.renyi_divergence(dense, sig, a)
            assert ent.renyi_divergence(sig, rho, a) \
                == ent.renyi_divergence(sig, dense, a)

    @pytest.mark.parametrize("dims,names", [((2,), ["C"]), ((3,), ["D"])])
    def test_cq_pair_on_other_registers_raises(self, dims, names):
        rho = random_cq((3,), (2,), 0, names=["C"], qnames=["Q"])
        sig = random_cq(dims, (2,), 1, names=names, qnames=["Q"])
        with pytest.raises(AlphabetMismatchError):
            ent.renyi_divergence(rho, sig, 2.0)

    def test_max_divergence(self):
        rho = random_density((3,), 7).matrix
        assert abs(ent.max_divergence(rho, rho)) < 1e-10
        top = np.linalg.eigvalsh(rho).max()
        expect = math.log2(3) + math.log2(top)
        assert abs(ent.max_divergence(rho, np.eye(3) / 3) - expect) < 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_alpha_below_max_divergence(self, seed):
        rng = rng_from((6, seed))
        rho = random_density((3,), rng).matrix
        sig = random_density((3,), rng).matrix
        dmax = ent.max_divergence(rho, sig)
        for a in ALPHAS:
            assert ent.renyi_divergence(rho, sig, a) <= dmax + 1e-9

    def test_kl(self):
        p = np.array([0.3, 0.7])
        assert ent.kl_divergence(p, p) == 0.0
        assert ent.kl_divergence([1, 0], [0.5, 0.5]) == 1.0
        assert ent.kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf
        with pytest.raises(AlphabetMismatchError):
            ent.kl_divergence([1.0], [0.5, 0.5])

    @pytest.mark.parametrize("seed", range(10))
    def test_kl_nonnegative(self, seed):
        rng = rng_from((7, seed))
        v = random_distribution(4, rng)
        p = random_distribution(4, rng)
        assert ent.kl_divergence(v, p) >= -1e-12


class TestHDownUp:
    def test_maximally_mixed_trivial_cond(self):
        rho = DensityOperator(np.eye(2) / 2, (2,), ("A",))
        assert abs(ent.h_down(rho, ["A"], 2.0) - 1.0) < 1e-12
        assert abs(ent.h_up(rho, ["A"], 2.0) - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_classical_closed_forms_match_dense(self, alpha):
        rng = rng_from((8, int(alpha * 10)))
        p = random_distribution(6, rng).reshape(3, 2)
        hd = ent.h_classical(p, alpha, "down")
        hu = ent.h_classical(p, alpha, "up")
        cq = cq_from_joint(["A", "B"], [range(3), range(2)], p)
        dense = cq.to_density()
        assert abs(hd - ent.h_down(dense, ["A"], alpha)) < 1e-10
        assert abs(hu - ent.h_up(dense, ["A"], alpha)) < 1e-10
        assert abs(hd - ent.h_down(cq, ["A"], alpha)) < 1e-12
        assert abs(hu - ent.h_up(cq, ["A"], alpha)) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_up_dominates_down(self, seed):
        rng = rng_from((9, seed))
        p = random_distribution(9, rng).reshape(3, 3)
        for a in ALPHAS:
            assert ent.h_classical(p, a, "up") >= \
                ent.h_classical(p, a, "down") - 1e-12

    def test_counterexample_paper_values(self):
        # worked single-round and two-round optimized entropies at order 1.5
        p1 = np.array([[3 / 8, 0.0], [1 / 8, 1 / 2]])
        assert abs(ent.h_classical(p1, 1.5, "up") - 0.35295) < 1e-5
        from renyiacc.counterexample import joint_distribution
        p2 = joint_distribution().transpose(0, 2, 1, 3).reshape(4, 4)
        assert abs(ent.h_classical(p2, 1.5, "up") - 0.82057) < 1e-5

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(6))
    def test_up_solver_vs_bloch_grid(self, seed):
        # Bloch-parametrized grid search independently replaces the
        # fixed-point optimization over the conditioning marginal.
        rng = rng_from((10, seed))
        alpha = float(rng.choice(ALPHAS))
        rho = random_density((2, 2), rng)
        rho = DensityOperator(rho.matrix, (2, 2), ("A", "B"))
        solver = ent.h_up(rho, ["A"], alpha)

        paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                           [[1, 0], [0, -1]]])
        th, ph, r = np.meshgrid(np.linspace(0, math.pi, 12),
                                np.linspace(0, 2 * math.pi, 24, endpoint=False),
                                np.linspace(0, 1, 12), indexing="ij")
        dirs = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                         np.cos(th)], axis=-1).reshape(-1, 3)
        r = r.reshape(-1, 1)
        best, arg = -math.inf, np.zeros(3)
        centre = np.zeros(3)
        radius = 1.0
        for _ in range(12):
            # one refinement round: every point of the 12 x 24 x 12 grid
            # inside the ball, scored in one batched divergence call
            n_vecs = centre + radius * r * dirs
            n_vecs = n_vecs[np.linalg.norm(n_vecs, axis=1) < 1.0 - 1e-9]
            sig = 0.5 * (np.eye(2) + np.einsum("mi,ijk->mjk", n_vecs, paulis))
            vals = -ent._divergence_dense(
                rho.matrix, embed(sig, (2, 2), (1,)), (alpha,))[0]
            i = int(np.argmax(vals))  # the first maximum, as a strict scan
            if vals[i] > best:
                best, arg = vals[i], n_vecs[i]
            centre = arg
            radius *= 0.45
        assert solver >= best - 1e-9
        assert abs(solver - best) < 1e-5

    def test_up_solver_no_convergence_raises(self, monkeypatch):
        rho = random_density((2, 2), 3)
        monkeypatch.setattr(ent, "_UP_TOL", 1e-16)
        monkeypatch.setattr(ent, "_UP_MAX_ITER", 2)
        with pytest.raises(NoConvergenceError) as err:
            ent.h_up_dense(rho.matrix, 2, 2, 3.0)
        assert err.value.best_value is not None

    @pytest.mark.parametrize("seed", range(6))
    def test_up_block_aggregation_matches_dense_solver(self, seed):
        # the closed-form aggregation over a classical register plus per-block
        # solves must equal one optimization over the whole conditioning space
        rng = rng_from((500, seed))
        alpha = float(rng.choice(ALPHAS))
        st = random_cq((2,), (2, 2), rng, names=["B"], qnames=["A", "C"])
        via_blocks = ent.h_up(st, ["A"], alpha)
        via_dense = ent.h_up(st.to_density(), ["A"], alpha)
        assert abs(via_blocks - via_dense) < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_sandwich_on_rank_deficient_conditionals(self, seed):
        rng = rng_from((501, seed))
        st = random_cq((3,), (2, 3), rng, names=["B"], qnames=["A", "C"],
                       rank=2)
        for alpha in (1.5, 2.5):
            hd = ent.h_down(st, ["A"], alpha)
            hp = ent.h_partial(st, ["A"], "B", alpha)
            hu = ent.h_up(st, ["A"], alpha)
            assert hd <= hp + 1e-9
            assert hp <= hu + 2e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_up_additive_on_products(self, seed):
        rng = rng_from((11, seed))
        alpha = float(rng.choice(ALPHAS))
        r1 = random_density((2, 2), rng)
        r2 = random_density((2, 2), rng)
        joint = DensityOperator(np.kron(r1.matrix, r2.matrix), (2, 2, 2, 2),
                                ("A1", "B1", "A2", "B2"))
        lhs = ent.h_up(joint, ["A1", "A2"], alpha)
        rhs = ent.h_up(DensityOperator(r1.matrix, (2, 2), ("A", "B")), ["A"], alpha) \
            + ent.h_up(DensityOperator(r2.matrix, (2, 2), ("A", "B")), ["A"], alpha)
        assert abs(lhs - rhs) < 1e-8

    @pytest.mark.parametrize("key", list(DENSE_PINNED), ids=[
        "x".join(map(str, dims)) + "-" + which for dims, which in DENSE_PINNED])
    def test_dense_states_pinned_values(self, key):
        # h_down and h_up of seeded DensityOperators at the four orders,
        # recorded from the dense branches that preceded the cq adapter
        dims, which = key
        rho = random_density(dims, rng_from((911, DENSE_DIMS.index(dims))))
        a = {"first": rho.labels[:1], "last": rho.labels[-1:],
             "all": rho.labels}[which]
        down, up = DENSE_PINNED[key]
        for alpha, hd, hu in zip(ALPHAS, down, up):
            assert abs(ent.h_down(rho, a, alpha) - hd) <= 1e-13
            assert abs(ent.h_up(rho, a, alpha) - hu) <= 1e-13

    @pytest.mark.parametrize("h", [ent.h_down, ent.h_up])
    def test_dense_empty_a_raises(self, h):
        # a dense state is a cq state with no classical register, so an
        # empty A is rejected as it is for any cq state
        rho = random_density((2, 2), rng_from(912))
        with pytest.raises(BadPartitionError):
            h(rho, [], 2.0)


class TestPartial:
    @pytest.mark.parametrize("seed", range(6))
    def test_product_reductions(self, seed):
        rng = rng_from((12, seed))
        alpha = float(rng.choice(ALPHAS))
        nb = 3
        p_b = random_distribution(nb, rng)
        regs = [creg("B", tuple(range(nb))), qreg("A", 2), qreg("C", 2)]
        rho_c = random_density((2,), rng).matrix
        st = CqState(regs, p_b,
                     {(j,): np.kron(random_density((2,), rng).matrix, rho_c)
                      for j in range(nb)})
        up = ent.h_up(st.marginal(["A", "B"]), ["A"], alpha)
        assert abs(ent.h_partial(st, ["A"], "B", alpha) - up) < 1e-9
        rho_ac = random_density((2, 2), rng).matrix
        st2 = CqState(regs, p_b, {(j,): rho_ac for j in range(nb)})
        down = ent.h_down(DensityOperator(rho_ac, (2, 2), ("A", "C")),
                          ["A"], alpha)
        assert abs(ent.h_partial(st2, ["A"], "B", alpha) - down) < 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_sandwich(self, seed):
        rng = rng_from((13, seed))
        st = random_cq((3,), (2, 3), rng, names=["B"], qnames=["A", "C"])
        for alpha in ALPHAS:
            hd = ent.h_down(st, ["A"], alpha)
            hp = ent.h_partial(st, ["A"], "B", alpha)
            hu = ent.h_up(st, ["A"], alpha)
            assert hd <= hp + 1e-9
            assert hp <= hu + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_variational_oracle(self, seed):
        rng = rng_from((14, seed))
        alpha = float(rng.choice(ALPHAS))
        nb = int(rng.integers(2, 4))
        st = random_cq((nb,), (2, 2), rng, names=["B"], qnames=["A", "C"])
        hp = ent.h_partial(st, ["A"], "B", alpha)
        hv = ent.h_partial_variational(st, ["A"], "B", alpha)
        assert hv <= hp + 1e-12  # grid evaluates feasible points only
        assert abs(hv - hp) < 1e-6

    def test_variational_two_letters_golden(self):
        from renyiacc.optimize import golden_section_max
        rng = rng_from(15)
        alpha = 2.0
        st = random_cq((2,), (2, 2), rng, names=["B"], qnames=["A", "C"])
        hp = ent.h_partial(st, ["A"], "B", alpha)
        per = []
        for combo, pb, sub in st.group_by(["B"]):
            per.append((pb, ent.h_down(sub, ["A"], alpha)))

        def objective(t):
            q = np.array([t, 1 - t])
            tot = sum(p ** alpha * q[i] ** (1 - alpha) * 2 ** ((1 - alpha) * h)
                      for i, (p, h) in enumerate(per))
            return math.log2(tot) / (1 - alpha)

        _, val = golden_section_max(objective, 1e-9, 1 - 1e-9)
        assert abs(val - hp) < 1e-9

    def test_feasible_point_reproduces_down(self):
        rng = rng_from(16)
        alpha = 1.7
        st = random_cq((3,), (2,), rng, names=["B"], qnames=["C"])
        hd = ent.h_down(st, ["C"], alpha)
        per = [(pb, ent.h_down(sub, ["C"], alpha))
               for _, pb, sub in st.group_by(["B"])]
        tot = sum(p ** alpha * p ** (1 - alpha) * 2 ** ((1 - alpha) * h)
                  for p, h in per)
        assert abs(math.log2(tot) / (1 - alpha) - hd) < 1e-12

    def test_b_must_be_classical(self):
        st = random_cq((2,), (2, 2), 17, names=["B"], qnames=["A", "C"])
        with pytest.raises(BNotClassicalError):
            ent.h_partial(st, ["A"], "C", 2.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_alpha_monotone(self, alpha):
        st = random_cq((3,), (2, 2), 18, names=["B"], qnames=["A", "C"])
        finer = alpha + 0.5
        assert ent.h_partial(st, ["A"], "B", finer) <= \
            ent.h_partial(st, ["A"], "B", alpha) + 1e-9
        assert ent.h_down(st, ["A"], finer) <= ent.h_down(st, ["A"], alpha) + 1e-9
        assert ent.h_up(st, ["A"], finer) <= ent.h_up(st, ["A"], alpha) + 1e-9


class TestOptimalQ:
    def test_examples(self):
        assert np.allclose(ent.optimal_q([1, 1], 2.0), [0.5, 0.5])
        assert np.allclose(ent.optimal_q([8, 1], 3.0), [2 / 3, 1 / 3])
        with pytest.raises(AllZeroError):
            ent.optimal_q([0.0, 0.0], 2.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_beats_random_points(self, seed):
        rng = rng_from((19, seed))
        alpha = float(rng.choice(ALPHAS))
        r = rng.exponential(size=4)
        q_star = ent.optimal_q(r, alpha)
        best = (q_star ** (1 - alpha) * r).sum()
        assert abs(best - (r ** (1 / alpha)).sum() ** alpha) < 1e-9
        for _ in range(100):
            q = random_distribution(4, rng)
            assert best <= (q ** (1 - alpha) * r).sum() + 1e-12


def cond_mutual_info(rho, a, b, c):
    """I(A:B|C) = H(AC) + H(BC) - H(ABC) - H(C) from the von Neumann
    entropies of the marginals."""
    h = lambda names: ent.von_neumann(rho.partial_trace_labels(names))
    return h(a + c) + h(b + c) - h(a + b + c) - h(c)


class TestVonNeumann:
    def test_pure_zero(self):
        rho = random_density((4,), 20, rank=1)
        assert abs(ent.von_neumann(rho)) < 1e-10

    def test_product_additive(self):
        a = random_density((2,), 21)
        b = random_density((3,), 22)
        assert abs(ent.von_neumann(a.tensor(b))
                   - ent.von_neumann(a) - ent.von_neumann(b)) < 1e-10

    def test_cmi_zero_on_product(self):
        ac = random_density((2, 2), 23)
        b = random_density((2,), 24)
        rho = DensityOperator(np.kron(ac.matrix, b.matrix), (2, 2, 2),
                              ("A", "C", "B"))
        assert abs(cond_mutual_info(rho, ["A"], ["B"], ["C"])) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_cmi_nonnegative(self, seed):
        rho = random_density((2, 2, 2), (25, seed))
        rho = DensityOperator(rho.matrix, (2, 2, 2), ("A", "B", "C"))
        assert cond_mutual_info(rho, ["A"], ["B"], ["C"]) >= -1e-9


class TestRenyiEntropy:
    def test_uniform_and_point(self):
        assert abs(ent.renyi_entropy(np.ones(8) / 8, 2.0) - 3.0) < 1e-12
        assert abs(ent.renyi_entropy([1.0, 0.0], 2.0)) < 1e-12

    def test_decreasing_in_alpha(self):
        rho = random_density((4,), 26)
        vals = [ent.renyi_entropy(rho, a) for a in ALPHAS]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


class TestFWeighted:
    def test_zero_f_reduces_to_h_down(self):
        rng = rng_from(27)
        alpha = 2.0
        st = random_cq((3,), (2, 2), rng, names=["C"], qnames=["A", "B"])
        sigma = st.marginal(["B"]).conds[()]
        val = ent.f_weighted(st, ["A"], "C", sigma, np.zeros(3), alpha)
        assert abs(val - ent.h_down(st, ["A", "C"], alpha)) < 1e-9

    def test_constant_shift(self):
        rng = rng_from(28)
        alpha = 1.5
        st = random_cq((3,), (2, 2), rng, names=["C"], qnames=["A", "B"])
        sigma = random_density((2,), rng).matrix
        f = rng.uniform(-1, 1, size=3)
        base = ent.f_weighted(st, ["A"], "C", sigma, f, alpha)
        shifted = ent.f_weighted(st, ["A"], "C", sigma, f + 0.7, alpha)
        assert abs((base - shifted) - 0.7) < 1e-9

    def test_support_violation_returns_inf(self):
        rng = rng_from(29)
        st = random_cq((2,), (2, 2), rng, names=["C"], qnames=["A", "B"])
        sigma = np.diag([1.0, 0.0])
        assert ent.f_weighted(st, ["A"], "C", sigma, np.zeros(2), 2.0) == math.inf

    def test_sup_qb_single_letter(self):
        rng = rng_from(30)
        alpha = 2.0
        st = random_cq((3, 1), (2, 2), rng, names=["C", "B"], qnames=["A", "E"])
        f = rng.uniform(-1, 1, size=3)
        closed = ent.f_weighted_sup_qb(st, ["A"], "C", "B", f, alpha)
        rho_e = st.marginal(["E"]).conds[()]
        direct = ent.f_weighted(st.marginal(["C", "A", "E"]), ["A"], "C",
                                rho_e, f, alpha)
        assert abs(closed - direct) < 1e-9

    def test_sup_qb_zero_f_trivial_c_is_partial(self):
        rng = rng_from(31)
        alpha = 1.5
        st = random_cq((1, 3), (2, 2), rng, names=["C", "B"], qnames=["A", "E"])
        closed = ent.f_weighted_sup_qb(st, ["A"], "C", "B", np.zeros(1), alpha)
        partial = ent.h_partial(st.marginal(["B", "A", "E"]), ["A"], "B", alpha)
        assert abs(closed - partial) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_sup_qb_matches_search(self, seed):
        from renyiacc.optimize import golden_section_max
        rng = rng_from((32, seed))
        alpha = float(rng.choice(ALPHAS))
        st = random_cq((2, 2), (2, 2), rng, names=["C", "B"], qnames=["A", "E"])
        f = rng.uniform(-0.5, 0.5, size=2)
        closed = ent.f_weighted_sup_qb(st, ["A"], "C", "B", f, alpha)
        conds_e = [sub.marginal(["E"]).conds[()]
                   for _, _, sub in st.group_by(["B"])]
        sig_regs = [r for r in st.regs if r.name in ("B", "E")]

        def value(t):
            sig = CqState(sig_regs, np.array([t, 1 - t]),
                          {(j,): conds_e[j] for j in range(2)})
            return ent.f_weighted(st, ["A"], "C", sig.to_density().matrix,
                                  f, alpha)

        _, best = golden_section_max(value, 1e-9, 1 - 1e-9)
        assert best <= closed + 1e-9
        assert abs(best - closed) < 1e-6


class TestKeyLength:
    def test_zero_entropy_gives_zero(self):
        assert ent.key_length(0.0, 0.1, 2.0) == 0

    def test_monotone_in_entropy(self):
        prev = 0
        for h in (10, 50, 100, 200, 400):
            cur = ent.key_length(float(h), 1e-9, 2.0)
            assert cur >= prev
            prev = cur

    @pytest.mark.parametrize("h,eps,alpha", [(100.0, 1e-6, 2.0),
                                             (300.0, 1e-9, 1.5),
                                             (64.0, 1e-4, 1.8)])
    def test_bracket(self, h, eps, alpha):
        l = ent.key_length(h, eps, alpha)

        def bound(ll):
            return 2 ** (2 / alpha - 1) * 2 ** ((alpha - 1) / alpha * (ll - h))

        assert l > 0
        assert bound(l) <= eps * (1 + 1e-9)
        assert bound(l + 1) > eps

    def test_validation(self):
        with pytest.raises(BadEpsilonError):
            ent.key_length(10.0, 1.5, 2.0)
        with pytest.raises(BadEpsilonError):
            ent.key_length(10.0, 0.1, 3.0)


def test_fweighted_reduction_via_cq_divergence():
    # f = 0 and sigma = rho_B is exactly the (A C | B) down-entropy
    rng = rng_from(33)
    for alpha in ALPHAS:
        st = random_cq((2,), (2, 3), rng, names=["C"], qnames=["A", "B"])
        sigma = st.marginal(["B"]).conds[()]
        v1 = ent.f_weighted(st, ["A"], "C", sigma, np.zeros(2), alpha)
        v2 = -ent.renyi_divergence(
            st.to_density().matrix,
            embed(sigma, st.to_density().dims, (2,)), alpha)
        assert abs(v1 - v2) < 1e-9


class TestClassicalUpBruteforce:
    """H_alpha(A|B^up) of a classical table p[a, b] against the plain sum
    alpha/(1-alpha) log2 sum_b p(b) ||p(.|b)||_alpha."""

    @pytest.mark.parametrize("seed", range(6))
    def test_h_classical_up(self, seed):
        rng = rng_from((41, seed))
        n_a, n_b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        p = random_distribution(n_a * n_b, rng).reshape(n_a, n_b)
        if seed % 2:  # a setting with no mass drops out of the sum
            p[:, int(rng.integers(0, n_b))] = 0.0
            p /= p.sum()
        for alpha in ALPHAS:
            assert ent.h_classical(p, alpha, "up") == pytest.approx(
                classical_up_bruteforce(p, alpha), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_round_rate_generation_entropy_at_a_vertex(self, monkeypatch,
                                                       seed):
        # at q = e_r the two-round oracle's generation entropy is H_up of
        # p_gen(b) k[r, b, a], clamped at 0; an odd seed gives one setting
        # no generation mass
        import dataclasses

        import renyiacc.verify as verify
        from renyiacc.eatrate import ConstraintSet
        from renyiacc.optimize import simplex_grid
        rng = rng_from((42, seed))
        proto = verify._random_protocol(rng, 3, 3)
        if seed % 2:
            p_gen = proto.p_gen.copy()
            p_gen[int(rng.integers(0, 3))] = 0.0
            proto = dataclasses.replace(proto, p_gen=p_gen / p_gen.sum())
        kernels = verify.random_attack(rng, 3, 1, 3, 3).marginal_kernels()
        alpha = float(rng.choice(ALPHAS))
        seen = []
        real = verify.inner_inf_v_batch

        def spy(p_c, h_gen, cset, a):
            seen.append(np.array(h_gen))
            return real(p_c, h_gen, cset, a)

        monkeypatch.setattr(verify, "inner_inf_v_batch", spy)
        verify._round_rate_min(proto, kernels,
                               ConstraintSet.full_simplex(proto.c_alphabet),
                               alpha)
        grid = simplex_grid(3, 20) / 20
        h_grid = seen[0].reshape(len(kernels), len(grid))
        for k, kernel in enumerate(kernels):
            for r in range(3):
                [row] = np.flatnonzero((grid == np.eye(3)[r]).all(axis=1))
                table = (proto.p_gen[:, None] * kernel[r]).T  # [a, b]
                want = max(0.0, classical_up_bruteforce(table, alpha))
                assert h_grid[k, row] == pytest.approx(want, abs=1e-12)
