import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyiacc.errors import (
    BadIndexError,
    BadPartitionError,
    DimMismatchError,
    NotPSDError,
)
from renyiacc.qcore import (
    CqState,
    DensityOperator,
    cq_from_dict,
    creg,
    density_from_dict,
    density_to_dict,
    eigvalsh_desc,
    embed,
    matrix_power,
    qreg,
    random_cq,
    random_density,
    random_distribution,
    random_isometry,
    rng_from,
    trace_distance,
)
from renyiacc.qcore.linalg import PSD_TOL, _eigh, _leaks
from renyiacc.qcore.states import _partial_trace
from qcore_reference import (
    conditional_operator,
    cq_to_dict,
    jacobi_hermitian_eig,
    permute,
    purify,
    random_instance,
)

BELL = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0


def rand_herm(d, seed):
    rng = rng_from(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def trace(rho):
    return float(np.trace(rho.matrix).real)


def is_pure(rho, tol=1e-10):
    w = eigvalsh_desc(rho.matrix)
    return bool(abs(w[0] - trace(rho)) <= tol and np.all(np.abs(w[1:]) <= tol))


class TestEig:
    def test_identity(self):
        w, v = _eigh(np.eye(2))
        assert np.allclose(w, [1, 1])
        assert np.allclose(v @ v.conj().T, np.eye(2))

    def test_diagonal(self):
        w, _ = _eigh(np.diag([3.0, 1.0]))
        assert np.allclose(w, [1, 3])

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction(self, seed):
        m = rand_herm(4, seed)
        w, v = _eigh(m)
        assert np.abs((v * w) @ v.conj().T - m).max() < 1e-9
        assert np.abs(v @ v.conj().T - np.eye(4)).max() < 1e-9
        assert np.all(np.diff(w) >= -1e-12)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_jacobi_agrees_with_lapack(self, dim, seed):
        m = rand_herm(dim, (seed, dim))
        w = _eigh(m)[0][::-1]
        wj, vj = jacobi_hermitian_eig(m)
        assert np.abs(w - wj).max() < 1e-9
        assert np.abs((vj * wj) @ vj.conj().T - m).max() < 1e-9


class TestMatrixPower:
    def test_identity_sqrt(self):
        assert np.allclose(matrix_power(np.eye(3), 0.5), np.eye(3))

    def test_pseudo_inverse_on_support(self):
        out = matrix_power(np.diag([4.0, 0.0]), -0.5)
        assert np.allclose(out, np.diag([0.5, 0.0]))

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_cube_root_roundtrip(self, seed):
        rho = random_density((4,), seed).matrix * 4.0
        back = np.linalg.matrix_power(matrix_power(rho, 1.0 / 3.0), 3)
        assert np.abs(back - rho).max() < 1e-9

    def test_rejects_negative(self):
        with pytest.raises(NotPSDError):
            matrix_power(np.diag([1.0, -0.5]), 0.5)


class TestStates:
    def test_dense_state_is_the_all_quantum_cq_state(self):
        rho = random_density((2, 3), 3)
        assert isinstance(rho, CqState) and rho.cregs == ()
        assert rho.matrix is rho.conds and rho.weights == 1.0
        assert (rho.dims, rho.labels, rho.qdim) == ((2, 3), ("Q0", "Q1"), 6)
        assert rho.validate() is rho
        # a repeated label would name two registers
        with pytest.raises(BadPartitionError, match="duplicate"):
            DensityOperator(np.eye(4) / 4, (2, 2), ("A", "A"))

    def test_tensor_trace_multiplies(self):
        a = random_density((2,), 1)
        b = random_density((3,), 2)
        ab = a.tensor(b)
        assert ab.dims == (2, 3)
        assert abs(trace(ab) - trace(a) * trace(b)) < 1e-12

    def test_tensor_basis_states(self):
        zero = DensityOperator(np.diag([1.0, 0.0]), (2,), ("A",))
        one = DensityOperator(np.diag([0.0, 1.0]), (2,), ("B",))
        prod = zero.tensor(one)
        expect = np.zeros((4, 4))
        expect[1, 1] = 1.0
        assert np.allclose(prod.matrix, expect)

    def test_partial_trace_roundtrip(self):
        a = random_density((3,), 5)
        b = random_density((2,), 6)
        back = a.tensor(b).partial_trace([0])
        assert np.abs(back.matrix - a.matrix).max() < 1e-12

    def test_partial_trace_bell(self):
        rho = DensityOperator(BELL, (2, 2), ("A", "B"))
        assert np.abs(rho.partial_trace([1]).matrix - np.eye(2) / 2).max() < 1e-12

    def test_partial_trace_linear(self):
        rng = rng_from(9)
        x = random_density((2, 3), rng)
        y = random_density((2, 3), rng)
        lam = 0.3
        mix = DensityOperator(lam * x.matrix + (1 - lam) * y.matrix, (2, 3))
        direct = mix.partial_trace([0]).matrix
        combo = lam * x.partial_trace([0]).matrix \
            + (1 - lam) * y.partial_trace([0]).matrix
        assert np.abs(direct - combo).max() < 1e-11

    def test_partial_trace_bad_index(self):
        with pytest.raises(BadIndexError):
            random_density((2, 2), 0).partial_trace([5])

    def test_conditional_operator_product(self):
        a = random_density((2,), 11)
        b = random_density((3,), 12, rank=2)
        rho = a.tensor(b)
        out = conditional_operator(rho, (1,))
        pi = matrix_power(b.matrix, 0.0)
        assert np.abs(out - np.kron(a.matrix, pi)).max() < 1e-9

    def test_conditional_operator_bell(self):
        rho = DensityOperator(BELL, (2, 2), ("A", "B"))
        assert np.abs(conditional_operator(rho, (1,)) - 2 * BELL).max() < 1e-10

    def test_conditional_operator_reconstruction(self):
        rho = random_density((2, 3), 21)
        cond = conditional_operator(rho, (1,))
        root = embed(matrix_power(rho.partial_trace([1]).matrix, 0.5),
                     rho.dims, (1,))
        assert np.abs(root @ cond @ root - rho.matrix).max() < 1e-10

    def test_purify(self):
        rho = random_density((3,), 31)
        pur = purify(rho)
        assert is_pure(pur)
        assert np.abs(pur.partial_trace([0]).matrix - rho.matrix).max() < 1e-10

    def test_purify_maximally_mixed_is_bell_like(self):
        pur = purify(DensityOperator(np.eye(2) / 2, (2,)))
        assert is_pure(pur)
        assert np.abs(pur.partial_trace([1]).matrix - np.eye(2) / 2).max() < 1e-12

    def test_trace_distance(self):
        rho = random_density((3,), 41)
        assert trace_distance(rho, rho) == 0.0
        zero = DensityOperator(np.diag([1.0, 0.0]), (2,))
        one = DensityOperator(np.diag([0.0, 1.0]), (2,))
        assert abs(trace_distance(zero, one) - 1.0) < 1e-12
        with pytest.raises(DimMismatchError):
            trace_distance(rho, zero)

    @pytest.mark.parametrize("seed", range(10))
    def test_trace_distance_triangle(self, seed):
        rng = rng_from((77, seed))
        a, b, c = (random_density((3,), rng) for _ in range(3))
        assert trace_distance(a, c) <= trace_distance(a, b) \
            + trace_distance(b, c) + 1e-12

    def test_permute_roundtrip(self):
        rho = random_density((2, 3, 2), 51)
        back = permute(permute(rho, (2, 0, 1)), (1, 2, 0))
        assert np.abs(back.matrix - rho.matrix).max() < 1e-14

    def test_apply_channel_dephasing(self):
        rho = random_density((2, 2), 61)
        ks = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        out = rho.apply_quantum_channel(ks, rho.labels[0])
        t = rho.matrix.reshape(2, 2, 2, 2).copy()
        t[0, :, 1, :] = 0
        t[1, :, 0, :] = 0
        assert np.abs(out.conds - t.reshape(4, 4)).max() < 1e-12


class TestEmbed:
    def test_embed_middle(self):
        op = rand_herm(3, 0)
        full = embed(op, (2, 3, 2), (1,))
        expect = np.kron(np.kron(np.eye(2), op), np.eye(2))
        assert np.abs(full - expect).max() < 1e-12

    def test_embed_non_adjacent(self):
        a = rand_herm(2, 1)
        b = rand_herm(2, 2)
        full = embed(np.kron(a, b), (2, 3, 2), (0, 2))
        expect = np.einsum("ac,bd,ef->abecdf", a, np.eye(3), b).reshape(12, 12)
        assert np.abs(full - expect).max() < 1e-12


class TestRandom:
    def test_deterministic(self):
        a = random_density((2, 2), 7).matrix
        b = random_density((2, 2), 7).matrix
        assert np.array_equal(a, b)

    def test_rank_control(self):
        rho = random_density((4,), 3, rank=2)
        w = eigvalsh_desc(rho.matrix)
        assert w[2] < 1e-12

    def test_validity_bulk(self):
        for i in range(200):
            random_density((2, 3), (0, i)).validate()
        for i in range(100):
            random_cq((2, 3), (2,), (1, i)).validate()
        for i in range(100):
            p = random_distribution(4, (2, i))
            assert p.min() >= 0 and abs(p.sum() - 1) < 1e-12

    def test_isometry(self):
        v = random_isometry(3, 5, 4)
        assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-12

    def test_dispatcher(self):
        assert random_instance("density", (2, 2), 0).dims == (2, 2)
        assert random_instance("distribution", 5, 0).shape == (5,)
        st_ = random_instance("cq", ((2,), (2,)), 0)
        st_.validate()
        v = random_instance("isometry", (2, 4), 0)
        assert v.shape == (4, 2)


class TestCqState:
    def test_dense_embedding_matches_marginals(self):
        st_ = random_cq((2, 3), (2,), 17, names=["B", "C"], qnames=["E"])
        dense = st_.to_density()
        assert abs(trace(dense) - 1.0) < 1e-12
        m1 = st_.marginal(["C", "E"]).to_density().matrix
        m2 = dense.partial_trace_labels(["C", "E"]).matrix
        assert np.abs(m1 - m2).max() < 1e-11

    def test_condition_and_group(self):
        st_ = random_cq((3,), (2,), 19, names=["B"], qnames=["E"])
        total = 0.0
        for combo, p, sub in st_.group_by(["B"]):
            total += p
            if sub is not None:
                assert abs(sub.weights.sum() - 1.0) < 1e-12
        assert abs(total - 1.0) < 1e-12

    def test_validate_rejects_bad_weights(self):
        st_ = random_cq((2,), (2,), 3, names=["B"], qnames=["E"])
        st_.weights[(0,)] += 0.5
        with pytest.raises(DimMismatchError):
            st_.validate()


class TestSerialize:
    def test_density_roundtrip(self):
        rho = random_density((2, 3), 43)
        back = density_from_dict(density_to_dict(rho))
        assert np.abs(back.matrix - rho.matrix).max() < 1e-12
        assert back.dims == rho.dims

    def test_cq_roundtrip(self):
        st_ = random_cq((2, 2), (3,), 47, names=["B", "C"], qnames=["E"])
        back = cq_from_dict(cq_to_dict(st_))
        assert np.abs(back.weights - st_.weights).max() < 1e-12
        assert np.abs(back.to_density().matrix
                      - st_.to_density().matrix).max() < 1e-12

    def test_support_contained(self):
        p = np.diag([0.5, 0.5, 0.0])
        q = np.diag([0.2, 0.8, 0.0])
        assert not _leaks(p, *_eigh(q, floor=PSD_TOL))[0]
        assert _leaks(q, *_eigh(np.diag([1.0, 0.0, 0.0]), floor=PSD_TOL))[0]


def test_creg_qreg_validation():
    with pytest.raises(Exception):
        CqState([creg("X", (0, 1)), creg("X", (0, 1))], np.ones((2, 2)) / 4)
    r = qreg("E", 3)
    assert not r.is_classical and r.size == 3


# ---------------------------------------------------------------------------
# the partial-trace kernel against the per-subsystem loop it replaced
# ---------------------------------------------------------------------------

def loop_partial_trace(x, dims, keep):
    """One np.trace per traced-out subsystem, then a transpose to ``keep``
    order: the kernel before it became one einsum."""
    lead = x.shape[:-2]
    b, k = len(lead), len(dims)
    t = x.reshape(lead + tuple(dims) * 2)
    drop = sorted(i for i in range(k) if i not in keep)
    for off, i in enumerate(drop):
        ax = b + i - off
        t = np.trace(t, axis1=ax, axis2=ax + (k - off))
    remaining = sorted(keep)
    perm = [b + remaining.index(i) for i in keep]
    t = t.transpose(list(range(b)) + perm + [len(keep) + j for j in perm])
    d = int(np.prod([dims[i] for i in keep], initial=1))
    return t.reshape(lead + (d, d))


@pytest.mark.parametrize("seed", range(12))
def test_partial_trace_kernel_matches_loop(seed):
    rng = np.random.default_rng([77, seed])
    k = 1 + seed % 4
    dims = tuple(int(d) for d in rng.integers(1, 5 if k < 4 else 4, size=k))
    lead = tuple(int(n) for n in rng.integers(1, 4, size=seed % 3))
    dim = math.prod(dims)
    x = (rng.normal(size=lead + (dim, dim))
         + 1j * rng.normal(size=lead + (dim, dim)))
    eps = np.finfo(float).eps
    for r in range(k + 1):
        for keep in itertools.permutations(range(k), r):
            got = _partial_trace(x, dims, list(keep))
            want = loop_partial_trace(x, dims, list(keep))
            assert got.shape == want.shape
            traced = math.prod(d for i, d in enumerate(dims) if i not in keep)
            nontrivial = sum(1 for i, d in enumerate(dims)
                             if i not in keep and d > 1)
            kept = math.prod(dims[i] for i in keep)
            if nontrivial == 0 or (nontrivial == 1 and kept > 1):
                # the same terms summed in the same order
                assert np.array_equal(got, want)
            else:
                # one pass over the traced indices instead of nested sums:
                # both are within (traced - 1) eps sum|x| of the exact trace
                scale = loop_partial_trace(np.abs(x), dims, list(keep)).real
                bound = 2.0 * max(traced - 1, 1) * eps * scale
                assert (np.abs(got.real - want.real) <= bound).all()
                assert (np.abs(got.imag - want.imag) <= bound).all()
