"""Bad states are rejected where they enter the entropy functions.

Every public entropy takes its states through one input check: a matrix
that is not Hermitian (or not finite) raises NotHermitianError, and a state
with a clearly negative eigenvalue raises NotPSDError, where its blocks
enter or where it is first decomposed. A block that no entropy decomposes,
such as that of a classical A, is checked where it enters. An entropy of a state, like one of a vector, raises
BadProbabilityError when its spectrum sums off 1 by more than TRACE_TOL,
and so do the KL divergence and the inner rate solvers on a vector that is
not a distribution. None of them may return a number for such an input.
"""

import math

import numpy as np
import pytest

from renyiacc import entropy as ent
from renyiacc.channel import BOT
from renyiacc.eatrate import (
    ConstraintSet,
    inner_inf_v,
    inner_inf_v_batch,
    inner_inf_v_grid,
)
from renyiacc.errors import BadProbabilityError, NotHermitianError, NotPSDError
from renyiacc.qcore import (
    CqState,
    DensityOperator,
    creg,
    matrix_power,
    qreg,
    random_cq,
)
from renyiacc.qcore.states import _purification

PAULI_Z = np.diag([1.0, -1.0])

# two-qubit matrices on (A, B): one not Hermitian, one with eigenvalues -0.1
DENSE = {
    NotHermitianError: np.eye(4) / 4 + 0.1j * np.kron(PAULI_Z, np.eye(2)),
    NotPSDError: np.diag([0.7, 0.5, -0.1, -0.1]),
}
# one-qubit blocks with the same two faults
BLOCK = {
    NotHermitianError: np.eye(2) / 2 + 0.1j * PAULI_Z,
    NotPSDError: np.diag([1.5, -0.5]),
}


def dense(m):
    return DensityOperator(m, (2, 2), ("A", "B"))


def cq(block):
    """Classical B, quantum A; the block of b = 0 is ``block``."""
    return CqState([creg("B", (0, 1)), qreg("A", 2)], [0.5, 0.5],
                   {(0,): block, (1,): np.eye(2) / 2})


def ab_conds(block):
    """Blocks of classical A and B on a quantum E; the block of (a, b) =
    (0, 0) is ``block``, the others are I/2."""
    conds = np.tile(np.eye(2) / 2, (2, 2, 1, 1)).astype(complex)
    conds[0, 0] = block
    return conds


def cq_ab(block):
    """Classical A and B, quantum E, with the blocks of ``ab_conds``."""
    return CqState([creg("A", (0, 1)), creg("B", (0, 1)), qreg("E", 2)],
                   np.full((2, 2), 0.25), ab_conds(block))


def stack(block):
    """One row of ``h_partial_stack``: the state of ``cq_ab``."""
    return ent.h_partial_stack(np.full((1, 2, 2), 0.25), ab_conds(block)[None],
                               2.0)


def f_weighted_sigma(block):
    st = random_cq((3,), (2, 2), 40, names=["C"], qnames=["A", "B"])
    return ent.f_weighted(st, ["A"], "C", block, [0.1, -0.2, 0.3], 2.0)


CALLS = {
    "h_down": lambda e: ent.h_down(dense(DENSE[e]), ["A"], 2.0),
    "h_down-cq": lambda e: ent.h_down(cq(BLOCK[e]), ["A"], 2.0),
    "h_partial": lambda e: ent.h_partial(cq(BLOCK[e]), ["A"], "B", 2.0),
    "h_up": lambda e: ent.h_up(dense(DENSE[e]), ["A"], 2.0),
    "h_up-cq": lambda e: ent.h_up(cq(BLOCK[e]), ["A"], 2.0),
    "h_up_dense": lambda e: ent.h_up_dense(DENSE[e], 2, 2, 2.0),
    # the negative block of a classical A is never decomposed: before it
    # was checked on entry, h_down, h_partial and the stack read -inf and
    # h_up a plausible 0.8345 here
    "h_down-classical-a": lambda e: ent.h_down(cq_ab(BLOCK[e]), ["A"], 2.0),
    "h_partial-classical-a": lambda e: ent.h_partial(cq_ab(BLOCK[e]), ["A"],
                                                     "B", 2.0),
    "h_up-classical-a": lambda e: ent.h_up(cq_ab(BLOCK[e]), ["A"], 2.0),
    "h_partial_stack": lambda e: stack(BLOCK[e]),
    "renyi_divergence-rho": lambda e: ent.renyi_divergence(
        DENSE[e], np.eye(4) / 4, 2.0),
    "renyi_divergence-sigma": lambda e: ent.renyi_divergence(
        np.eye(4) / 4, DENSE[e], 2.0),
    "max_divergence-rho": lambda e: ent.max_divergence(DENSE[e], np.eye(4) / 4),
    "max_divergence-sigma": lambda e: ent.max_divergence(np.eye(4) / 4, DENSE[e]),
    "renyi_entropy": lambda e: ent.renyi_entropy(DENSE[e], 2.0),
    "f_weighted-sigma": lambda e: f_weighted_sigma(BLOCK[e]),
}


@pytest.mark.parametrize("error", [NotHermitianError, NotPSDError],
                         ids=["not-hermitian", "not-psd"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_bad_state_is_rejected(name, error):
    with pytest.raises(error):
        CALLS[name](error)


@pytest.mark.parametrize("block", [BLOCK[NotHermitianError],
                                   np.full((2, 2), np.nan)],
                         ids=["not-hermitian", "not-finite"])
def test_stack_that_is_not_hermitian_is_rejected(block):
    with pytest.raises(NotHermitianError):
        stack(block)


def test_probe_state_is_rejected_by_validate_too():
    with pytest.raises(NotPSDError):
        cq_ab(BLOCK[NotPSDError]).validate()


# per-row orders of h_up_dense: each must lie in (1, inf), and the orders
# must broadcast against the rows; the check comes before any
# decomposition, so a stack that is not PSD still raises ValueError
@pytest.mark.parametrize("alpha", [[2.0, 1.0], [2.0, np.inf], [2.0, np.nan],
                                   [0.5, 2.0], [2.0, 2.0, 2.0], [[2.0, 2.0]]],
                         ids=["one", "inf", "nan", "below-one", "too-many",
                              "2d"])
def test_h_up_dense_rejects_bad_per_row_orders(alpha):
    rows = np.stack([np.eye(4) / 4, DENSE[NotPSDError]])
    with pytest.raises(ValueError):
        ent.h_up_dense(rows, 2, 2, np.array(alpha))


def test_h_up_dense_reads_per_row_orders():
    rows = np.stack([np.eye(4) / 4, np.diag([0.5, 0.0, 0.0, 0.5])])
    val, up, _ = ent.h_up_dense(rows, 2, 2, np.array([2.0, 3.0]))
    assert np.allclose(val, [1.0, 0.0], atol=1e-9)
    assert np.all(val <= up)


@pytest.mark.parametrize("fn", [lambda p: ent.renyi_entropy(p, 2.0),
                                ent.von_neumann], ids=["renyi", "vn"])
@pytest.mark.parametrize("p", [[1.2, -0.2], [0.5, 0.6], [0.5, 0.4]])
def test_vector_that_is_not_a_distribution_is_rejected(fn, p):
    with pytest.raises(BadProbabilityError):
        fn(p)


SOLVER_SET = ConstraintSet.full_simplex(("0", "1", BOT))


@pytest.mark.parametrize("fn", [
    lambda p: inner_inf_v(p, 0.5, SOLVER_SET, 2.0),
    lambda p: inner_inf_v_batch([np.ones(3) / 3, p], [0.5, 0.5], SOLVER_SET,
                                2.0),
    lambda p: inner_inf_v_grid(p, 0.5, SOLVER_SET, 2.0, resolution=20),
    lambda p: ent.kl_divergence(np.ones(3) / 3, p),
    lambda p: ent.kl_divergence(p, np.ones(3) / 3),
], ids=["inner_inf_v", "inner_inf_v_batch", "inner_inf_v_grid", "kl-p",
        "kl-v"])
@pytest.mark.parametrize("p", [
    [2.0, 1.0, 0.0],                 # inner_inf_v read -1.585
    [math.nan, 0.5, 0.5],            # read nan
    [0.5, 0.5, math.inf],
    [1.5, -0.5, 0.0],
    [0.5, 0.5, 1e-9],
], ids=["sum-3", "nan", "inf", "negative", "sum-off-1e-9"])
def test_solver_vector_that_is_not_a_distribution_is_rejected(fn, p):
    with pytest.raises(BadProbabilityError):
        fn(np.array(p))


def test_kl_of_a_vector_that_is_not_a_distribution_is_rejected():
    with pytest.raises(BadProbabilityError):  # read -2.0
        ent.kl_divergence([0.5, 0.5], [2.0, 2.0])


def test_distribution_within_tolerance_is_read():
    p = np.array([0.5, 0.5 + 5e-11, -5e-13])
    assert abs(ent.renyi_entropy(p, 2.0) - 1.0) < 1e-9
    assert abs(ent.von_neumann(p) - 1.0) < 1e-9


@pytest.mark.parametrize("fn", [
    lambda m: matrix_power(m, 0.5),
    _purification,
], ids=["matrix_power", "purify"])
def test_qcore_matrix_functions_reject_non_hermitian(fn):
    with pytest.raises(NotHermitianError):
        fn(BLOCK[NotHermitianError])


@pytest.mark.parametrize("fn", [
    lambda m: ent.renyi_entropy(m, 2.0),
    ent.von_neumann,
    lambda m: ent.conditional_von_neumann(dense(m), ["A"]),
], ids=["renyi", "vn", "conditional-vn"])
@pytest.mark.parametrize("trace", [0.5, 2.0, 1.0 + 1e-9])
def test_state_whose_trace_is_not_one_is_rejected(fn, trace):
    with pytest.raises(BadProbabilityError):
        fn(np.eye(4) / 4 * trace)


def test_state_with_trace_within_tolerance_is_read():
    m = np.eye(4) / 4 * (1.0 + 5e-11)
    assert abs(ent.renyi_entropy(m, 2.0) - 2.0) < 1e-9
    assert abs(ent.von_neumann(m) - 2.0) < 1e-9
    assert abs(ent.conditional_von_neumann(dense(m), ["A"]) - 1.0) < 1e-9
