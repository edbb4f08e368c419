"""Bad states are rejected where they enter the entropy functions.

Every public entropy takes its states through one input check: a matrix
that is not Hermitian (or not finite) raises NotHermitianError, and a state
with a clearly negative eigenvalue raises NotPSDError where it is first
decomposed. An entropy of a state, like one of a vector, raises
BadProbabilityError when its spectrum sums off 1 by more than TRACE_TOL.
None of them may return a number for such an input.
"""

import numpy as np
import pytest

from renyiacc import entropy as ent
from renyiacc.errors import BadProbabilityError, NotHermitianError, NotPSDError
from renyiacc.qcore import (
    CqState,
    DensityOperator,
    creg,
    hermitian_eig,
    matrix_power,
    purify,
    qreg,
    random_cq,
    support_contained,
)

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


def stack(block):
    """One row of ``h_partial_stack``: classical A and B, quantum E; the
    block of (a, b) = (0, 0) is ``block``."""
    conds = np.tile(np.eye(2) / 2, (1, 2, 2, 1, 1)).astype(complex)
    conds[0, 0, 0] = block
    return ent.h_partial_stack(np.full((1, 2, 2), 0.25), conds, 2.0)


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


# A clearly negative block of a classical A is decomposed only inside the
# marginal on E, so ``stack(BLOCK[NotPSDError])`` reads -inf; only the
# Hermitian and finite check applies to the stack here.
@pytest.mark.parametrize("block", [BLOCK[NotHermitianError],
                                   np.full((2, 2), np.nan)],
                         ids=["not-hermitian", "not-finite"])
def test_stack_that_is_not_hermitian_is_rejected(block):
    with pytest.raises(NotHermitianError):
        stack(block)


@pytest.mark.parametrize("fn", [lambda p: ent.renyi_entropy(p, 2.0),
                                ent.von_neumann], ids=["renyi", "vn"])
@pytest.mark.parametrize("p", [[1.2, -0.2], [0.5, 0.6], [0.5, 0.4]])
def test_vector_that_is_not_a_distribution_is_rejected(fn, p):
    with pytest.raises(BadProbabilityError):
        fn(p)


def test_distribution_within_tolerance_is_read():
    p = np.array([0.5, 0.5 + 5e-11, -5e-13])
    assert abs(ent.renyi_entropy(p, 2.0) - 1.0) < 1e-9
    assert abs(ent.von_neumann(p) - 1.0) < 1e-9


@pytest.mark.parametrize("fn", [
    lambda m: matrix_power(m, 0.5),
    lambda m: support_contained(np.eye(2) / 2, m),
    hermitian_eig,
    lambda m: purify(DensityOperator(m, (2,))),
], ids=["matrix_power", "support_contained-sigma", "hermitian_eig", "purify"])
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
