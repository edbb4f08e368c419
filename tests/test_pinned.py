"""Outputs of the spectral paths, pinned to 1e-13 on seeded inputs.

Each case reduces its outputs to a few floats: a scalar as it is, a matrix
or a stack of them as its dot product with a fixed seeded complex vector
(real and imaginary part), which moves with every entry. The pins were
taken from the implementation that decomposed each matrix through its own
copy of the PSD rule, before the one spectral helper of ``qcore.linalg``.
"""

import math

import numpy as np
import pytest

from renyiacc import entropy as ent
from renyiacc.channel import (
    TwoQubitStrategy,
    decomposition_gap,
    reweighted_state,
)
from renyiacc.qcore import (
    CqState,
    DensityOperator,
    creg,
    matrix_power,
    qreg,
    random_cq,
    random_density,
    rng_from,
)
from renyiacc.qcore.linalg import PSD_TOL, _eigh, _leaks

from test_channel import product_structure_state


def fingerprint(x):
    """(re, im) of the dot product of ``x`` with a seeded complex vector."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    g = np.random.default_rng(x.size).normal(size=(2, x.size))
    z = np.dot(g[0] + 1j * g[1], x)
    return float(z.real), float(z.imag)


def _rank_two(seed):
    """A 3x3 state of rank 2."""
    return random_density((3,), seed, rank=2).matrix


def _matrix_power(seed, t, rank=None):
    return fingerprint(matrix_power(random_density((3,), seed, rank=rank).matrix, t))


def _support(rho, sigma):
    return (float(not _leaks(rho, *_eigh(sigma, floor=PSD_TOL))[0]),)


def _leaky(eps):
    """diag(1 - eps, 0, eps) against the rank-2 diag(0.5, 0.5, 0)."""
    return _support(np.diag([1.0 - eps, 0.0, eps]),
                    np.diag([0.5, 0.5, 0.0]))


def _reweighted(seed):
    rng = rng_from((20, seed))
    alpha = float(rng.choice([1.3, 1.5, 2.0, 2.5]))
    st, _ = product_structure_state(rng)
    sig = random_density((2,), rng).matrix
    nu = reweighted_state(st, "A1", "B1", "A2", "B2", sig, alpha)
    return fingerprint(nu.weights) + fingerprint(nu.conds)


def _gap(seed, rank=None):
    rng = rng_from((25, seed))
    alpha = float(rng.choice([1.2, 1.5, 2.0, 3.0]))
    rho = random_density((2, 2, 2), rng, rank=rank)
    rho = DensityOperator(rho.matrix, (2, 2, 2), ("A1", "A2", "B"))
    sig = random_density((2,), rng).matrix
    return (decomposition_gap(rho, ["A1"], ["A2"], ["B"], sig, alpha),)


def _f_weighted(seed, sigma_rank=2):
    rng = rng_from((31, seed))
    alpha = float(rng.choice([1.1, 1.5, 2.0, 3.0]))
    st = random_cq((3,), (2, 2), rng, names=["C"], qnames=["A", "B"])
    sigma = random_density((2,), rng, rank=sigma_rank).matrix
    f = rng.uniform(-1.0, 1.0, size=3)
    return (ent.f_weighted(st, ["A"], "C", sigma, f, alpha),)


def _f_weighted_inside(weight):
    """f_weighted against sigma = |0><0| on B: the blocks of c = 0, 1 live
    on B = |0>, the block of c = 2 (weight ``weight``) on B = |1>."""
    rng = rng_from(32)
    a = [random_density((2,), rng).matrix for _ in range(3)]
    b0, b1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    conds = {(0,): np.kron(a[0], b0), (1,): np.kron(a[1], b0),
             (2,): np.kron(a[2], b1)}
    st = CqState([creg("C", (0, 1, 2)), qreg("A", 2), qreg("B", 2)],
                 [0.6, 0.4 - weight, weight], conds)
    return (ent.f_weighted(st, ["A"], "C", np.diag([1.0, 0.0]),
                           [0.2, -0.3, 0.1], 2.0),)


def _response_table(seed, rank, outputs):
    rng = rng_from((33, seed))
    state = DensityOperator(random_density((2, 2), rng, rank=rank).matrix,
                            (2, 2), ("Qa", "Qb"))
    angles = rng.uniform(0.0, math.pi, size=(4, 2))
    s = TwoQubitStrategy(state, tuple(map(tuple, angles[:2])),
                         tuple(map(tuple, angles[2:])))
    t = s.response_table(s.setting_labels(), outputs=outputs)
    return fingerprint(t.p) + fingerprint(t.cond)


CASES = {
    "matrix_power-full-sqrt": lambda: _matrix_power(1, 0.5),
    "matrix_power-full-inv-sqrt": lambda: _matrix_power(1, -0.5),
    "matrix_power-full-cube-root": lambda: _matrix_power(2, 1.0 / 3.0),
    "matrix_power-full-square": lambda: _matrix_power(3, 2.0),
    "matrix_power-rank2-inv-sqrt": lambda: _matrix_power(4, -0.5, rank=2),
    "matrix_power-rank2-projector": lambda: _matrix_power(4, 0.0, rank=2),
    "matrix_power-rank1-power": lambda: _matrix_power(5, 1.7, rank=1),
    "support-inside": lambda: _support(_rank_two(6), _rank_two(6) + 0.0),
    "support-full-reference": lambda: _support(_rank_two(7),
                                               random_density((3,), 7).matrix),
    "support-outside": lambda: _support(random_density((3,), 8).matrix,
                                        _rank_two(8)),
    "support-leak-below-tolerance": lambda: _leaky(1e-11),
    "support-leak-above-tolerance": lambda: _leaky(1e-9),
    "reweighted-0": lambda: _reweighted(0),
    "reweighted-1": lambda: _reweighted(1),
    "reweighted-2": lambda: _reweighted(2),
    "gap-full-rank-0": lambda: _gap(0),
    "gap-full-rank-1": lambda: _gap(1),
    "gap-rank-deficient": lambda: _gap(2, rank=3),
    "gap-pure": lambda: _gap(3, rank=1),
    "f_weighted-0": lambda: _f_weighted(0),
    "f_weighted-1": lambda: _f_weighted(1),
    "f_weighted-2": lambda: _f_weighted(2),
    "f_weighted-leak": lambda: _f_weighted(3, sigma_rank=1),
    "f_weighted-inside-support": lambda: _f_weighted_inside(0.0),
    "f_weighted-low-weight-leak": lambda: _f_weighted_inside(1e-11),
    "f_weighted-heavy-leak": lambda: _f_weighted_inside(0.3),
    "response-rank2-alice": lambda: _response_table(0, 2, "alice"),
    "response-rank3-alice": lambda: _response_table(1, 3, "alice"),
    "response-rank4-pair": lambda: _response_table(2, 4, "pair"),
}

PINNED = {
    "f_weighted-0": (-1.8567990648610195,),
    "f_weighted-1": (0.005426479649844551,),
    "f_weighted-2": (0.7510205804803123,),
    "f_weighted-heavy-leak": (math.inf,),
    "f_weighted-inside-support": (1.1402931279584385,),
    "f_weighted-leak": (math.inf,),
    "f_weighted-low-weight-leak": (math.inf,),
    "gap-full-rank-0": (5.551115123125783e-17,),
    "gap-full-rank-1": (7.771561172376096e-16,),
    "gap-pure": (2.6645352591003757e-15,),
    "gap-rank-deficient": (1.4432899320127035e-15,),
    "matrix_power-full-cube-root": (0.5296297367056834, 2.6899003586677064),
    "matrix_power-full-inv-sqrt": (0.04276731009196444, 5.499363628763178),
    "matrix_power-full-sqrt": (0.1050265765106553, 2.1202425067153805),
    "matrix_power-full-square": (-0.3428767572375122, -0.21003493310062638),
    "matrix_power-rank1-power": (1.1961778150996032, 1.1038114899367817),
    "matrix_power-rank2-inv-sqrt": (0.5503769906772751, 6.3917027053237465),
    "matrix_power-rank2-projector": (-0.04424127330167854, 3.6981819911188007),
    "response-rank2-alice": (
        -4.22969432168252, 2.935372978989365,
        1.8662513884664396, 0.7537740067243341,
    ),
    "response-rank3-alice": (
        -3.5655423353196216, 2.657411704503274,
        -1.511459550279604, -1.9152586755225234,
    ),
    "response-rank4-pair": (
        0.5739506948761333, -0.71812939260847,
        -1.334010156852436, -2.2435390462721974,
    ),
    "reweighted-0": (
        -0.20539664431157284, -1.5371179096234753,
        0.6312498822650252, 0.22301680277997768,
    ),
    "reweighted-1": (
        -0.1438864375046499, -1.3618338128981125,
        -2.0283839390775973, -1.2298868436200674,
    ),
    "reweighted-2": (
        -0.020429410457064492, -1.0100214130737775,
        -0.5691550309933705, -0.743796603374578,
    ),
    "support-full-reference": (1.0,),
    "support-inside": (1.0,),
    "support-leak-above-tolerance": (0.0,),
    "support-leak-below-tolerance": (1.0,),
    "support-outside": (0.0,),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_pinned(name):
    got, want = CASES[name](), PINNED[name]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w if math.isinf(w) else abs(g - w) <= 1e-13, (name, got)
