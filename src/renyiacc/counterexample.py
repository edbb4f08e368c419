"""The fully classical two-round counterexample to the all-optimized chain rule.

Round one prepares a fixed pair (A1, B1); the memory carries A1. Round two
draws B2 uniformly and answers uniformly when the memory matches B2, else
deterministically. Every distribution is assembled from exact rationals and
converted to floats once.

At order 1.5 the optimized two-round entropy falls short of the sum of the
optimized single-round terms (0.82057 < 0.35295 + 0.47118), while the
corresponding decomposition for the un-optimized entropy is saturated.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .entropy import check_alpha, h_classical
from .qcore import cq_from_joint

_HALF = Fraction(1, 2)

P_B1 = (_HALF, _HALF)
P_A1_GIVEN_B1 = ((Fraction(3, 4), Fraction(0)),   # a1 = 0 column per b1
                 (Fraction(1, 4), Fraction(1)))   # a1 = 1
P_B2 = (_HALF, _HALF)


def p_a2_given(a2: int, r1: int, b2: int) -> Fraction:
    if (r1 ^ b2) == 0:
        return _HALF
    return Fraction(1) if a2 == 0 else Fraction(0)


def counterexample_channel_instance():
    """The worked example as the chain-rule checker's (omega, p_b2, kernel):
    ``omega[a1, b1, r]`` with the memory r = a1, ``kernel[a2, r, b2]``."""
    omega = np.zeros((2, 2, 2))
    for a1 in range(2):
        for b1 in range(2):
            omega[a1, b1, a1] = float(P_B1[b1] * P_A1_GIVEN_B1[a1][b1])
    kernel = np.array([[[float(p_a2_given(a2, r, b2)) for b2 in range(2)]
                        for r in range(2)] for a2 in range(2)])
    return omega, np.array([float(p) for p in P_B2]), kernel


def joint_distribution() -> np.ndarray:
    """p(a1, b1, a2, b2) after both rounds."""
    return np.einsum("abr,s,zrs->abzs", *counterexample_channel_instance())


def _round2_inner(e: int, alpha: float, power: float) -> float:
    """sum_b2 p(b2) [sum_a2 p(a2|e,b2)^alpha]^power."""
    tot = 0.0
    for b2 in range(2):
        inner = sum(float(p_a2_given(a2, e, b2)) ** alpha for a2 in range(2))
        tot += float(P_B2[b2]) * inner ** power
    return tot


def ce_lhs(alpha: float) -> float:
    """H_up_alpha(A1 A2 | B1 B2) of the assembled joint distribution."""
    alpha = check_alpha(alpha)
    tot = 0.0
    for b1 in range(2):
        for b2 in range(2):
            inner = 0.0
            for a1 in range(2):
                for a2 in range(2):
                    inner += float(P_A1_GIVEN_B1[a1][b1]) ** alpha * \
                        float(p_a2_given(a2, a1, b2)) ** alpha
            tot += float(P_B1[b1] * P_B2[b2]) * inner ** (1.0 / alpha)
    return (alpha / (1.0 - alpha)) * math.log2(tot)


def ce_first_term(alpha: float) -> float:
    """H_up_alpha(A1 | B1) of the round-one output."""
    alpha = check_alpha(alpha)
    tot = sum(float(P_B1[b1]) *
              (sum(float(P_A1_GIVEN_B1[a1][b1]) ** alpha
                   for a1 in range(2))) ** (1.0 / alpha)
              for b1 in range(2))
    return (alpha / (1.0 - alpha)) * math.log2(tot)


def ce_inf_term(alpha: float, variant: str = "up") -> float:
    """Worst-case single-round entropy of round two over all its inputs.

    The infimum over input states reduces to deterministic classical inputs
    (orthogonal side-information states are optimal and the objective is
    affine in the input distribution), so a vertex enumeration is exact.
    """
    alpha = check_alpha(alpha)
    if variant == "up":
        best = max(_round2_inner(e, alpha, 1.0 / alpha) for e in (0, 1))
        return (alpha / (1.0 - alpha)) * math.log2(best)
    if variant == "down":
        best = max(_round2_inner(e, alpha, 1.0) for e in (0, 1))
        return math.log2(best) / (1.0 - alpha)
    raise ValueError(f"variant must be 'up' or 'down', got {variant!r}")


def ce_inf_term_analytic(alpha: float) -> float:
    """Closed form of the optimized infimum: both vertices give the same value."""
    alpha = check_alpha(alpha)
    inner = 0.5 * (0.5 ** alpha + 0.5 ** alpha) ** (1.0 / alpha) + 0.5
    return (alpha / (1.0 - alpha)) * math.log2(inner)


def _h_down_lhs(alpha: float) -> float:
    p = joint_distribution().transpose(0, 2, 1, 3).reshape(4, 4)
    return h_classical(p, alpha, "down")


def _h_down_first(alpha: float) -> float:
    return h_classical(counterexample_channel_instance()[0].sum(axis=2), alpha,
                       "down")


@dataclass(frozen=True)
class CounterexampleReport:
    alpha: float
    lhs: float
    first_term: float
    inf_up: float
    rhs: float
    violated: bool
    h_down_lhs: float
    h_down_first: float
    h_down_inf: float
    saturation_gap: float

    def as_dict(self) -> dict:
        return asdict(self)


def ce_report(alpha: float) -> CounterexampleReport:
    """Full evaluation at one order, with the un-optimized saturation check."""
    alpha = check_alpha(alpha)
    lhs = ce_lhs(alpha)
    first = ce_first_term(alpha)
    inf_up = ce_inf_term(alpha, "up")
    analytic = ce_inf_term_analytic(alpha)
    if abs(inf_up - analytic) > 1e-10:
        raise AssertionError(
            f"vertex enumeration {inf_up} != closed form {analytic}")
    hd_lhs = _h_down_lhs(alpha)
    hd_first = _h_down_first(alpha)
    hd_inf = ce_inf_term(alpha, "down")
    rhs = first + inf_up
    return CounterexampleReport(
        alpha=alpha, lhs=lhs, first_term=first, inf_up=inf_up, rhs=rhs,
        violated=bool(rhs > lhs), h_down_lhs=hd_lhs, h_down_first=hd_first,
        h_down_inf=hd_inf,
        saturation_gap=abs(hd_lhs - (hd_first + hd_inf)))


def joint_cq_state():
    """The two-round joint as a fully classical CqState (register order A1 B1 A2 B2)."""
    p = joint_distribution()
    return cq_from_joint(["A1", "B1", "A2", "B2"],
                         [(0, 1)] * 4, p)


def alpha_grid_scan(start: float, stop: float, count: int):
    """Reports over an alpha grid; the violation is reported, not asserted."""
    alphas = np.linspace(start, stop, count)
    return [ce_report(float(a)) for a in alphas]
