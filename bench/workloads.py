"""The four benchmark workloads: seeded inputs, one op each, correctness gates.

Each workload has a fixed pool of seeded instances, the plain-data inputs of
one op each (numbers, lists and strings only, so two draws compare exactly),
drawn here with numpy's generator; the package only ever sees the drawn
values. A run cycles its pool in whole rounds and its seed picks where in the
pool it starts, so every run does the same work. Freshly drawn instances
would not do: op cost is heavy-tailed in the input (an h_up_dense fixed point
that takes many iterations, a fine two-round grid, a Nelder-Mead polish that
runs to its cap), so a run's throughput would depend on what its seed drew.

Each op returns whether it passed its correctness gate and a checksum of its
outputs. Timed ops start at index 1; the warm-up op is index 0 of seed 0, the
same for every run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from renyiacc import cli, counterexample, eatrate, verify
from renyiacc.channel import BOT, SamplingProtocol, protocol_from_dict

HERE = Path(__file__).resolve().parent
SLACK_TOL = 1e-9          # ordering and two_round gates
KKT_TOL = 1e-9            # rate_search and oracle_cert gates
ORACLE_GAP_TOL = 1e-5     # oracle_cert: |solver - grid oracle|
GOLDEN_TOL = 1e-5
ORDERS = (1.1, 1.5, 2.0, 3.0)
RATE_ORDERS = (1.5, 2.0, 3.0)
ORACLE_RESOLUTION = 200
POOL_SEED = 0
RATE_POOL = 6             # restart seeds 0..5, each with a seed-commit h_alpha
ORACLE_SIZES = (3, 4, 4)  # alphabet sizes along the oracle_cert pool


class GoldenValueError(RuntimeError):
    """The counterexample golden values do not reproduce; timing is void."""


@dataclass(frozen=True)
class OpResult:
    ok: bool
    checksum: str
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    instance: Callable[[int], dict]    # pool slot -> op inputs
    run: Callable[[dict], OpResult]
    round: int                         # pool size; runs stop between rounds

    def draw(self, seed: int, index: int) -> dict:
        return self.instance((int(seed) + int(index)) % self.round)


def fingerprint(inputs: dict) -> str:
    return hashlib.sha256(
        json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def _checksum(*values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _rng(tag: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([POOL_SEED, tag, int(slot)])


def _simplex_point(rng, n: int) -> np.ndarray:
    """Same law as ``qcore.random_distribution`` with full support."""
    x = rng.exponential(size=n) + 1e-3
    return x / x.sum()


def golden_check() -> None:
    """Counterexample at order 1.5: 0.82057 < 0.35295 + 0.47118."""
    rep = counterexample.ce_report(1.5)
    want = {"lhs": 0.82057, "first_term": 0.35295, "inf_up": 0.47118}
    got = {k: getattr(rep, k) for k in want}
    bad = {k: v for k, v in got.items() if not abs(v - want[k]) < GOLDEN_TOL}
    if bad or not rep.violated:
        raise GoldenValueError(
            f"counterexample golden values broken: got {got}, want {want}")


# ---------------------------------------------------------------------------
# ordering: verify.check_ordering over 3 consecutive instance indices
# ---------------------------------------------------------------------------

def ordering_instance(slot: int) -> dict:
    # instances 0, 1, 2 of a suite seed: instance 2 is fully classical
    return {"suite_seed": int(_rng(1, slot).integers(2 ** 31))}


def run_ordering(inp: dict) -> OpResult:
    cfg = verify.SuiteConfig(seed=inp["suite_seed"], counts={"ordering": 3},
                             alphas=ORDERS)
    rep = verify.check_ordering(cfg)
    return OpResult(rep.instances == 3 and rep.worst_slack >= -SLACK_TOL,
                    _checksum(rep.worst_slack),
                    {"slack": rep.worst_slack})


# ---------------------------------------------------------------------------
# two_round: verify.simulate_two_rounds, drawn as check_two_round_accumulation
# ---------------------------------------------------------------------------

def two_round_instance(slot: int) -> dict:
    rng = _rng(7, slot)
    alpha = float(rng.choice(ORDERS))
    n_a = int(rng.integers(2, 5))
    n_b = int(rng.integers(2, 5))
    r_dim = int(rng.integers(2, 5))
    e_dim = int(rng.integers(1, 5))
    score = [["01"[int(rng.integers(0, 2))] for _ in range(n_b)]
             for _ in range(n_a)]
    gamma = float(rng.uniform(0.05, 0.95))
    p_gen = _simplex_point(rng, n_b)
    p_test = _simplex_point(rng, n_b)
    initial = _simplex_point(rng, r_dim * e_dim).reshape(r_dim, e_dim)
    kernels = np.zeros((2, r_dim, n_b, n_a, r_dim))
    for k in kernels:
        for r in range(r_dim):
            for b in range(n_b):
                k[r, b] = _simplex_point(rng, n_a * r_dim).reshape(n_a, r_dim)
    # non-abort set around the score frequency the first round achieves
    k_marg = kernels[0].sum(axis=3)
    q0 = initial.sum(axis=1)
    c_alphabet = ("0", "1", BOT)
    p_c = np.zeros(3)
    p_c[2] = 1.0 - gamma
    for ib in range(n_b):
        for ia in range(n_a):
            p_c[int(score[ia][ib])] += gamma * p_test[ib] * float(
                q0 @ k_marg[:, ib, ia])
    kind = int(rng.integers(0, 3))
    cset = {"kind": "full"}
    if kind:
        sym = int(rng.integers(0, 3))
        shift = float(rng.uniform(0.05, 0.4))
        cset = ({"kind": "min", "symbol": c_alphabet[sym],
                 "level": max(0.0, p_c[sym] - shift)} if kind == 1 else
                {"kind": "max", "symbol": c_alphabet[sym],
                 "level": min(1.0, p_c[sym] + shift)})
    return {"alpha": alpha, "gamma": gamma, "score": score,
            "p_gen": p_gen.tolist(), "p_test": p_test.tolist(),
            "initial": initial.tolist(), "kernels": kernels.tolist(),
            "cset": cset}


def _cset(alphabet, spec: dict) -> eatrate.ConstraintSet:
    if spec["kind"] == "min":
        return eatrate.ConstraintSet.min_mass(alphabet, spec["symbol"],
                                              spec["level"])
    if spec["kind"] == "max":
        return eatrate.ConstraintSet.max_mass(alphabet, spec["symbol"],
                                              spec["level"])
    return eatrate.ConstraintSet.full_simplex(alphabet)


def run_two_round(inp: dict) -> OpResult:
    n_a, n_b = len(inp["score"]), len(inp["score"][0])
    outcomes = tuple(str(a) for a in range(n_a))
    settings = tuple(str(b) for b in range(n_b))
    proto = SamplingProtocol(
        gamma=inp["gamma"], outcomes=outcomes, settings=settings,
        p_gen=inp["p_gen"], p_test=inp["p_test"],
        score={(a, b): inp["score"][ia][ib]
               for ia, a in enumerate(outcomes)
               for ib, b in enumerate(settings)}, d=1)
    attack = verify.ClassicalAttack(
        np.asarray(inp["initial"]),
        tuple(np.asarray(k) for k in inp["kernels"]))
    res = verify.simulate_two_rounds(proto, attack,
                                     _cset(proto.c_alphabet, inp["cset"]),
                                     inp["alpha"])
    return OpResult(res.slack >= -SLACK_TOL,
                    _checksum(res.lhs_exact, res.bound, res.h_alpha,
                              res.p_omega),
                    {"slack": res.slack})


# ---------------------------------------------------------------------------
# rate_search: eatrate.optimize_strategy on the README protocol
# ---------------------------------------------------------------------------

@functools.cache
def _rate_problem():
    doc = json.loads((HERE / "protocol.json").read_text())
    proto = protocol_from_dict(doc)
    return proto, cli._constraint_set(doc.get("omega"), proto.c_alphabet)


@functools.cache
def _rate_reference() -> dict:
    doc = json.loads((HERE / "rate_reference.json").read_text())
    return {int(k): float(v) for k, v in doc["h_alpha"].items()}


def rate_search_instance(slot: int) -> dict:
    # consecutive slots cycle the order through 1.5, 2, 3
    return {"alpha": RATE_ORDERS[slot % 3], "restart_seed": slot}


def run_rate_search(inp: dict) -> OpResult:
    proto, cset = _rate_problem()
    rep = eatrate.optimize_strategy(proto, cset, inp["alpha"], restarts=1,
                                    seed=inp["restart_seed"])
    ok = rep.kkt_residual <= KKT_TOL and math.isfinite(rep.h_alpha)
    drift = rep.h_alpha - _rate_reference()[inp["restart_seed"]]
    return OpResult(ok, _checksum(rep.h_alpha, rep.strategy_params),
                    {"h_alpha": rep.h_alpha, "drift": drift})


# ---------------------------------------------------------------------------
# oracle_cert: inner_inf_v against inner_inf_v_grid (the C10 certification)
# ---------------------------------------------------------------------------

def oracle_cert_instance(slot: int) -> dict:
    rng = _rng(100, slot)
    n = ORACLE_SIZES[slot % len(ORACLE_SIZES)]
    alphabet = [str(j) for j in range(n - 1)] + [BOT]
    # well-conditioned score law, as in C10, so the grid oracle resolves the
    # optimum far below the gate
    p = _simplex_point(rng, n) + 0.05
    p = p / p.sum()
    h = float(rng.uniform(0.0, 1.5))
    alpha = float(rng.choice(ORDERS))
    idx = int(rng.integers(0, n))
    shift = float(rng.uniform(0, 0.25))
    cset = ({"kind": "min", "symbol": alphabet[idx],
             "level": min(0.95, p[idx] + shift)} if rng.integers(0, 2) == 0
            else {"kind": "max", "symbol": alphabet[idx],
                  "level": max(0.02, p[idx] - shift)})
    return {"alphabet": alphabet, "p": p.tolist(), "h": h, "alpha": alpha,
            "cset": cset}


def run_oracle_cert(inp: dict) -> OpResult:
    cset = _cset(tuple(inp["alphabet"]), inp["cset"])
    sol = eatrate.inner_inf_v(inp["p"], inp["h"], cset, inp["alpha"])
    grid = eatrate.inner_inf_v_grid(inp["p"], inp["h"], cset, inp["alpha"],
                                    resolution=ORACLE_RESOLUTION)
    gap = abs(sol.value - grid)
    return OpResult(sol.kkt_residual < KKT_TOL and gap < ORACLE_GAP_TOL,
                    _checksum(sol.value, grid),
                    {"kkt": sol.kkt_residual, "gap": float(gap)})


WORKLOADS = {w.name: w for w in (
    Workload("ordering", ordering_instance, run_ordering, 24),
    Workload("two_round", two_round_instance, run_two_round, 36),
    Workload("rate_search", rate_search_instance, run_rate_search, RATE_POOL),
    Workload("oracle_cert", oracle_cert_instance, run_oracle_cert, 6),
)}
