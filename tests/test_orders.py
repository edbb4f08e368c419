"""One call per entropy at several orders equals the lone calls, bit for bit.

``h_up_dense`` takes one order per row, and the ordering check scores each
state at all its orders through one call per entropy. Every value below
must equal the lone call at its order exactly (``==``, not within a
tolerance): a row of a mixed-order stack takes each power once per distinct
exponent, as a scalar, just as a lone call does.
"""

import numpy as np
import pytest

from renyiacc import entropy as ent
from renyiacc.channel import TwoQubitStrategy, strategy_to_cq
from renyiacc.eatrate import compare_entropies
from renyiacc.errors import NoConvergenceError
from renyiacc.qcore import random_cq, random_density, rng_from
from renyiacc.verify import SuiteConfig, check_ordering

ALPHAS = (1.1, 1.5, 2.0, 3.0)


def mixed_stack(seed):
    """Seeded (2 x 3) rows of every rank 1 to 6, each at every order of
    ALPHAS, in a shuffled row order: (rows, per-row orders)."""
    rng = rng_from((83, seed))
    rows = [random_density((2, 3), rng, rank=r).matrix for r in range(1, 7)]
    pairs = [(m, a) for m in rows for a in ALPHAS]
    order = rng.permutation(len(pairs))
    return (np.stack([pairs[i][0] for i in order]),
            np.array([pairs[i][1] for i in order]))


@pytest.mark.parametrize("seed", range(2))
def test_mixed_order_stack_equals_lone_calls(seed):
    rows, alphas = mixed_stack(seed)
    val, up, ticks = ent.h_up_dense(rows, 2, 3, alphas)
    lone = [ent.h_up_dense(m, 2, 3, a) for m, a in zip(rows, alphas)]
    assert val.tolist() == [v for v, _, _ in lone]
    assert up.tolist() == [u for _, u, _ in lone]
    assert ticks == max(n for _, _, n in lone)


def test_q_grad_matches_central_differences_per_row_on_mixed_orders():
    rng = rng_from((84, 0))
    rc = np.stack([random_density((2, 3), rng).matrix.reshape(2, 3, 2, 3)
                   .transpose(0, 2, 1, 3) for _ in ALPHAS])
    sig = np.stack([random_density((3,), rng).matrix for _ in ALPHAS])
    step = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    step = step + np.swapaxes(step.conj(), -1, -2)
    alphas = np.array(ALPHAS)

    def q_grad(rows, m, alpha):
        w, v = np.linalg.eigh(m)
        q, g = ent._q_grad(rows, w, v, alpha, 1e-6)
        return q, v @ g @ np.swapaxes(v.conj(), -1, -2)

    q, grad = q_grad(rc, sig, alphas)
    for i, a in enumerate(ALPHAS):  # each row against a lone scalar call
        q1, g1 = q_grad(rc[i:i + 1], sig[i:i + 1], a)
        assert q[i] == q1[0] and np.array_equal(grad[i], g1[0])
    h = 1e-6
    fd = (q_grad(rc, sig + h * step, alphas)[0]
          - q_grad(rc, sig - h * step, alphas)[0]) / (2 * h)
    slope = np.einsum("kij,kji->k", grad, step).real
    assert np.all(np.abs(fd - slope) <= 1e-6 * np.abs(fd))
    # Q is homogeneous of degree 1 - alpha in sigma, row by row
    hom = np.einsum("kij,kji->k", grad, sig).real
    assert np.all(np.abs(hom - (1.0 - alphas) * q) <= 1e-12 * q)


def test_mixed_order_stack_raises_when_one_row_is_capped(monkeypatch):
    rows, alphas = mixed_stack(0)
    lone = [ent.h_up_dense(m, 2, 3, a) for m, a in zip(rows, alphas)]
    ticks = [n for _, _, n in lone]
    monkeypatch.setattr(ent, "_UP_MAX_ITER", max(ticks) - 1)
    with pytest.raises(NoConvergenceError) as err:
        ent.h_up_dense(rows, 2, 3, alphas)
    done = np.array(ticks) < max(ticks)
    assert done.any() and not done.all()
    # the rows that converged in time carry their lone values
    assert err.value.best_value[done].tolist() == [
        v for (v, _, _), ok in zip(lone, done) if ok]


def ordering_state(i):
    rng = rng_from((85, i))
    nb, da, dc = (int(rng.integers(2, 5)) for _ in range(3))
    if i % 3 == 2:
        return random_cq((nb, dc, da), (), rng, names=["B", "C", "A"],
                         qnames=[])
    return random_cq((nb,), (da, dc), rng, names=["B"], qnames=["A", "C"])


@pytest.mark.parametrize("i", range(6))
def test_ordering_kernels_equal_lone_public_calls(i):
    st = ordering_state(i)
    rows = ent._down_partial(st, ["A"], "B", ALPHAS)
    assert [r[0] for r in rows] == [ent.h_down(st, ["A"], a) for a in ALPHAS]
    assert [r[1] for r in rows] == [ent.h_partial(st, ["A"], "B", a)
                                    for a in ALPHAS]
    assert ent._h_up(st, ["A"], ALPHAS) == [ent.h_up(st, ["A"], a)
                                            for a in ALPHAS]


def lone(**fns):
    """The three public entropies mapped over the orders, with ``fns`` in
    place of some."""
    return {"h_down_fn": ent.h_down, "h_partial_fn": ent.h_partial,
            "h_up_fn": ent.h_up, **fns}


def report(cfg, **fns):
    out = check_ordering(cfg, **fns).as_dict()
    out.pop("elapsed")
    return out


@pytest.mark.parametrize("alphas", [ALPHAS, (2.0, 2.0), (1.5,)],
                         ids=["four", "duplicate", "single"])
def test_check_ordering_equals_mapped_lone_calls(alphas):
    cfg = SuiteConfig(seed=4, counts={"ordering": 6}, alphas=alphas)
    assert report(cfg) == report(cfg, **lone())
    # a shifted entropy fails every record, so the records show the values
    # each kernel returned next to those of the lone calls
    up = lambda st, a, alpha: ent.h_up(st, a, alpha) - 5.0  # noqa: E731
    down = lambda st, a, alpha: ent.h_down(st, a, alpha) + 5.0  # noqa: E731
    for shifted in ({"h_up_fn": up}, {"h_down_fn": down}):
        got = report(cfg, **shifted)
        assert len(got["failures"]) == 6 * len(alphas)
        assert got == report(cfg, **lone(**shifted))


@pytest.mark.parametrize("seed", range(3))
def test_compare_rows_equal_public_calls(seed):
    rng = rng_from((86, seed))
    s = TwoQubitStrategy(random_density((2, 2), rng, rank=1 + seed),
                         tuple(map(tuple, rng.uniform(-3, 3, (2, 2)))),
                         tuple(map(tuple, rng.uniform(-3, 3, (2, 2)))))
    p_b = np.array([0.4, 0.0, 0.25, 0.35])
    st = strategy_to_cq(s, p_b)
    for row in compare_entropies(s, p_b, ALPHAS):
        assert row.h_down == ent.h_down(st, ["A"], row.alpha)
        assert row.h_partial == ent.h_partial(st, ["A"], "B", row.alpha)
        assert row.gap == row.h_partial - row.h_down
        _, _, pb, hb = ent._down_partial(st, ["A"], "B", (row.alpha,))[0]
        assert list(row.per_b.values()) == hb.tolist() and len(hb) == 3
        assert row.asymmetry == max(hb) - min(hb)
