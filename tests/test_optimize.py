import math
import tracemalloc

import numpy as np
import pytest

from renyiacc import optimize
from renyiacc.errors import BadShapeError
from renyiacc.optimize import (
    concave_simplex_max,
    nelder_mead,
    nelder_mead_batch,
    simplex_grid,
)

# (1, 128) to (2, 32767) sat at the int8 and int16 edges of an earlier
# build; (3, 255) and (3, 256) are the last uint8 and the first uint16 grids
GRID_CASES = [(k, r) for k in range(1, 6) for r in (1, 2, 5, 8, 12)] + [
    (2, 48), (3, 20), (3, 64), (4, 40), (5, 10), (3, 130), (2, 40000),
    (1, 128), (2, 127), (3, 126), (2, 32767), (3, 255), (3, 256)]


def reference_grid(k, resolution):
    """Recursive enumeration of the integer numerators: first coordinate
    slowest, each ascending."""
    pts = []

    def rec(prefix, left):
        if len(prefix) == k - 1:
            pts.append(prefix + [left])
            return
        for i in range(left + 1):
            rec(prefix + [i], left - i)

    rec([], resolution)
    return np.asarray(pts)


@pytest.mark.parametrize("k,resolution", GRID_CASES)
def test_grid_matches_recursive_enumeration(k, resolution):
    grid = simplex_grid(k, resolution)
    ref = reference_grid(k, resolution)
    assert np.array_equal(grid, ref)
    points = grid / resolution
    assert points.dtype == np.float64
    assert np.array_equal(points, ref / resolution)


@pytest.mark.parametrize("k,resolution", GRID_CASES)
def test_grid_counts_and_numerators(k, resolution):
    grid = simplex_grid(k, resolution)
    assert grid.dtype == (np.uint8 if resolution <= 255 else np.uint16)
    assert grid.shape == (math.comb(resolution + k - 1, k - 1), k)
    assert (grid.sum(axis=1) == resolution).all()
    assert len(np.unique(grid, axis=0)) == len(grid)


def test_grid_is_shared_and_read_only():
    grid = simplex_grid(3, 7)
    assert simplex_grid(3, 7) is grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0, 0] = 1
    with pytest.raises(ValueError):
        grid[1][0] = 1
    row = grid[0].copy()
    row[0] = 1
    assert grid[0, 0] == 0


def test_grid_rejects_a_float_resolution(monkeypatch):
    monkeypatch.setattr(optimize, "_GRIDS", {})
    with pytest.raises(TypeError):
        simplex_grid(3, 20.0)
    assert not optimize._GRIDS


def test_grid_build_traces_little_memory(monkeypatch):
    # a fresh cache, so the build runs and the shared grids stay as they are
    monkeypatch.setattr(optimize, "_GRIDS", {})
    tracemalloc.start()
    try:
        grid = simplex_grid(4, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.nbytes == 4 * 1373701  # one byte per numerator
    assert peak < 20e6


@pytest.mark.parametrize("k,resolution", [(3, 0), (3, -2), (0, 5), (-1, 5)])
def test_grid_rejects_bad_arguments(k, resolution):
    with pytest.raises(BadShapeError):
        simplex_grid(k, resolution)
    assert (k, resolution) not in optimize._GRIDS


@pytest.mark.parametrize("center", [(1.0,), (0.3, 0.7), (0.2, 0.3, 0.5),
                                    (0.61, 0.05, 0.34)])
def test_concave_simplex_max_finds_known_maximizer(center):
    c = np.array(center)

    def f(q):
        return 1.0 - float(((q - c) ** 2).sum())

    res = concave_simplex_max(f, len(c))
    assert res.point.shape == c.shape
    assert res.point.min() >= 0.0
    assert res.point.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(res.point, c, atol=1e-5)
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert res.certificate <= 1e-10



def test_concave_simplex_max_out_of_rounds_reports_inf():
    # maximizer on a face: the star refinement leaves the face and creeps
    # back, so the default round budget runs out before the stopping rule
    c = np.array([0.11, 0.0, 0.89])

    def f(q):
        return 1.0 - float(((q - c) ** 2).sum())

    res = concave_simplex_max(f, 3)
    assert res.value < 1.0 - 1e-7
    assert res.certificate == math.inf


# ---------------------------------------------------------------------------
# Nelder-Mead: one simplex and lockstep simplices
# ---------------------------------------------------------------------------

def rosenbrock_rows(xs):
    """Row-exact: elementwise per row, +inf where the first coordinate > 5."""
    xs = np.asarray(xs, dtype=float)
    val = ((1.0 - xs[:, :-1]) ** 2
           + 100.0 * (xs[:, 1:] - xs[:, :-1] ** 2) ** 2).sum(axis=1)
    return np.where(xs[:, 0] > 5.0, math.inf, val)


def rosenbrock(x):
    return rosenbrock_rows(np.asarray(x)[None, :])[0]


NM_STARTS = [
    [1.001, 0.999, 1.002],   # near the minimum: converges early
    [-1.2, 1.0, 0.5],        # far: runs into the iteration cap below
    [9.0, 9.0, 9.0],         # an all-infinite simplex: stops at once
    [0.3, -0.4, 2.0],
    [1.5, 2.2, 4.9],
]


@pytest.mark.parametrize("max_iter", [150, 2000])
def test_nelder_mead_batch_rows_equal_lone_runs(max_iter):
    runs = nelder_mead_batch(rosenbrock_rows, NM_STARTS, scale=0.3,
                             max_iter=max_iter)
    assert len(runs) == len(NM_STARTS)
    for start, (x, f, evals) in zip(NM_STARTS, runs):
        x1, f1, evals1 = nelder_mead(rosenbrock, start, scale=0.3,
                                     max_iter=max_iter)
        assert np.array_equal(x, x1)
        assert f == f1
        assert evals == evals1
    evals = [e for _, _, e in runs]
    assert len(set(evals)) >= 3  # the rows stop at different ticks
    assert evals[2] == 4


def test_nelder_mead_batch_mixes_capped_and_converged_rows():
    capped = nelder_mead_batch(rosenbrock_rows, NM_STARTS, scale=0.3,
                               max_iter=150)
    free = nelder_mead_batch(rosenbrock_rows, NM_STARTS, scale=0.3,
                             max_iter=2000)
    # the near start converges under the cap, the far one is stopped by it
    assert capped[0][2] == free[0][2]
    assert capped[1][2] < free[1][2]
    assert free[1][1] < capped[1][1]


def test_nelder_mead_batch_one_call_per_tick():
    sizes = []

    def fbatch(xs):
        sizes.append(len(xs))
        return rosenbrock_rows(xs)

    runs = nelder_mead_batch(fbatch, NM_STARTS[:2], scale=0.3, max_iter=50)
    assert sizes[0] == 2 * 4  # n + 1 points per simplex at the start
    assert sum(sizes) == sum(e for _, _, e in runs)


def test_nelder_mead_batch_keyed_names_each_rows_simplex():
    ticks = []

    def fbatch(xs, starts):
        ticks.append((xs, starts))
        return rosenbrock_rows(xs)

    runs = nelder_mead_batch(fbatch, NM_STARTS, scale=0.3, max_iter=150,
                             keyed=True)
    plain = nelder_mead_batch(rosenbrock_rows, NM_STARTS, scale=0.3,
                              max_iter=150)
    assert [(x.tolist(), f, e) for x, f, e in runs] == \
        [(x.tolist(), f, e) for x, f, e in plain]
    assert ticks[0][1].tolist() == np.repeat(range(5), 4).tolist()
    # every row a simplex asked for is one of the points it ran on
    for i, (_, _, evals) in enumerate(runs):
        rows = np.concatenate([xs[starts == i] for xs, starts in ticks])
        assert len(rows) == evals
    assert all(len(xs) == len(starts) for xs, starts in ticks)


@pytest.mark.parametrize("max_iter", [150, 2000])
def test_speculative_steps_equal_plain_steps_in_fewer_ticks(max_iter):
    sizes, runs = {}, {}
    for speculate in (False, True):
        sizes[speculate] = []

        def fbatch(xs, seen=sizes[speculate]):
            seen.append(len(xs))
            return rosenbrock_rows(xs)

        runs[speculate] = nelder_mead_batch(fbatch, NM_STARTS, scale=0.3,
                                            max_iter=max_iter,
                                            speculate=speculate)
    for (x, f, _), (x_spec, f_spec, _) in zip(runs[False], runs[True]):
        assert np.array_equal(x, x_spec)
        assert f == f_spec
    assert len(sizes[True]) < len(sizes[False])
    assert sum(sizes[True]) == sum(e for _, _, e in runs[True])
    assert runs[True][2][2] == 4  # the all-infinite simplex asks for no step


def test_speculative_keyed_rows_name_their_simplex():
    ticks = []

    def fbatch(xs, starts):
        ticks.append((xs, starts))
        return rosenbrock_rows(xs)

    runs = nelder_mead_batch(fbatch, NM_STARTS, scale=0.3, max_iter=150,
                             keyed=True, speculate=True)
    for i, start in enumerate(NM_STARTS):
        lone = []
        [(x, f, evals)] = nelder_mead_batch(
            lambda xs: lone.append(xs) or rosenbrock_rows(xs), [start],
            scale=0.3, max_iter=150, speculate=True)
        rows = np.concatenate([xs[starts == i] for xs, starts in ticks])
        # the rows keyed i are, in order, the rows simplex i asks for alone
        assert np.array_equal(rows, np.concatenate(lone))
        assert len(rows) == evals == runs[i][2]
        assert np.array_equal(x, runs[i][0]) and f == runs[i][1]


def test_nelder_mead_all_infinite_simplex_stops_after_first_tick():
    calls = []

    def f(x):
        calls.append(x)
        return math.inf

    x, val, evals = nelder_mead(f, np.zeros(3))
    assert val == math.inf and evals == 4 and len(calls) == 4
    ticks = []

    def fbatch(xs):
        ticks.append(len(xs))
        return np.full(len(xs), math.inf)

    runs = nelder_mead_batch(fbatch, [np.zeros(3), np.ones(3)])
    assert ticks == [8]
    assert [e for _, _, e in runs] == [4, 4]


# (f_best, evals) and x_best per NM_STARTS row at scale 0.3, recorded from
# the list-based driver that preceded the array-backed one: a change to the
# step arithmetic that both drivers share shows here
NM_PINNED = {
    150: ([(4.888268466343844e-21, 267), (0.06438611545424842, 269),
           (math.inf, 4), (1.8999472066672054e-11, 267),
           (6.088325677550187e-15, 272)],
          [[0.9999999999941378, 0.9999999999908475, 0.9999999999752852],
           [0.8923977323556987, 0.7908637575983348, 0.6176976397338874],
           [9.0, 9.0, 9.0],
           [0.9999985179992861, 0.999997312265694, 0.9999944850036935],
           [0.99999997524415, 0.9999999454854787, 0.9999998910613925]]),
    2000: ([(4.888268466343844e-21, 267), (4.3341638972310796e-21, 555),
            (math.inf, 4), (3.841634942919781e-21, 398),
            (1.439245442501287e-21, 358)],
           [[0.9999999999941378, 0.9999999999908475, 0.9999999999752852],
            [1.0000000000142293, 1.0000000000307403, 1.000000000066644],
            [9.0, 9.0, 9.0],
            [1.0000000000205542, 1.0000000000365472, 1.0000000000729221],
            [0.9999999999936571, 0.9999999999905136, 0.9999999999827165]]),
}


@pytest.mark.parametrize("max_iter", sorted(NM_PINNED))
def test_nelder_mead_pinned_values(max_iter):
    f_evals, xs = NM_PINNED[max_iter]
    runs = nelder_mead_batch(rosenbrock_rows, NM_STARTS, scale=0.3,
                             max_iter=max_iter)
    assert [(f, e) for _, f, e in runs] == f_evals
    assert [x.tolist() for x, _, _ in runs] == xs
    x, f, evals = nelder_mead(rosenbrock, NM_STARTS[1], scale=0.3,
                              max_iter=max_iter)
    assert type(f) is float
    assert (f, evals) == f_evals[1] and x.tolist() == xs[1]
