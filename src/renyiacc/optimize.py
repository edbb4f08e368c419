"""Derivative-free optimization helpers: Nelder-Mead simplex descent, one
start or many in lockstep, and cached integer grids on probability
simplices."""

from __future__ import annotations

import operator

import numpy as np

from .errors import BadShapeError


def _nelder_mead_steps(x0, scale: float, tol: float, max_iter: int,
                       speculate: bool):
    """Nelder-Mead as a step generator: yields an array of points, is sent
    their values, and returns (x_best, f_best, evals).

    It asks for n + 1 points at the start, 1 to reflect, then 1 more to
    expand or contract, and n to shrink. With ``speculate`` it asks for the
    reflection, the expansion and the inside contraction together, 3 points
    in one ask, and takes the same decision from their values (Dennis and
    Torczon, *Direct search methods on parallel machines*, 1991). A simplex
    whose best and worst values are equal (infinite ones included) has
    converged. The simplex is one (n + 1, n) array, its values one float
    array; ``evals`` counts every point asked for.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    pts = np.tile(x0, (n + 1, 1))
    axes = np.arange(n)
    pts[axes + 1, axes] += np.where(x0 == 0.0, scale,
                                    scale * np.maximum(np.abs(x0), 1.0))
    vals = np.array((yield pts), dtype=float)
    evals = n + 1
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    for _ in range(max_iter):
        order = vals.argsort()
        pts, vals = pts[order], vals[order]
        if vals[-1] == vals[0] or \
                abs(vals[-1] - vals[0]) < tol * (abs(vals[0]) + tol):
            break
        centroid = pts[:-1].sum(axis=0) / n
        refl = centroid + alpha * (centroid - pts[-1])
        if speculate:  # the points of both branches below, asked up front
            expd = centroid + gamma * (refl - centroid)
            contr = centroid + rho * (pts[-1] - centroid)
            f_refl, f_exp, f_con = (yield np.stack([refl, expd, contr]))
            evals += 3
        else:
            f_refl = (yield refl[None])[0]
            evals += 1
        if vals[0] <= f_refl < vals[-2]:
            pts[-1], vals[-1] = refl, f_refl
            continue
        if f_refl < vals[0]:
            if not speculate:
                expd = centroid + gamma * (refl - centroid)
                f_exp = (yield expd[None])[0]
                evals += 1
            pts[-1], vals[-1] = ((expd, f_exp) if f_exp < f_refl
                                 else (refl, f_refl))
            continue
        if not speculate:
            contr = centroid + rho * (pts[-1] - centroid)
            f_con = (yield contr[None])[0]
            evals += 1
        if f_con < vals[-1]:
            pts[-1], vals[-1] = contr, f_con
            continue
        pts[1:] = pts[0] + sigma * (pts[1:] - pts[0])
        vals[1:] = (yield pts[1:])
        evals += n
    best = vals.argmin()
    return pts[best], vals[best], evals


def nelder_mead(f, x0, scale: float = 0.25, max_iter: int = 2000):
    """Plain Nelder-Mead minimization: ``nelder_mead_batch`` from one start,
    scoring each point with ``f``, at tolerance 1e-10; returns (x_best,
    f_best, evals)."""
    [(x, val, evals)] = nelder_mead_batch(lambda pts: [f(p) for p in pts],
                                          [x0], scale, 1e-10, max_iter)
    return x, float(val), evals


def nelder_mead_batch(fbatch, x0s, scale: float = 0.25, tol: float = 1e-10,
                      max_iter: int = 2000, keyed: bool = False,
                      speculate: bool = False) -> list:
    """Nelder-Mead from each start in ``x0s``, all simplices in lockstep.

    Every tick stacks the points the live simplices ask for and scores them
    in one call ``fbatch(points) -> values``, shape (m, n) -> (m,). With
    ``keyed`` the call is ``fbatch(points, starts)``, where ``starts[i]`` is
    the index in ``x0s`` of the simplex that asked for row i, so ``fbatch``
    can keep state per simplex. A simplex takes the same decisions it would
    take alone, so an ``fbatch`` whose values for a simplex's rows depend on
    that simplex alone gives what ``nelder_mead`` gives per start. Returns
    one (x_best, f_best, evals) per start, in order.

    With ``speculate`` each iteration scores the reflection, expansion and
    inside contraction in one tick, 3 rows where the plain steps score 1 or
    2 in 1 or 2 ticks. On such an ``fbatch`` the simplices take the same
    steps in fewer ticks; ``evals`` then counts the unused rows too. It pays
    where a tick is mostly per-call overhead on a few rows, and costs where
    the rows themselves dominate.
    """
    runs = [_nelder_mead_steps(x0, scale, tol, max_iter, speculate)
            for x0 in x0s]
    asks = [next(run) for run in runs]
    out = [None] * len(runs)
    live = list(range(len(runs)))
    while live:
        points = np.concatenate([asks[i] for i in live])
        vals = (fbatch(points, np.repeat(live, [len(asks[i]) for i in live]))
                if keyed else fbatch(points))
        at = 0
        for i in live:
            m = len(asks[i])
            try:
                asks[i] = runs[i].send(vals[at:at + m])
            except StopIteration as stop:
                out[i] = stop.value
            at += m
        live = [i for i in live if out[i] is None]
    return out


_GRIDS: dict[tuple[int, int], np.ndarray] = {}


def simplex_grid(k: int, resolution: int) -> np.ndarray:
    """The integer numerators of all points of the k-coordinate simplex with
    denominator = resolution, in ``np.min_scalar_type(resolution)`` (uint8 up
    to 255); divide by ``resolution`` for the points.

    Rows come in lexicographic order, first coordinate slowest. The array is
    built once per ``(k, resolution)`` and shared by every later call, so it
    is read-only: callers must copy a grid or a row before writing to it.
    """
    if k < 1 or resolution < 1:
        raise BadShapeError(f"simplex grid needs k >= 1 and resolution >= 1, "
                            f"got k={k}, resolution={resolution}")
    grid = _GRIDS.get((k, resolution))
    if grid is None:
        # each pass gives a row with n still to place n + 1 children that
        # place 0, 1, ..., n in the next column; its run of children ends at
        # position cumsum(counts) - 1, and the child at position j keeps that
        # end minus j. Positions are int32; the columns stay narrow
        dtype = np.min_scalar_type(operator.index(resolution))
        cols = [np.array([resolution], dtype=dtype)]  # last: left to place
        for _ in range(k - 1):
            counts = cols[-1].astype(np.int32) + 1
            rest = np.repeat(np.cumsum(counts, dtype=np.int32) - 1, counts)
            rest -= np.arange(len(rest), dtype=np.int32)
            rest = rest.astype(dtype)
            cols = [np.repeat(c, counts) for c in cols]
            cols[-1] -= rest
            cols.append(rest)
        grid = np.stack(cols, axis=1)
        grid.flags.writeable = False
        _GRIDS[(k, resolution)] = grid
    return grid
