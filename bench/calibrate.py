"""Machine-speed reference: a fixed kernel timed between the ops of a run.

The virtual machine this benchmark was built on changes speed by up to 2x
within a minute (CPU time and wall time agree, so it is not stolen time).
Every op is therefore followed by a block of reference kernels, and the op's
time is rescaled by how long the kernel took around it: a time "at reference
speed" is ``wall time * KERNEL_REF_S / median kernel time``. The kernel uses
numpy alone, never ``renyiacc``, so a change to the package cannot move it;
it mixes what the package spends its time on: interpreted Python, small
complex ``eigh``/matmul/``kron`` calls, elementwise numpy calls on short
vectors, and a sort of a 1.6 MB array, which feels memory speed more than
the rest. The mix was weighted so that the kernel's time follows the op
times of ``ordering``, ``two_round`` and ``rate_search`` as closely as one
kernel can; no mix followed all of them exactly.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

KERNEL_REF_S = 0.005    # the kernel's time at reference speed, by definition
_rng = np.random.default_rng(0)
_MATS = [a + a.conj().T for a in (
    _rng.normal(size=(d, d)) + 1j * _rng.normal(size=(d, d))
    for d in (2, 3, 4, 6, 8, 12, 16))]
_VECS = [_rng.random(n) for n in range(2, 66)]
_ARRAY = _rng.random(200_000)
_eigh = np.linalg.eigh   # bound now, so the traced run's wrapper never sees it


def kernel() -> float:
    """Run the reference kernel once; its wall time in seconds."""
    t0 = perf_counter()
    counts: dict = {}
    n = 0
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0.0) + 0.5 * i
        n += len(str(i))
    acc = 0.0
    for _ in range(2):
        for m in _MATS:
            w, v = _eigh(m)
            acc += float(np.abs(v @ np.diag(w) @ v.conj().T).sum())
            acc += float(np.kron(m, np.eye(2)).trace().real)
    for _ in range(2):
        for x in _VECS:
            a = np.maximum(x, 0.1)
            acc += float(np.log(a).dot(a) / a.sum())
            acc += float(np.outer(a[:4], a[:4]).sum())
    acc += float(np.sort(_ARRAY)[-1])
    return perf_counter() - t0


def block(budget_s: float) -> list:
    """Kernel times, run back to back for ``budget_s`` (at least one).

    Garbage collection is off meanwhile, so the kernel's time does not
    depend on how many objects the package left alive.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = [kernel()]
        start = perf_counter()
        while perf_counter() - start < budget_s:
            times.append(kernel())
    finally:
        if was_enabled:
            gc.enable()
    return times


def scale(kernel_times: list) -> float:
    """Factor that turns a wall time into a time at reference speed."""
    return KERNEL_REF_S / statistics.median(kernel_times)
