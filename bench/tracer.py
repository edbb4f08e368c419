"""Per-layer tracing from outside the package.

``Tracer.install`` wraps every public function and public method defined in
the layer modules (``qcore``, ``entropy``, ``eatrate``, ``optimize``,
``channel``, ``verify``), plus ``numpy.linalg.eigh``/``eigvalsh``. Each
function object is replaced at every ``renyiacc.*`` module attribute bound to
it, so calls through ``from .x import f`` bindings are seen too.
``Tracer.restore`` puts every original back.

A wrapper records one span (name, parent, start, end) per call, or one span
per resumption for generator functions, in an in-memory list. Self time is a
span's duration minus the durations of its child spans; spans of one thread
never overlap, so the children cover exactly that much of the parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

LAYERS = ("qcore", "entropy", "eatrate", "optimize", "channel", "verify")
EIGH = "qcore.eigh"
OBJECTIVE = "optimize.nelder_mead.objective"
ROOT = "bench.op"


def _layer_modules():
    for layer in LAYERS:
        mod = importlib.import_module(f"renyiacc.{layer}")
        yield layer, mod
        if hasattr(mod, "__path__"):  # a package: its submodules too
            for sub in sorted(Path(mod.__path__[0]).glob("[!_]*.py")):
                yield layer, importlib.import_module(f"{mod.__name__}.{sub.stem}")


def discover():
    """Public functions of the layers: (name, owner, attribute, kind, func).

    ``kind`` is "function", "method", "staticmethod" or "classmethod".
    """
    found = []
    for layer, mod in _layer_modules():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((f"{layer}.{attr}", mod, attr, "function", obj))
            elif inspect.isclass(obj):
                for meth, raw in vars(obj).items():
                    if meth.startswith("_"):
                        continue
                    name = f"{layer}.{attr}.{meth}"
                    if inspect.isfunction(raw):
                        found.append((name, obj, meth, "method", raw))
                    elif isinstance(raw, (staticmethod, classmethod)):
                        found.append((name, obj, meth, type(raw).__name__,
                                      raw.__func__))
    return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._spans = array("q")           # name id, parent index, start, end
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self.present: set[str] = set()
        self._grid_keys: set = set()       # simplex_grid (k, resolution) seen
        self._patches: list = []           # (owner, attribute, original)

    # -- spans --------------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self._spans) // 4
        self._spans.extend((nid, self._stack[-1] if self._stack else -1,
                            perf_counter_ns(), 0))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._spans[4 * idx + 3] = perf_counter_ns()
        self._stack.pop()

    @property
    def span_count(self) -> int:
        return len(self._spans) // 4

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span (the benchmark's root span per op)."""
        self.calls[name] += 1
        idx = self._open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def reset(self) -> None:
        """Drop spans and counts (after warm-up); keeps grid-key history."""
        self._spans = array("q")
        self.calls.clear()
        self.extra.clear()

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, name: str, fn):
        nid = self._id(name)
        hook = _HOOKS.get(name)
        traces_objective = name == "optimize.nelder_mead"
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if traces_objective:
                args, kwargs = self._trace_objective(args, kwargs)
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out
        return wrapper

    def _trace_objective(self, args, kwargs):
        # a span around the objective, so nelder_mead's self time excludes it
        nid = self._id(OBJECTIVE)

        def objective(x, _f=(args[0] if args else kwargs["f"])):
            idx = self._open(nid)
            try:
                return _f(x)
            finally:
                self._close(idx)
        if args:
            return (objective,) + tuple(args[1:]), kwargs
        return args, dict(kwargs, f=objective)

    def install(self) -> "Tracer":
        targets = {}      # id(original function) -> wrapper
        for name, owner, attr, kind, fn in discover():
            wrapper = self._wrap(name, fn)
            targets[id(fn)] = wrapper
            self.present.add(name)
            if kind != "function":
                raw = owner.__dict__[attr]
                self._patch(owner, attr, raw, wrapper if kind == "method"
                            else type(raw)(wrapper))
        linalg = np.linalg
        for attr in ("eigh", "eigvalsh"):
            fn = getattr(linalg, attr)
            wrapper = self._wrap(EIGH, fn)
            targets[id(fn)] = wrapper
            self._patch(linalg, attr, fn, wrapper)
        self.present.add(EIGH)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "renyiacc"
                                   or mod_name.startswith("renyiacc.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, obj, wrapper)
        return self

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------------
    def span_arrays(self) -> dict:
        arr = np.frombuffer(self._spans, dtype=np.int64).reshape(-1, 4).copy()
        return {"name_id": arr[:, 0], "parent": arr[:, 1],
                "start_ns": arr[:, 2], "end_ns": arr[:, 3],
                "names": np.array(self.names)}

    def _durations(self):
        """Span arrays, each span's duration and its self time (ns)."""
        s = self.span_arrays()
        dur = s["end_ns"] - s["start_ns"]
        child = s["parent"] >= 0
        covered = np.bincount(s["parent"][child], weights=dur[child],
                              minlength=dur.size)
        return s, dur, dur - covered

    def times(self) -> tuple[dict, dict]:
        """(self ns, inclusive ns) per span name."""
        s, dur, self_ns = self._durations()
        n = len(self.names)
        by_self = np.bincount(s["name_id"], weights=self_ns, minlength=n)
        by_incl = np.bincount(s["name_id"], weights=dur, minlength=n)
        return (dict(zip(self.names, by_self.tolist())),
                dict(zip(self.names, by_incl.tolist())))

    def layer_times(self) -> dict:
        """Per layer: (self ns, ns inside the layer).

        Inside time is the wall time between entering the layer and leaving
        it, callees in other layers included and nested re-entries counted
        once.
        """
        s, dur, self_ns = self._durations()
        layer_of = [n.split(".")[0] for n in self.names]
        bit = {lay: 1 << k for k, lay in enumerate(sorted(set(layer_of)))}
        lbit = [bit[layer_of[i]] for i in s["name_id"].tolist()]
        above = [0] * len(lbit)        # layers on the path above each span
        for i, p in enumerate(s["parent"].tolist()):
            if p >= 0:
                above[i] = above[p] | lbit[p]
        lbit, above = np.array(lbit, dtype=np.int64), np.array(above, dtype=np.int64)
        outermost = (above & lbit) == 0
        return {lay: (float(self_ns[lbit == b].sum()),
                      float(dur[outermost & (lbit == b)].sum()))
                for lay, b in bit.items()}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.span_arrays())


def _eigh_hook(tr, args, kwargs, out):
    a = args[0] if args else kwargs["a"]
    tr.extra[f"{EIGH}.mean_dim"] += np.shape(a)[-1]


def _up_dense_hook(tr, args, kwargs, out):
    tr.extra["entropy.h_up_dense.iters"] += out[2]


def _grid_hook(tr, args, kwargs, out):
    tr.extra["optimize.simplex_grid.points"] += len(out)
    key = tuple(args) + tuple(sorted(kwargs.items()))
    if key in tr._grid_keys:
        tr.extra["optimize.simplex_grid.repeats"] += 1
    tr._grid_keys.add(key)


def _nelder_mead_hook(tr, args, kwargs, out):
    tr.extra["optimize.nelder_mead.evals"] += out[2]


_HOOKS = {
    EIGH: _eigh_hook,
    "entropy.h_up_dense": _up_dense_hook,
    "optimize.simplex_grid": _grid_hook,
    "optimize.nelder_mead": _nelder_mead_hook,
}


# ---------------------------------------------------------------------------
# per-layer metrics: (metric, unit, base span, how)
# ---------------------------------------------------------------------------

_ENTROPY_CALLS = ("entropy.h_down", "entropy.h_partial", "entropy.h_up")

LAYER_METRICS = [
    ("qcore.eigh.calls", "calls/op", EIGH, "calls"),
    ("qcore.eigh.self_ms", "ms/op", EIGH, "self"),
    ("qcore.eigh.mean_dim", "dim", EIGH, "mean_dim"),
    ("qcore.embed.calls", "calls/op", "qcore.embed", "calls"),
    ("qcore.embed.self_ms", "ms/op", "qcore.embed", "self"),
    # the module-level partial_trace only delegates to the method
    ("qcore.partial_trace.self_ms", "ms/op",
     "qcore.DensityOperator.partial_trace", "self"),
    ("qcore.CqState.group_by.self_ms", "ms/op", "qcore.CqState.group_by", "self"),
    ("qcore.CqState.marginal.self_ms", "ms/op", "qcore.CqState.marginal", "self"),
    ("qcore.CqState.to_density.self_ms", "ms/op", "qcore.CqState.to_density", "self"),
    ("entropy.h_down.calls", "calls/op", "entropy.h_down", "calls"),
    ("entropy.h_down.self_ms", "ms/op", "entropy.h_down", "self"),
    ("entropy.h_partial.calls", "calls/op", "entropy.h_partial", "calls"),
    ("entropy.h_partial.self_ms", "ms/op", "entropy.h_partial", "self"),
    ("entropy.h_up.calls", "calls/op", "entropy.h_up", "calls"),
    ("entropy.h_up.self_ms", "ms/op", "entropy.h_up", "self"),
    ("entropy.renyi_divergence.calls", "calls/op", "entropy.renyi_divergence", "calls"),
    ("entropy.h_up_dense.calls", "calls/op", "entropy.h_up_dense", "calls"),
    ("entropy.h_up_dense.self_ms", "ms/op", "entropy.h_up_dense", "self"),
    ("entropy.h_up_dense.iters_per_call", "iters/call", "entropy.h_up_dense", "iters"),
    ("entropy.eigh_per_entropy_call", "ratio", EIGH, "eigh_per_entropy"),
    ("eatrate.inner_inf_v.calls", "calls/op", "eatrate.inner_inf_v", "calls"),
    ("eatrate.inner_inf_v.self_ms", "ms/op", "eatrate.inner_inf_v", "self"),
    ("eatrate.inner_inf_v.us_per_call", "us/call", "eatrate.inner_inf_v", "us_per_call"),
    ("eatrate.inner_inf_v_grid.self_ms", "ms/op", "eatrate.inner_inf_v_grid", "self"),
    ("eatrate.single_round_h.calls", "calls/op", "eatrate.single_round_h", "calls"),
    ("optimize.simplex_grid.calls", "calls/op", "optimize.simplex_grid", "calls"),
    ("optimize.simplex_grid.points", "points/op", "optimize.simplex_grid", "points"),
    ("optimize.simplex_grid.self_ms", "ms/op", "optimize.simplex_grid", "self"),
    ("optimize.simplex_grid.repeat_share", "share", "optimize.simplex_grid", "repeats"),
    ("optimize.nelder_mead.calls", "calls/op", "optimize.nelder_mead", "calls"),
    ("optimize.nelder_mead.evals_per_call", "evals/call", "optimize.nelder_mead", "evals"),
    ("optimize.nelder_mead.self_ms", "ms/op", "optimize.nelder_mead", "self"),
    ("channel.strategy_to_cq.calls", "calls/op", "channel.strategy_to_cq", "calls"),
    ("channel.strategy_to_cq.self_ms", "ms/op", "channel.strategy_to_cq", "self"),
    ("channel.response_table.self_ms", "ms/op",
     "channel.TwoQubitStrategy.response_table", "self"),
    ("channel.build_sampling_channel.self_ms", "ms/op",
     "channel.build_sampling_channel", "self"),
    ("verify.simulate_two_rounds.self_ms", "ms/op", "verify.simulate_two_rounds", "self"),
    ("verify.check_ordering.self_ms", "ms/op", "verify.check_ordering", "self"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, n_ops: int) -> tuple[dict, list]:
    """Per-op layer metrics and the metric names whose function is absent.

    A ratio over zero calls reads 0; a function missing from the package
    makes its metrics absent, never 0.
    """
    self_ns, incl_ns = tr.times()
    out, absent = {}, []
    for metric, unit, base, how in LAYER_METRICS:
        if base not in tr.present or (how == "eigh_per_entropy" and not all(
                e in tr.present for e in _ENTROPY_CALLS)):
            absent.append(metric)
            continue
        calls = tr.calls.get(base, 0)
        if how == "calls":
            value = calls / n_ops
        elif how == "self":
            value = self_ns.get(base, 0.0) / 1e6 / n_ops
        elif how == "us_per_call":
            value = _ratio(incl_ns.get(base, 0.0) / 1e3, calls)
        elif how == "eigh_per_entropy":
            value = _ratio(calls, sum(tr.calls.get(e, 0) for e in _ENTROPY_CALLS))
        elif how == "points":
            value = tr.extra["optimize.simplex_grid.points"] / n_ops
        else:  # mean_dim, iters, evals, repeats: per call of the base function
            value = _ratio(tr.extra[f"{base}.{how}"], calls)
        out[metric] = {"value": float(value), "unit": unit}
    return out, absent


def top_layers(tr: Tracer, n_ops: int, count: int = 8) -> dict:
    """Largest self times per op by span, and self / inside ms per layer."""
    self_ns, _ = tr.times()
    ranked = sorted(self_ns.items(), key=lambda kv: -kv[1])[:count]
    return {"spans": [(name, ns / 1e6 / n_ops) for name, ns in ranked],
            "layers": {lay: (a / 1e6 / n_ops, b / 1e6 / n_ops)
                       for lay, (a, b) in sorted(tr.layer_times().items(),
                                                 key=lambda kv: -kv[1][0])}}
