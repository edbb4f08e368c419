"""The benchmark's own tests.

    python3 -m pytest bench -q
"""

import gc
import importlib
import inspect
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# a cheap timed index per workload (oracle_cert: a 3-symbol pool slot)
SMOKE_INDEX = {"ordering": 1, "two_round": 1, "rate_search": 1,
               "oracle_cert": 3}


def test_names_agree_with_benchmark_json():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == [
        m[0] for m in tracing.LAYER_METRICS] + ["trace.overhead"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"][:-1]} == {
        m[0]: m[1] for m in tracing.LAYER_METRICS}
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_op_passes_its_gate(name):
    wl = workloads.WORKLOADS[name]
    res = wl.run(wl.draw(0, SMOKE_INDEX[name]))
    assert res.ok, res.detail


def test_golden_check_passes_and_catches_a_broken_value(monkeypatch):
    workloads.golden_check()
    good = workloads.counterexample.ce_report(1.5)

    class Broken:
        def __getattr__(self, attr):
            return good.lhs + 1e-3 if attr == "lhs" else getattr(good, attr)
    monkeypatch.setattr(workloads.counterexample, "ce_report",
                        lambda alpha: Broken())
    with pytest.raises(workloads.GoldenValueError):
        workloads.golden_check()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    draw = workloads.WORKLOADS[name].draw
    first = [workloads.fingerprint(draw(5, j)) for j in range(4)]
    assert first == [workloads.fingerprint(draw(5, j)) for j in range(4)]
    other = [workloads.fingerprint(draw(6, j)) for j in range(4)]
    assert all(a != b for a, b in zip(first, other))
    assert len(set(first)) == len(first)


@pytest.mark.parametrize("name", ["ordering", "two_round", "oracle_cert"])
def test_same_inputs_same_output_checksum(name):
    wl = workloads.WORKLOADS[name]
    j = SMOKE_INDEX[name]
    assert wl.run(wl.draw(3, j)).checksum == wl.run(wl.draw(3, j)).checksum


def test_two_round_draw_matches_the_property_suite():
    # same child seed tags and draw order as check_two_round_accumulation
    seen = []
    orig = workloads.verify.simulate_two_rounds

    def spy(proto, attack, cset, alpha):
        seen.append((alpha, proto.gamma, attack.initial.copy()))
        return orig(proto, attack, cset, alpha)
    workloads.verify.simulate_two_rounds = spy
    try:
        workloads.verify.check_two_round_accumulation(
            workloads.verify.SuiteConfig(seed=workloads.POOL_SEED,
                                         counts={"two_round": 1}))
    finally:
        workloads.verify.simulate_two_rounds = orig
    inp = workloads.two_round_instance(0)
    assert seen[0][:2] == (inp["alpha"], inp["gamma"])
    assert np.array_equal(seen[0][2], np.asarray(inp["initial"]))


def _bindings():
    """Every attribute of renyiacc modules and their classes, plus eigh."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("renyiacc"):
            continue
        for attr, obj in vars(mod).items():
            out[(mod_name, attr)] = obj
            if inspect.isclass(obj):
                for meth, raw in vars(obj).items():
                    out[(mod_name, attr, meth)] = raw
    for attr in ("eigh", "eigvalsh"):
        out[("numpy.linalg", attr)] = getattr(np.linalg, attr)
    return out


def test_tracer_wraps_every_binding_and_restores_every_original():
    for layer in tracing.LAYERS:
        importlib.import_module(f"renyiacc.{layer}")
    before = _bindings()
    tr = tracing.Tracer().install()
    try:
        import renyiacc.eatrate as eatrate
        import renyiacc.verify as verify
        from renyiacc.qcore import CqState
        assert eatrate.inner_inf_v is not before[("renyiacc.eatrate",
                                                  "inner_inf_v")]
        assert verify.inner_inf_v is eatrate.inner_inf_v
        assert np.linalg.eigh is not before[("numpy.linalg", "eigh")]
        assert CqState.__dict__["group_by"] is not before[
            ("renyiacc.qcore.states", "CqState", "group_by")]
        wl = workloads.WORKLOADS["ordering"]
        assert tr.run(tracing.ROOT, wl.run, wl.draw(0, 1)).ok
        assert tr.calls["verify.check_ordering"] == 1
        assert tr.calls[tracing.EIGH] > 0
        metrics, absent = tracing.layer_metrics(tr, 1)
        assert not absent
        assert metrics["qcore.eigh.calls"]["value"] == tr.calls[tracing.EIGH]
        assert metrics["qcore.eigh.mean_dim"]["value"] >= 2
    finally:
        tr.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_excludes_child_spans():
    tr = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        tr.run("b.inner", inner)
    tr.run("a.outer", outer)
    self_ns, incl_ns = tr.times()
    assert incl_ns["a.outer"] >= incl_ns["b.inner"] >= 0.02e9
    assert self_ns["a.outer"] == pytest.approx(
        incl_ns["a.outer"] - incl_ns["b.inner"])
    assert self_ns["b.inner"] == incl_ns["b.inner"]
    layers = tr.layer_times()
    assert layers["a"] == (self_ns["a.outer"], incl_ns["a.outer"])


def test_absent_function_is_reported_absent_not_zero():
    tr = tracing.Tracer()
    tr.present = {name for _, _, name, _ in tracing.LAYER_METRICS} - {
        "entropy.h_up_dense"}
    tr.run(tracing.ROOT, lambda: None)
    metrics, absent = tracing.layer_metrics(tr, 1)
    assert "entropy.h_up_dense.calls" in absent
    assert "entropy.h_up_dense.calls" not in metrics
    assert metrics["entropy.h_down.calls"]["value"] == 0.0


def test_tail_needs_ten_ops_beyond_it():
    assert run.tail([1.0] * 99) is None  # p90 would leave 9.9 beyond
    p, value = run.tail(list(range(1, 101)))
    assert (p, value) == (90.0, 90)
    assert run.tail(list(range(1, 1001)))[0] == 99.0


def test_end_to_end_times_are_rescaled_to_reference_speed():
    timed = {"latencies": [0.1, 0.2, 0.3], "scales": [1.0, 0.5, 2.0],
             "failures": [], "peak_rss_mb": 40.0,
             "setup_s": 1.0, "setup_scale": 0.5}
    setups = [timed, {"setup_s": 2.0, "setup_scale": 1.0},
              {"setup_s": 0.4, "setup_scale": 1.0}]
    metrics, _ = run.end_to_end(timed, setups)
    # rescaled ops take 0.1, 0.1 and 0.6 s; set-ups 0.5, 2.0 and 0.4 s
    assert metrics["ops_per_s"]["value"] == pytest.approx(3 / 0.8)
    assert metrics["op_p50_ms"]["value"] == pytest.approx(100.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.5)
    assert metrics["peak_rss_mb"]["value"] == 40.0


def test_reference_kernel_is_untraced_and_keeps_gc_state():
    assert calibrate.scale([calibrate.KERNEL_REF_S] * 3) == 1.0
    tr = tracing.Tracer().install()
    try:
        times = calibrate.block(0.0)
    finally:
        tr.restore()
    assert len(times) >= 1 and all(t > 0 for t in times)
    assert tr.calls[tracing.EIGH] == 0
    assert gc.isenabled()


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.0]
    assert compare.verdict(base, [x * 1.3 for x in base], 0.15,
                           "higher") == "gain"
    assert compare.verdict(base, [x * 0.7 for x in base], 0.15,
                           "higher") == "regression"
    assert compare.verdict(base, [x * 0.98 for x in base], 0.15,
                           "higher") == "no regression"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, base, 0.15, "higher") == "unresolved"
    # a change that fails more ops than the parent gains nothing
    assert compare.verdict(base, [x * 1.3 for x in base], 0.15, "higher",
                           parent_failed=0, change_failed=1) == "void"
    assert compare.verdict(base, [x * 1.3 for x in base], 0.15, "higher",
                           parent_failed=2, change_failed=2) == "gain"


def _run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_cli_prints_every_metric_in_the_last_line(trace, section):
    proc = _run_cli("--workload", "two_round", "--seed", "1", "--seconds",
                    "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]}


def test_cli_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run_cli("--workload", "two_round", "--seed", "1", "--seconds",
                    "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
