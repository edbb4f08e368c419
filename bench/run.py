"""renyiacc benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload ordering --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of an untraced run;
with ``--trace 1`` the per-layer metrics of a traced run and the tracing
overhead. Every op passes a correctness gate or counts as failed. The report
is printed by name with units; the last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each measurement runs in a fresh worker process (``worker.py``) with BLAS
threads pinned to 1. Times are rescaled to a reference machine speed
measured in the same process (``calibrate.py``); the report also prints them
as the wall clock read them. ``--src`` points the same benchmark code at
another source tree, which is how ``compare.py`` measures a parent and a
change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import KERNEL_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("ordering", "two_round", "rate_search", "oracle_cert")
SETUP_REPEATS = 3          # set-ups per run; setup_s is their median
TAIL_PER_MILLE = (999, 990, 950, 900)   # p99.9, p99, p95, p90
TAIL_BEYOND = 10           # ops a tail percentile must have beyond it
TIME_LIMIT_S = 170.0       # the whole run, worker processes included
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
            "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def spawn(mode: str, args, deadline: float, seconds: float = 0.0,
          max_ops: int = 0, spans: str = "") -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(seconds),
           "--max-ops", str(max_ops), "--src", str(args.src),
           "--spans", spans]
    env = dict(os.environ, **BLAS_ENV)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawn-time", repr(t_spawn)], env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker passed the {TIME_LIMIT_S:.0f} s limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def tail(latencies_ms: list) -> tuple | None:
    """(percentile, value) at the highest percentile with enough ops beyond."""
    n = len(latencies_ms)
    ranked = sorted(latencies_ms)
    for per_mille in TAIL_PER_MILLE:
        rank = -(-per_mille * n // 1000)   # nearest rank, 1-based
        if n - rank >= TAIL_BEYOND:
            return per_mille / 10, ranked[rank - 1]
    return None


def end_to_end(timed: dict, setups: list) -> tuple[dict, list]:
    """Metrics at reference speed (``calibrate.py``), plus report lines."""
    lat = [x * f for x, f in zip(timed["latencies"], timed["scales"])]
    lat_ms = [x * 1e3 for x in lat]
    setup = [s["setup_s"] * s["setup_scale"] for s in setups]
    metrics = {
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": timed["peak_rss_mb"], "unit": "MB"},
    }
    # reported, but not in the JSON metrics: the tail exists only on
    # workloads with enough ops, and fail_share is 0 when all is well
    t = tail(lat_ms)
    wall = timed["latencies"]
    extra = [f"op_tail_ms        = {t[1]:.4f} ms (p{t[0]:g} of {len(lat)} ops)"
             if t else f"op_tail_ms        omitted: {len(lat)} ops leave no "
             f"percentile with {TAIL_BEYOND} ops beyond it",
             f"fail_share        = {len(timed['failures']) / len(lat):.4f} "
             f"({len(timed['failures'])} of {len(lat)} ops)",
             f"wall clock, not rescaled: ops_per_s {len(wall) / sum(wall):.6g}"
             f" 1/s, op_p50_ms {1e3 * statistics.median(wall):.6g} ms, "
             f"setup_s {statistics.median(s['setup_s'] for s in setups):.6g} s"
             f"; reference kernel took "
             f"{1e3 * KERNEL_REF_S / statistics.median(timed['scales']):.4g} "
             f"ms (reference speed: {1e3 * KERNEL_REF_S:g} ms)"]
    return metrics, extra


def record(args) -> dict:
    """Where and how the run was made."""
    import numpy as np
    rec = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "src": str(args.src), "src_sha256": src_digest(args.src),
           "git_rev": git_rev(args.src), "nproc": os.cpu_count(),
           "cpus_usable": len(os.sched_getaffinity(0)),
           "cpu_model": cpu_model(), "python": platform.python_version(),
           "numpy": np.__version__, "blas_env": BLAS_ENV}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["blas"] = f"{deps['name']} {deps['version']}"
    except (TypeError, KeyError):
        rec["blas"] = None
    return rec


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "renyiacc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev(src: Path) -> str | None:
    top = src.parent
    if not (top / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(top), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(args) -> tuple[dict, dict, list]:
    """Run the workers; returns (result JSON, full record, report lines)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    rec = record(args)
    lines = []
    if args.trace:
        half = args.seconds / 2.0
        plain = spawn("timed", args, deadline, seconds=half)
        spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.npz"
        traced = spawn("traced", args, deadline, seconds=half,
                       max_ops=len(plain["latencies"]), spans=str(spans))
        m = len(traced["latencies"])
        overhead = (sum(x * f for x, f in zip(traced["latencies"],
                                                traced["scales"]))
                    / sum(x * f for x, f in zip(plain["latencies"][:m],
                                                plain["scales"])))
        metrics = dict(traced["layers"])
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        runs = [plain, traced]
        rec.update(ops_untraced=len(plain["latencies"]), ops_traced=m,
                   spans=traced["spans"], spans_file=str(spans.relative_to(ROOT)),
                   absent=traced["absent"], top_layers=traced["top"])
        if traced["absent"]:
            lines.append(f"absent (function missing): "
                         f"{', '.join(traced['absent'])}")
        lines += [f"layer {lay:<9} self {a:10.3f} ms/op   inside {b:10.3f} ms/op"
                  for lay, (a, b) in traced["top"]["layers"].items()]
        lines += [f"top self time: {name} {ms:.3f} ms/op"
                  for name, ms in traced["top"]["spans"]]
    else:
        timed = spawn("timed", args, deadline, seconds=args.seconds)
        setups = [timed] + [spawn("setup", args, deadline)
                            for _ in range(SETUP_REPEATS - 1)]
        metrics, extra = end_to_end(timed, setups)
        runs = [timed]
        rec.update(ops=len(timed["latencies"]),
                   setup_runs=[{k: s[k] for k in ("setup_s", "setup_scale")}
                               for s in setups],
                   latencies_ms=[x * 1e3 for x in timed["latencies"]],
                   scales=timed["scales"])
        lines += extra
    attempted = sum(len(r["latencies"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    drift = [r["max_abs_drift"] for r in runs if "max_abs_drift" in r]
    if drift:
        lines.append(f"rate_search max |h_alpha - seed-commit value| = "
                     f"{max(drift):.3e} (recorded, not gated)")
    rec.update(failures=failures[:20], outputs_sha256=hashlib.sha256(
        " ".join(runs[0]["checksums"]).encode()).hexdigest()[:16])
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, rec, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree holding renyiacc/ (default: ./src)")
    args = ap.parse_args(argv)
    args.src = args.src.resolve()
    if not (args.src / "renyiacc" / "__init__.py").is_file():
        print(f"error: no renyiacc package under {args.src}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        result, rec, lines = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"record": rec, "result": result}, indent=1))
    print(f"renyiacc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("record " + json.dumps({k: v for k, v in rec.items()
                                  if k not in ("latencies_ms", "scales")}))
    for name, m in result["metrics"].items():
        print(f"{name:<17} = {m['value']:.6g} {m['unit']}")
    for line in lines:
        print(line)
    print(f"correctness gates: {'all passed' if result['correct'] else 'FAILED'}"
          f" ({result['failed']} of {result['attempted']} ops failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
