"""One workload process: set up, warm up, then run ops back to back.

Started by ``run.py``, one fresh process per measurement, so that set-up
time and peak memory belong to that process alone. Prints one JSON object
as its last stdout line.

Set-up is followed by a block of reference kernels, and so is every op
(``calibrate.py``); each time is reported raw, with the factor that turns
it into a time at reference speed.

Modes:
  setup   stop at the moment the first timed op would start;
  timed   untraced ops for ``--seconds`` (or ``--max-ops``);
  traced  the same ops with every layer function wrapped in spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SETUP_CAL_S = 0.1   # reference kernels run right after set-up
CAL_SHARE = 0.15    # after each op, kernels for this share of its time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-ops", type=int, default=0, help="0: no limit")
    ap.add_argument("--mode", choices=("setup", "timed", "traced"),
                    required=True)
    ap.add_argument("--src", required=True, help="directory holding renyiacc/")
    ap.add_argument("--spawn-time", type=float, required=True,
                    help="time.monotonic() when the parent started us")
    ap.add_argument("--spans", default="", help="where traced mode saves spans")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import renyiacc
    if Path(renyiacc.__file__).resolve().parent != src / "renyiacc":
        print(f"renyiacc imported from {renyiacc.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import calibrate
    import workloads
    import tracer as tracing

    workloads.golden_check()
    wl = workloads.WORKLOADS[args.workload]
    tr = tracing.Tracer().install() if args.mode == "traced" else None
    try:
        run_op = ((lambda inp: tr.run(tracing.ROOT, wl.run, inp)) if tr
                  else wl.run)
        run_op(wl.draw(0, 0))  # warm-up, the same input for every seed
        if tr:
            tr.reset()
        setup_s = time.monotonic() - args.spawn_time
        calibrate.kernel()  # its first run pays one-off costs
        prev = calibrate.block(SETUP_CAL_S)
        setup = {"setup_s": setup_s, "setup_scale": calibrate.scale(prev)}
        if args.mode == "setup":
            print(json.dumps(setup))
            return 0
        latencies, scales, failures, checksums, details = [], [], [], [], []
        start = time.perf_counter()
        j = 1
        # stop between whole rounds, once the time or op budget is spent
        while (j - 1) % wl.round or j == 1 or (
                time.perf_counter() - start < args.seconds
                and (not args.max_ops or j <= args.max_ops)):
            inp = wl.draw(args.seed, j)
            t0 = time.perf_counter()
            try:
                res = run_op(inp)
            except Exception as exc:  # an op that raises counts as failed
                latencies.append(time.perf_counter() - t0)
                failures.append({"index": j, "error": repr(exc)})
                checksums.append("error")
            else:
                latencies.append(time.perf_counter() - t0)
                checksums.append(res.checksum)
                details.append(res.detail)
                if not res.ok:
                    failures.append({"index": j, "gate": res.detail})
            # the machine's speed around this op: kernels before and after
            after = calibrate.block(CAL_SHARE * latencies[-1])
            scales.append(calibrate.scale(prev + after))
            prev = after
            j += 1
        out = {**setup, "latencies": latencies, "scales": scales,
               "failures": failures, "checksums": checksums,
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        drifts = [d["drift"] for d in details if "drift" in d]
        if drifts:
            out["max_abs_drift"] = max(abs(d) for d in drifts)
        if tr:
            n = len(latencies)
            out["layers"], out["absent"] = tracing.layer_metrics(tr, n)
            out["top"] = tracing.top_layers(tr, n)
            out["spans"] = tr.span_count
            if args.spans:
                tr.save(Path(args.spans))
        print(json.dumps(out))
        return 0
    finally:
        if tr:
            tr.restore()


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report, and let the parent see a failed worker
        traceback.print_exc()
        sys.exit(3)
