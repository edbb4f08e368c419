"""Parent-vs-change comparison on the end-to-end metrics.

    python3 bench/compare.py --parent /path/to/parent/src --change src

Both sides run this benchmark's code (``run.py --src``) with the same
settings: every workload, BENCHMARK.json's ``run_seconds``, ten pairs. Pair
i runs each workload on seed 1000 + i, the parent first on even i and the
change first on odd i. For every workload and end-to-end metric it prints
each side's median and quartiles, the ratio of the medians, the pairs the
change won, the failed ops of each side, and a verdict:

  void           the change failed more ops than the parent: its speed
                 does not count;
  gain           the change won at least 9 of 10 pairs (ties count for
                 neither side) and the medians differ by more than the
                 distance between the parent's quartiles;
  unresolved     a side's quartile spread, as a share of its median, is wider
                 than the metric's bound, and not every change run beats
                 every parent run;
  regression     the change's median is worse than the parent's by more than
                 the bound;
  no regression  otherwise.

Bounds and directions come from BENCHMARK.json. Every run and verdict is
also written to ``bench/results/compare.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
PAIRS = 10
SEED0 = 1000


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(parent: list, change: list, bound: float, better: str,
            parent_failed: int = 0, change_failed: int = 0) -> str:
    if change_failed > parent_failed:
        return "void"
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if sign * (c_med - p_med) > 0 and wins >= 0.9 * len(parent) \
            and abs(c_med - p_med) > q3 - q1:
        return "gain"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    if sign * (c_med - p_med) / p_med < -bound:
        return "regression"
    return "no regression"


def run_once(src: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--src", src], capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} on {src} failed:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent's src directory")
    ap.add_argument("--change", required=True, help="change's src directory")
    args = ap.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]

    runs = {"parent": {}, "change": {}}
    for w in names:
        for side in runs:
            runs[side][w] = []
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_once(getattr(args, side), w, SEED0 + i,
                               spec["run_seconds"])
                runs[side][w].append(res)
                print(f"# {w} pair {i} {side}: failed {res['failed']} of "
                      f"{res['attempted']}", file=sys.stderr)

    rows = []
    print(f"{'workload':<12} {'metric':<12} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'ratio':>7} {'wins':>6} "
          f"{'failed p/c':>10}  verdict")
    for w in names:
        failed = {side: sum(r["failed"] for r in runs[side][w])
                  for side in runs}
        for m in spec["end_to_end"]:
            vals = {side: [r["metrics"][m["name"]]["value"]
                           for r in runs[side][w]] for side in runs}
            p, c = vals["parent"], vals["change"]
            sign = 1.0 if m["better"] == "higher" else -1.0
            row = {"workload": w, "metric": m["name"], "unit": m["unit"],
                   "parent": p, "change": c,
                   "ratio": statistics.median(c) / statistics.median(p),
                   "wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
                   "failed": failed,
                   "verdict": verdict(p, c, m["bound"], m["better"],
                                      failed["parent"], failed["change"])}
            rows.append(row)
            cells = []
            for v in (p, c):
                q1, _, q3 = statistics.quantiles(v, n=4)
                cells.append(f"{statistics.median(v):.5g} [{q1:.5g}, {q3:.5g}]"
                             f" {m['unit']}")
            print(f"{w:<12} {m['name']:<12} {cells[0]:<34} {cells[1]:<34} "
                  f"{row['ratio']:>7.3f} {row['wins']:>3}/{len(p):<2} "
                  f"{failed['parent']:>4}/{failed['change']:<5}  "
                  f"{row['verdict']}")
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "compare.json").write_text(json.dumps(
        {"parent": args.parent, "change": args.change, "pairs": PAIRS,
         "seed0": SEED0, "seconds": spec["run_seconds"], "rows": rows,
         "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
