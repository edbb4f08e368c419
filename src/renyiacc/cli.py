"""Command-line front end.

Subcommands: entropy, counterexample, verify, rate, compare, simulate.
Exit codes: 0 success, 1 asserted-property failure, 2 usage or validation
error. The RENYI_SEED environment variable supplies the default seed. JSON
outputs are schema-versioned and embed seed, order, and tolerances so every
number is reproducible from the report alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, entropy
from .channel import (
    PROTOCOL_SCHEMA,
    BellFunctional,
    protocol_from_dict,
    strategy_from_dict,
)
from .counterexample import alpha_grid_scan, ce_report
from .eatrate import (
    ConstraintSet,
    compare_entropies,
    optimize_strategy,
)
from .errors import (
    AlphabetMismatchError,
    BadIndexError,
    BadShapeError,
    RenyiaccError,
)
from .qcore import load_state
from .qcore.serialize import _numbers, validate
from .verify import (
    ALL_CHECKS,
    SuiteConfig,
    attack_from_dict,
    run_property_suite,
    simulate_two_rounds,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2


def _alphas(spec: str):
    try:
        return tuple(entropy.check_alpha(x) for x in spec.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{spec}: {exc}") from None


def _positive_int(spec: str) -> int:
    """A whole number of at least 1; float spellings such as 1e6 pass."""
    x = float(spec)
    if not (math.isfinite(x) and x >= 1 and x == int(x)):
        raise argparse.ArgumentTypeError(f"want a whole number >= 1, got {spec}")
    return int(x)


def _probability(spec: str) -> float:
    x = float(spec)
    if not 0.0 < x <= 1.0:
        raise argparse.ArgumentTypeError(f"want a probability in (0, 1], got {spec}")
    return x


def _alpha_grid(spec: str):
    """An order grid ``lo:hi:n``: both ends valid orders, n a whole count."""
    try:
        lo, hi, n = spec.split(":")
        return entropy.check_alpha(lo), entropy.check_alpha(hi), _positive_int(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"want lo:hi:n, got {spec}: {exc}") from None


def _emit_json(path, payload):
    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)


def _constraint_set(doc, alphabet) -> ConstraintSet:
    """``omega``, a list of ``{coeffs, min and/or max}`` entries of finite
    numbers, as rows ``row . omega >= rhs``; an entry may carry both
    ``min`` and ``max``, and its coefficient keys must be symbols."""
    symbols = [str(c) for c in alphabet]
    rows, rhs = [], []
    for item in () if doc is None else validate(doc, PROTOCOL_SCHEMA, "omega"):
        unknown = sorted(set(item["coeffs"]) - set(symbols))
        if unknown:
            raise AlphabetMismatchError(f"omega coefficients for {unknown} "
                                        f"outside the score alphabet {symbols}")
        if "min" not in item and "max" not in item:
            raise ValueError("constraint needs a 'min' or 'max' bound")
        bounds = [item[k] for k in ("min", "max") if k in item]
        if not all(map(math.isfinite, [*item["coeffs"].values(), *bounds])):
            raise BadShapeError(f"omega coeffs, min and max must be finite "
                                f"numbers, got {item!r}")
        row = [float(item["coeffs"].get(c, 0.0)) for c in symbols]
        for sign, key in ((1.0, "min"), (-1.0, "max")):
            if key in item:
                rows.append([sign * x for x in row])
                rhs.append(sign * float(item[key]))
    if not rows:
        return ConstraintSet.full_simplex(alphabet)
    return ConstraintSet(alphabet, np.asarray(rows), np.asarray(rhs))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_counterexample(args) -> int:
    rep = ce_report(args.alpha)
    print(f"order alpha = {rep.alpha}")
    print(f"  optimized two-round entropy (lhs) : {rep.lhs:.5f}")
    print(f"  optimized first-round term        : {rep.first_term:.5f}")
    print(f"  worst-case second-round term      : {rep.inf_up:.5f}")
    print(f"  sum of single-round terms (rhs)   : {rep.rhs:.5f}")
    print(f"  chain rule for the optimized entropy: "
          f"{'VIOLATED' if rep.violated else 'holds'}")
    print(f"  un-optimized decomposition gap    : {rep.saturation_gap:.2e}")
    rows = [rep]
    if args.grid:
        rows += alpha_grid_scan(*args.grid)
        print("  alpha grid scan (reported, not asserted):")
        for r in rows[1:]:
            print(f"    alpha={r.alpha:.4f} lhs={r.lhs:.5f} rhs={r.rhs:.5f} "
                  f"violated={r.violated}")
    _emit_json(args.json, {
        "schema": "renyiacc/counterexample-report/v1",
        "version": __version__, "alpha": args.alpha,
        "tolerance": 1e-5, "report": rep.as_dict(),
        "grid": [r.as_dict() for r in rows[1:]],
    })
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["alpha", "lhs", "first", "inf_up", "rhs", "violated",
                        "saturation_gap"])
            for r in rows:
                w.writerow([r.alpha, r.lhs, r.first_term, r.inf_up, r.rhs,
                            r.violated, r.saturation_gap])
    return EXIT_OK


def cmd_entropy(args) -> int:
    state = load_state(args.state)
    cond = [x for x in args.cond.split(",") if x] if args.cond else []
    names = state.names
    unknown = [n for n in cond if n not in names]
    if unknown:
        raise BadIndexError(f"--cond names {unknown} are not registers of "
                            f"the state {list(names)}")
    a_names = [n for n in names if n not in cond]
    if args.kind == "down":
        val = entropy.h_down(state, a_names, args.alpha)
    elif args.kind == "up":
        val = entropy.h_up(state, a_names, args.alpha)
    elif args.kind == "partial":
        if not state.cregs:
            raise RenyiaccError("partial entropy needs a cq-state input")
        up = args.up_label
        if not up:
            classical = [n in state.classical_names for n in cond]
            if sum(classical) != 1:
                raise RenyiaccError("give --up-label to pick the optimized "
                                    "register")
            up = [n for n in cond if n in state.classical_names][0]
        val = entropy.h_partial(state, a_names, up, args.alpha)
    elif args.kind == "vn":
        val = entropy.conditional_von_neumann(state, a_names)
    elif args.kind == "renyi":
        val = entropy.renyi_entropy(state, args.alpha)
    else:  # unreachable through argparse choices
        raise RenyiaccError(f"unknown kind {args.kind}")
    print(f"{val:.12f}")
    _emit_json(args.json, {"schema": "renyiacc/entropy/v1",
                           "version": __version__, "kind": args.kind,
                           "alpha": args.alpha, "conditioning": cond,
                           "value": val})
    return EXIT_OK


def cmd_verify(args) -> int:
    counts = {name: args.count for name in ALL_CHECKS}
    cfg = SuiteConfig(seed=args.seed, counts=counts, alphas=args.alpha)
    rep = run_property_suite(cfg, only=args.only)
    for r in rep.results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:24s} {status}  instances={r.instances:4d} "
              f"worst_slack={r.worst_slack:+.3e} tol={r.tolerance:.0e} "
              f"[{r.elapsed:.2f}s]")
        for fail in r.failures[:3]:
            print(f"    reproduce: {fail}")
    _emit_json(args.json, {
        "schema": "renyiacc/verify-report/v1", "version": __version__,
        "seed": args.seed, "alphas": list(cfg.alphas),
        "count": args.count, "report": rep.as_dict(),
    })
    return EXIT_OK if rep.all_passed else EXIT_PROPERTY


def _bell_constraint(doc):
    """The protocol's ``bell`` entry ``{name | correlators, min}`` as
    (functional, min); None without the entry."""
    spec = doc.get("bell")
    if spec is None:
        return None
    if not math.isfinite(validate(spec, PROTOCOL_SCHEMA, "bell")["min"]):
        raise BadShapeError(f"bell min must be finite, got {spec!r}")
    if "name" in spec:
        return BellFunctional.by_name(spec["name"]), float(spec["min"])
    corr = _numbers(spec["correlators"], "bell correlators")
    return BellFunctional(corr, "custom"), float(spec["min"])


def _setting_counts(doc, settings, bob: bool) -> tuple[int, int]:
    """The protocol's ``nA`` and ``nB`` (2 by default): whole numbers >= 1
    that cover Alice's digit of every setting label "xy" (or "x"), and
    Bob's digit too when ``bob``."""
    counts = []
    for key, pos in (("nA", 0), ("nB", 1)):
        n = validate(doc.get(key, 2), PROTOCOL_SCHEMA, key)
        least = 1 + max((int(str(b)[pos]) for b in settings
                         if len(str(b)) > pos and (pos == 0 or bob)), default=0)
        if n < least:
            raise BadShapeError(f"{key} for the settings {list(settings)} must "
                                f"be a whole number >= {least}, got {n!r}")
        counts.append(int(n))
    return counts[0], counts[1]


def cmd_rate(args) -> int:
    with open(args.proto) as fh:
        doc = json.load(fh)
    proto = protocol_from_dict(doc)
    cset = _constraint_set(doc.get("omega"), proto.c_alphabet)
    outputs = doc.get("outputs", "alice")
    bell = _bell_constraint(doc)
    n_a, n_b = _setting_counts(doc, proto.settings,
                               outputs == "pair" or bell is not None)
    report = optimize_strategy(
        proto, cset, args.alpha, restarts=args.restarts, seed=args.seed,
        n_a=n_a, n_b=n_b, outputs=outputs, n=args.n, p_omega=args.pomega,
        bell=bell)
    print(f"single-round rate (upper bound via best-found attack): "
          f"{report.h_alpha:.6f} bits")
    print(f"finite size: n={report.n} p_omega={report.p_omega} -> "
          f"{report.total_bits:.3f} bits accumulated")
    if report.key_bits is not None:
        print(f"extractable key length at eps=1e-9: {report.key_bits} bits")
    print(f"KKT residual of the certified inner solution: "
          f"{report.kkt_residual:.2e}")
    _emit_json(args.json, {
        "schema": "renyiacc/rate-report/v1", "version": __version__,
        "seed": args.seed, "alpha": args.alpha, "report": report.as_dict(),
    })
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["alpha", "h_alpha", "total_bits"])
            if not args.alpha_grid:  # the row reported above
                w.writerow([args.alpha, report.h_alpha, report.total_bits])
            else:
                for a in np.linspace(*args.alpha_grid):
                    rep = optimize_strategy(
                        proto, cset, float(a),
                        restarts=max(args.restarts // 4, 1), seed=args.seed,
                        n_a=n_a, n_b=n_b, outputs=outputs, n=args.n,
                        p_omega=args.pomega, bell=bell)
                    w.writerow([a, rep.h_alpha, rep.total_bits])
    return EXIT_OK


def cmd_compare(args) -> int:
    with open(args.strategy) as fh:
        strategy = strategy_from_dict(json.load(fh))
    settings = args.settings
    n_set = (len(strategy.meas_a) * len(strategy.meas_b)
             if settings == "pairs" else len(strategy.meas_a))
    p_b = np.ones(n_set) / n_set
    rows = compare_entropies(strategy, p_b, args.alpha, settings=settings)
    print("alpha   h_down     h_partial  gap         per-setting spread")
    for r in rows:
        print(f"{r.alpha:5.2f}  {r.h_down:9.6f}  {r.h_partial:9.6f}  "
              f"{r.gap:+.3e}  {r.asymmetry:.3e}")
    _emit_json(args.json, {
        "schema": "renyiacc/compare-report/v1", "version": __version__,
        "alphas": list(args.alpha),
        "rows": [asdict(r) for r in rows],
    })
    return EXIT_OK


def cmd_simulate(args) -> int:
    with open(args.proto) as fh:
        doc = json.load(fh)
    proto = protocol_from_dict(doc)
    cset = _constraint_set(doc.get("omega"), proto.c_alphabet)
    with open(args.attack) as fh:
        adoc = json.load(fh)
    attack = attack_from_dict(adoc, proto)
    res = simulate_two_rounds(proto, attack, cset, args.alpha)
    print(f"exact two-round entropy : {res.lhs_exact:.6f}")
    print(f"accumulation bound      : {res.bound:.6f}")
    print(f"slack (must be >= 0)    : {res.slack:+.3e}")
    print(f"p_omega                 : {res.p_omega:.6f}")
    _emit_json(args.json, {
        "schema": "renyiacc/simulate-report/v1", "version": __version__,
        "alpha": args.alpha, "tolerance": 1e-9,
        "lhs": res.lhs_exact, "bound": res.bound, "slack": res.slack,
        "h_alpha": res.h_alpha, "p_omega": res.p_omega,
    })
    return EXIT_OK if res.slack >= -1e-9 else EXIT_PROPERTY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="renyiacc",
        description="Conditional sandwiched Renyi entropies, chain-rule "
                    "verification, and accumulation rates.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("counterexample",
                       help="evaluate the two-round chain-rule counterexample")
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--grid", type=_alpha_grid,
                   help="alpha grid lo:hi:n (reported only)")
    p.add_argument("--json")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("entropy", help="evaluate an entropy on a state file")
    p.add_argument("--state", required=True)
    p.add_argument("--cond", default="", help="comma-separated conditioning "
                                              "register names; A is every "
                                              "other register and must not "
                                              "be empty")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--kind", choices=["down", "up", "partial", "vn", "renyi"],
                   default="down")
    p.add_argument("--up-label", default="",
                   help="register optimized by the partial entropy")
    p.add_argument("--json")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("verify", help="run the seeded property suite")
    p.add_argument("--seed", type=int,
                   default=os.environ.get("RENYI_SEED", "0"))
    p.add_argument("--count", type=_positive_int, default=50)
    p.add_argument("--alpha", type=_alphas, default="1.1,1.5,2,3")
    p.add_argument("--only", choices=sorted(ALL_CHECKS))
    p.add_argument("--json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rate", help="heuristic single-round rate search")
    p.add_argument("--proto", required=True)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--n", type=_positive_int, default=10 ** 6)
    p.add_argument("--pomega", type=_probability, default=0.99,
                   help="probability of the non-abort event, in (0, 1]")
    p.add_argument("--restarts", type=_positive_int, default=64)
    p.add_argument("--seed", type=int,
                   default=os.environ.get("RENYI_SEED", "0"))
    p.add_argument("--alpha-grid", type=_alpha_grid,
                   help="CSV curve grid lo:hi:n")
    p.add_argument("--json")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("compare",
                       help="partial-vs-down comparison for a strategy")
    p.add_argument("--strategy", required=True)
    p.add_argument("--alpha", type=_alphas, default="1.5,2,3")
    p.add_argument("--settings", choices=["pairs", "alice"], default="pairs")
    p.add_argument("--json")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate",
                       help="two-round accumulation check for an attack file")
    p.add_argument("--proto", required=True)
    p.add_argument("--attack", required=True)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--json")
    p.set_defaults(func=cmd_simulate)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (RenyiaccError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
