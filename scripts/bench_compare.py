#!/usr/bin/env python3
"""Compare a fresh google-benchmark JSON against a checked-in baseline.

Guards the virtual-time throughput counters (``ops_per_kdelay``,
``cmds_per_kdelay``) by default: they are derived from simulator time, so
they are machine-independent and meaningful even on a loaded CI runner.
Every guard row runs a fixed 16 iterations, seeds 1-16 (google-benchmark
names it ``<row>/iterations:16``), so a counter is an exact mean over
the same runs at any ``--benchmark_min_time`` on any machine.
A row regresses when its fresh counter drops more than ``--threshold``
(default 15%) below the baseline. Wall-clock ``items_per_second`` is only
compared behind ``--wall-clock`` — it guards local runs on a quiet box,
not CI.

Rows present in the baseline but missing from the fresh run fail the
comparison (a deleted guard row is a silent loss of coverage); rows only
in the fresh run are reported as new and pass.

Usage:
  scripts/bench_compare.py BASELINE.json FRESH.json [--threshold 0.15]
                           [--wall-clock]
Exit status: 0 clean, 1 regression/missing row, 2 usage or parse error.
"""

import argparse
import json
import sys

# Higher-is-better virtual-time counters, in simulator time units.
VIRTUAL_COUNTERS = ("ops_per_kdelay", "cmds_per_kdelay")
WALL_COUNTERS = ("items_per_second",)


def load_rows(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    rows = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        rows[b["name"]] = b
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max allowed fractional drop (default 0.15)")
    ap.add_argument("--wall-clock", action="store_true",
                    help="also compare wall-clock items_per_second")
    args = ap.parse_args()

    base = load_rows(args.baseline)
    fresh = load_rows(args.fresh)

    counters = list(VIRTUAL_COUNTERS)
    if args.wall_clock:
        counters += list(WALL_COUNTERS)

    failures = []
    compared = 0
    for name, brow in sorted(base.items()):
        frow = fresh.get(name)
        if frow is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        for c in counters:
            bval = brow.get(c)
            if not isinstance(bval, (int, float)) or bval <= 0:
                continue
            fval = frow.get(c)
            if not isinstance(fval, (int, float)):
                failures.append(f"{name}: counter {c} missing from fresh run")
                continue
            compared += 1
            drop = (bval - fval) / bval
            status = "FAIL" if drop > args.threshold else "ok"
            print(f"{status:4s} {name:40s} {c}: "
                  f"{bval:.6g} -> {fval:.6g} ({-drop:+.1%})")
            if drop > args.threshold:
                failures.append(
                    f"{name}: {c} regressed {drop:.1%} "
                    f"({bval:.6g} -> {fval:.6g}, threshold "
                    f"{args.threshold:.0%})")
    for name in sorted(set(fresh) - set(base)):
        print(f"new  {name} (no baseline; not compared)")

    if compared == 0 and not failures:
        # A baseline with no guarded counters would make the check
        # vacuously green — surface that instead of passing quietly.
        print("error: no comparable counters found", file=sys.stderr)
        sys.exit(2)
    if failures:
        print(f"\n{len(failures)} regression(s) vs {args.baseline}:",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"\nall {compared} guarded counters within "
          f"{args.threshold:.0%} of {args.baseline}")


if __name__ == "__main__":
    main()
