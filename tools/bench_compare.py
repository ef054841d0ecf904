#!/usr/bin/env python3
"""Compare a fresh bench_json.sh run against a committed BENCH_*.json baseline.

The committed snapshots (BENCH_pr2.json, BENCH_pr5.json, ...) are the repo's
perf ledger; this tool is the regression gate over it. It matches benchmarks
by name, prints a ratio table with each guard's own threshold, and exits
nonzero when a *guarded* benchmark regresses beyond its threshold.

Four benchmarks are guarded by default, each with its own budget:

  BM_AnalyzeCscq                              +10%  the per-point analysis
        cost the whole perf story hangs on (pinned < 100us budget)
  BM_AnalyzeBatch30                           +15%  a 30-point try_analyze
        loop on one thread, so noise is higher than single-point
  BM_SweepPanel30Points/threads:1/real_time   +15%  end-to-end sweep cost;
        only the single-thread variant is stable enough to gate on a
        shared 1-CPU CI host
  BM_SimulateOnePoint/100000                  +15%  one 100k-completion
        CS-CQ simulation: the per-event cost of the event engine every
        simulated policy and host count runs on

One benchmark is capped absolutely rather than relatively:

  BM_JournalAppend                            5000ns  one write-ahead
        journal request+response append pair; an absolute cap because the
        benchmark postdates the newest committed snapshot, so there is no
        baseline row to take a ratio against. The budget is the durability
        overhead promise in docs/serving.md §9 (< 5 us per request).

Everything else is reported but advisory.

usage: tools/bench_compare.py NEW.json [BASELINE.json]
       tools/bench_compare.py NEW.json --guard BM_AnalyzeCscq:0.08
       tools/bench_compare.py NEW.json --abs-guard BM_JournalAppend:5000

--guard NAME[:THRESH] is repeatable and replaces the default guard set;
THRESH is the allowed fractional regression (0.08 = +8%). Without :THRESH
the --threshold fallback applies. --abs-guard NAME:NANOS is repeatable and
replaces the default absolute-cap set; the named benchmark's cpu_time in
the NEW run must stay under NANOS (no baseline needed). With no BASELINE
argument the newest committed BENCH_*.json (highest PR number) in the repo
root is used.
Exit codes: 0 ok, 1 guarded regression, 2 usage/missing-file errors.
"""

import argparse
import json
import pathlib
import re
import sys

DEFAULT_GUARDS = {
    "BM_AnalyzeCscq": 0.10,
    "BM_AnalyzeBatch30": 0.15,
    "BM_SweepPanel30Points/threads:1/real_time": 0.15,
    "BM_SimulateOnePoint/100000": 0.15,
}

# Absolute caps in nanoseconds, enforced against the new run alone — for
# benchmarks with no row in the committed baseline to ratio against.
DEFAULT_ABS_GUARDS = {
    "BM_JournalAppend": 5000.0,
}

# google-benchmark time_unit -> nanoseconds.
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")
    rows = {}
    for b in doc.get("benchmarks", []):
        name = b.get("name")
        if name and "cpu_time" in b:
            rows[name] = b
    if not rows:
        sys.exit(f"bench_compare: {path} holds no benchmark rows")
    return rows


def latest_committed_baseline(root):
    best, best_key = None, None
    for p in root.glob("BENCH_*.json"):
        m = re.search(r"(\d+)", p.stem)
        key = int(m.group(1)) if m else -1
        if best_key is None or key > best_key:
            best, best_key = p, key
    return best


def parse_guard(spec, fallback):
    """'NAME' or 'NAME:0.08' -> (name, threshold)."""
    name, sep, thresh = spec.rpartition(":")
    if sep and re.fullmatch(r"[0-9.]+", thresh):
        try:
            return name, float(thresh)
        except ValueError:
            sys.exit(f"bench_compare: bad threshold in --guard {spec!r}")
    return spec, fallback


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("new", help="fresh bench_json.sh output")
    ap.add_argument("baseline", nargs="?", default=None,
                    help="committed snapshot (default: newest BENCH_*.json)")
    ap.add_argument("--guard", action="append", default=None,
                    metavar="NAME[:THRESH]",
                    help="benchmark that must not regress, with optional "
                         "per-guard threshold (repeatable; replaces the "
                         "default guard set)")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="fallback fractional regression for guards given "
                         "without :THRESH (default 0.10 = +10%%)")
    ap.add_argument("--abs-guard", action="append", default=None,
                    metavar="NAME:NANOS",
                    help="benchmark whose cpu_time in the new run must stay "
                         "under an absolute nanosecond cap (repeatable; "
                         "replaces the default absolute-cap set)")
    args = ap.parse_args()

    repo_root = pathlib.Path(__file__).resolve().parent.parent
    baseline_path = args.baseline or latest_committed_baseline(repo_root)
    if baseline_path is None:
        sys.exit("bench_compare: no committed BENCH_*.json baseline found")
    if args.guard is not None:
        guards = dict(parse_guard(g, args.threshold) for g in args.guard)
    else:
        guards = dict(DEFAULT_GUARDS)
    if args.abs_guard is not None:
        abs_guards = {}
        for spec in args.abs_guard:
            name, sep, cap = spec.rpartition(":")
            if not sep:
                sys.exit(f"bench_compare: --abs-guard {spec!r} needs NAME:NANOS")
            try:
                abs_guards[name] = float(cap)
            except ValueError:
                sys.exit(f"bench_compare: bad cap in --abs-guard {spec!r}")
    else:
        abs_guards = dict(DEFAULT_ABS_GUARDS)

    new = load(args.new)
    old = load(baseline_path)

    print(f"bench_compare: {args.new} vs {baseline_path} "
          f"({len(guards)} guarded)")
    header = f"{'benchmark':44s} {'old':>12s} {'new':>12s} {'ratio':>7s} {'budget':>7s}"
    print(header)
    print("-" * len(header))

    failures = []
    for name in sorted(set(new) | set(old)):
        if name not in new or name not in old:
            where = "baseline" if name not in new else "new run"
            print(f"{name:44s} {'(only in ' + where + ')':>33s}")
            continue
        o, n = old[name]["cpu_time"], new[name]["cpu_time"]
        unit = new[name].get("time_unit", "ns")
        ratio = n / o if o > 0 else float("inf")
        if name in guards:
            thresh = guards[name]
            budget = f"+{thresh:.0%}"
            mark = ""
            if ratio > 1.0 + thresh:
                mark = " FAIL"
                failures.append((name, o, n, ratio, unit, thresh))
        else:
            budget = "-"
            mark = ""
        print(f"{name:44s} {o:10.1f}{unit:>2s} {n:10.1f}{unit:>2s} "
              f"{ratio:6.2f}x {budget:>7s}{mark}")

    abs_failures = []
    for name, cap_ns in sorted(abs_guards.items()):
        if name not in new:
            print(f"bench_compare: absolute-capped benchmark {name} missing "
                  f"from new run")
            abs_failures.append((name, None, cap_ns))
            continue
        unit = new[name].get("time_unit", "ns")
        got_ns = new[name]["cpu_time"] * UNIT_NS.get(unit, 1.0)
        verdict = "FAIL" if got_ns > cap_ns else "ok"
        print(f"{name:44s} {'-':>12s} {got_ns:10.1f}ns "
              f"{'cap':>7s} {cap_ns:5.0f}ns {verdict}")
        if got_ns > cap_ns:
            abs_failures.append((name, got_ns, cap_ns))

    missing_guards = [g for g in guards if g not in new or g not in old]
    for g in missing_guards:
        print(f"bench_compare: guarded benchmark {g} missing from "
              f"{'new run' if g not in new else 'baseline'}")

    if failures or missing_guards or abs_failures:
        for name, o, n, ratio, unit, thresh in failures:
            print(f"bench_compare: FAIL {name} regressed "
                  f"{o:.1f}{unit} -> {n:.1f}{unit} ({ratio - 1.0:+.1%}, "
                  f"allowed +{thresh:.0%})")
        for name, got_ns, cap_ns in abs_failures:
            if got_ns is None:
                print(f"bench_compare: FAIL {name} absent from new run "
                      f"(absolute cap {cap_ns:.0f}ns unverifiable)")
            else:
                print(f"bench_compare: FAIL {name} at {got_ns:.1f}ns, "
                      f"absolute cap {cap_ns:.0f}ns")
        return 1
    print("bench_compare: OK (no guarded regression)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
