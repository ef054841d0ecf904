#!/usr/bin/env python3
"""End-to-end benchmark of the csq_serve request path.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze-cold --seed 7 --seconds 15 --trace 0

It builds perfbench/csq_perfbench (with the repository's own library) under
$CARGO_TARGET_DIR (default .bench_build), generates the workload's NDJSON
request lines from --seed, and runs csq_perfbench, which replays the lines into
an in-process serve::Server in a closed loop, checks every response, and
prints the end-to-end metrics (--trace 0) or the per-layer breakdown
(--trace 1). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

A run: set-up (server, journal, fixed warm-up lines) repeated for about
half a second; one untimed second of load; --seconds of timed load; set-up
repeated for another half second; setup_s is the median of all set-ups. Throughput and p50/p99 latency (submit() to the
sink) are medians over up to nine consecutive windows of at least 5000 ok
requests each (one window, the whole phase, for the offline workloads), so a
burst of host contention moves a few windows rather than the figure.
ok_frac is the share of attempted requests answered ok and byte-identical to
every other answer to the same line, with the first 32 lines' answers also
equal to a recompute through the public entry points. --trace 1 spends half
the time untraced and half traced, and prints the per-layer metrics instead.

Workloads (server configuration; all lines are generated before the server
starts, and csq_perfbench sees only the lines):

  analyze-hot       64 distinct analyze configs, 3 policies mixed, cache
                    prefilled at set-up, no journal, 4 in flight.
  analyze-cold      every request a distinct analyze over the Theorem 1
                    region (CS-CQ, CS-ID, a few Dedicated; scv_l 1..8), so
                    every lookup misses and inserts; write-ahead journal on
                    (fsync_every=32) in an in-memory file; 4 in flight.
  offline-mix       3 sweeps (32 points; rho_s to 90% of the CS-CQ frontier
                    or rho_l to 0.9) per simulate (20000 completions x 2
                    replications, rotating sim_policy and dist); 4 in flight.
  offline-parallel  the offline-mix lines with workers=1, op_threads=2 and
                    1 in flight: the only workload where src/parallel works.
"""

import argparse
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

SIM_POLICIES = ["cscq", "steal-half", "jiq", "csid", "work-sharing", "random"]
SIM_DISTS = ["exp", "coxian", "bpareto"]


def csid_max_rho_short(rho_l):
    # Positive root of rho_S^2 + rho_S (rho_L - 1) - 1 = 0 (CS-ID frontier).
    b = 1.0 - rho_l
    return 0.5 * (b + math.sqrt(b * b + 4.0))


def max_rho_short(policy, rho_l):
    return {"cscq": 2.0 - rho_l, "csid": csid_max_rho_short(rho_l), "dedicated": 1.0}[policy]


def line(fields):
    return json.dumps(fields, separators=(",", ":"))


def r6(x):
    return round(x, 6)


def strata(rng, n):
    """n draws from [0, 1), one in each 1/n-wide stratum, in random order.
    Every seed then gets the same spread of each parameter (seeds differ in
    detail, not in how much hard work they hold), which keeps the tails of
    the latency distribution comparable across seeds."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + rng.random()) / n for c in cells]


def joint_strata(rng, shape):
    """One point in each cell of a grid over [0, 1)^len(shape), shape[i] cells
    along axis i, in random order. Every seed then holds the same joint mix of
    parameters, not only the same spread of each."""
    cells = list(itertools.product(*(range(k) for k in shape)))
    rng.shuffle(cells)
    return [[(c + rng.random()) / k for c, k in zip(cell, shape)] for cell in cells]


def lerp(lo, hi, u):
    return lo + (hi - lo) * u


def analyze_configs(rng, policies):
    """One analyze request per entry of `policies`, inside that policy's
    stability region (Theorem 1) and at most 90% of the way to its frontier."""
    n = len(policies)
    u_rl, u_rs, u_mean, u_scv = (strata(rng, n) for _ in range(4))
    out = []
    for i, policy in enumerate(policies):
        rho_l = lerp(0.05, 0.9, u_rl[i])
        out.append({
            "op": "analyze",
            "policy": policy,
            "rho_s": r6(lerp(0.05, 0.9 * max_rho_short(policy, rho_l), u_rs[i])),
            "rho_l": r6(rho_l),
            "mean_l": r6(lerp(1.0, 10.0, u_mean[i])),
            "scv_l": r6(lerp(1.0, 8.0, u_scv[i])),
        })
    return out


def cold_policies(rng, n):
    # CS-CQ and CS-ID, and a few Dedicated: 45% / 45% / 10%.
    return ["cscq" if u < 0.45 else "csid" if u < 0.9 else "dedicated" for u in strata(rng, n)]


# Warm-up requests are fixed (seed-independent), so set-up does the same
# work for every seed: one request per op (and per analyze policy) the
# workload sends.
WARM_ANALYZE = [{"op": "analyze", "policy": p, "rho_s": 0.9, "rho_l": 0.5, "mean_l": 10.0,
                 "scv_l": 8.0} for p in ("cscq", "csid", "dedicated")]
WARM_OFFLINE = [
    {"op": "sweep", "axis": "rho_s", "from": 0.05, "to": 1.3, "points": 32, "rho_l": 0.5,
     "mean_l": 10.0, "scv_l": 8.0},
    {"op": "simulate", "rho_s": 0.6, "rho_l": 0.4, "mean_l": 10.0, "scv_l": 8.0,
     "completions": 20000, "replications": 2, "seed": 1, "sim_policy": "cscq", "dist": "coxian"},
]


def gen_hot(rng):
    # 64 configs, each sent 64 times in shuffled order; the cache is
    # prefilled with all 64 at set-up (which is also the warm-up).
    configs = analyze_configs(rng, [["cscq", "csid", "dedicated"][i % 3] for i in range(64)])
    picks = [i for i in range(64) for _ in range(64)]
    rng.shuffle(picks)
    pool = [line({"id": f"h{k}", **configs[c]}) for k, c in enumerate(picks)]
    warmup = [line({"id": f"p{i}", **c}) for i, c in enumerate(configs)]
    return pool, warmup


def gen_cold(rng):
    # 16384 distinct configs: far more than the 256-entry result cache and the
    # 4096-entry per-thread fit memo, so replaying the pool never hits either.
    configs = analyze_configs(rng, cold_policies(rng, 16384))
    pool = [line({"id": f"c{k}", **c}) for k, c in enumerate(configs)]
    warmup = [line({"id": f"w{i}", **c}) for i, c in enumerate(WARM_ANALYZE)]
    return pool, warmup


# Sweeps per axis: one per cell of 16 (fixed load) x 16 (scv_l) x 12 (mean_l).
SWEEP_GRID = (16, 16, 12)


def sweeps(rng, axis):
    """Sweeps over the paper's axes: rho_s up to 90% of the CS-CQ frontier
    2 - rho_l, or rho_l up to 0.9; the fixed load, scv_l and mean_l vary."""
    out = []
    for u_fix, u_scv, u_mean in joint_strata(rng, SWEEP_GRID):
        fields = {"op": "sweep", "axis": axis, "from": 0.05, "points": 32,
                  "mean_l": r6(lerp(1.0, 10.0, u_mean)), "scv_l": r6(lerp(1.0, 8.0, u_scv))}
        if axis == "rho_s":
            rho_l = lerp(0.1, 0.8, u_fix)
            fields.update(rho_l=r6(rho_l), to=r6(0.9 * (2.0 - rho_l)))
        else:
            fields.update(rho_s=r6(lerp(0.1, 0.9, u_fix)), to=0.9)
        out.append(fields)
    return out


def simulates(rng, n):
    u_rs, u_rl, u_mean, u_scv = (strata(rng, n) for _ in range(4))
    return [{"op": "simulate", "rho_s": r6(lerp(0.2, 0.7, u_rs[k])), "rho_l": r6(lerp(0.1, 0.5, u_rl[k])),
             "mean_l": r6(lerp(1.0, 10.0, u_mean[k])), "scv_l": r6(lerp(1.0, 8.0, u_scv[k])),
             "completions": 20000, "replications": 2, "seed": rng.randrange(1, 2**31),
             "sim_policy": SIM_POLICIES[k % 6], "dist": SIM_DISTS[(k // 6) % 3]}
            for k in range(n)]


def gen_offline(rng):
    # 3 sweeps (alternating axis) per simulate, in that fixed rotation. More
    # lines than a run replays: the p99 is set by the rare costly sweeps, and
    # each one counted once rather than several times keeps it steadier.
    n = 8192
    assert math.prod(SWEEP_GRID) == n * 3 // 8
    by_axis = {"rho_s": iter(sweeps(rng, "rho_s")), "rho_l": iter(sweeps(rng, "rho_l"))}
    sims = iter(simulates(rng, n // 4))
    pool = []
    for i in range(n):
        if i % 4 == 3:
            fields = next(sims)
        else:
            fields = next(by_axis["rho_s" if (i - i // 4) % 2 == 0 else "rho_l"])
        pool.append(line({"id": f"o{i}", **fields}))
    warmup = [line({"id": f"w{i}", **c}) for i, c in enumerate(WARM_OFFLINE)]
    return pool, warmup


WORKLOADS = {
    "analyze-hot": {"gen": gen_hot, "workers": 2, "op_threads": 1, "inflight": 4, "fsync_every": 0},
    "analyze-cold": {"gen": gen_cold, "workers": 2, "op_threads": 1, "inflight": 4, "fsync_every": 32},
    "offline-mix": {"gen": gen_offline, "workers": 2, "op_threads": 1, "inflight": 4, "fsync_every": 0},
    "offline-parallel": {"gen": gen_offline, "workers": 1, "op_threads": 2, "inflight": 1,
                         "fsync_every": 0},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build csq_perfbench; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"perfbench: no csq source tree next to {HERE}; nothing to build")
        return None
    bdir = build_dir / "perfbench"
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(bdir), "--target", "csq_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return bdir / "csq_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)
    if binary is None:
        log("perfbench: build failed")
        return 1

    wl = WORKLOADS[args.workload]
    pool, warmup = wl["gen"](random.Random(f"{args.workload}:{args.seed}"))
    work = build_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    requests_path = work / f"{args.workload}-{args.seed}.requests.ndjson"
    warmup_path = work / f"{args.workload}-{args.seed}.warmup.ndjson"
    requests_path.write_text("\n".join(pool) + "\n")
    warmup_path.write_text("\n".join(warmup) + "\n")

    cmd = [str(binary), "--requests", str(requests_path), "--warmup", str(warmup_path),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workers", str(wl["workers"]), "--op-threads", str(wl["op_threads"]),
           "--inflight", str(wl["inflight"]), "--fsync-every", str(wl["fsync_every"])]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: csq_perfbench timed out")
        return 1
    finally:
        requests_path.unlink(missing_ok=True)
        warmup_path.unlink(missing_ok=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: csq_perfbench exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        log(f"perfbench: metric set differs from BENCHMARK.json: {sorted(missing)}")
        return 1
    print(f"workload {args.workload} seed {args.seed}: workers={wl['workers']} "
          f"op_threads={wl['op_threads']} inflight={wl['inflight']} "
          f"journal={'memfd, fsync_every=' + str(wl['fsync_every']) if wl['fsync_every'] else 'off'} "
          f"pool={len(pool)} lines, nproc={os.cpu_count()}")
    for text in lines[:-1]:
        print(text)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
