#!/usr/bin/env python3
"""Run workloads over several seeds and report each end-to-end metric's
spread, the way the benchmark's acceptance check computes it.

    python3 perfbench/spread.py --workloads house-mind,serve-mixed --seeds 1-5

For every workload and metric it prints the median over the seeds and the
inter-quartile distance (statistics.quantiles(values, n=4)) as a share of
that median, next to the metric's bound from BENCHMARK.json and a third of
it, the target.  It also prints each run's output digest, host.ref_ms,
host.pace, host.steal_share and wall time.  Run from the root of the source tree; it
runs perfbench/run.py once per workload and seed, one run at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload, seed, seconds, trace):
    start = time.time()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run %s seed %d failed (%d): %s" %
                 (workload, seed, out.returncode, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    diags = {"took_s": "%.1f" % (time.time() - start)}
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] == "diag" and len(parts) >= 3:
            diags[parts[1]] = parts[2]
        elif parts[0] == "digest":
            diags["digest"] = parts[2]
    return result, diags


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--diags", action="store_true",
                    help="also print every diagnostic line of every run")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            result, diags = run_one(workload, seed, args.seconds, 0)
            print("%s seed %d: correct=%s failed=%d digest=%s host.ref_ms=%s/%s"
                  " host.pace=%s host.steal_share=%s took %ss"
                  % (workload, seed, result["correct"], result["failed"],
                     diags.get("digest"), diags.get("host.ref_ms.before"),
                     diags.get("host.ref_ms.after"), diags.get("host.pace"),
                     diags.get("host.steal_share"), diags["took_s"]),
                  flush=True)
            if args.diags:
                for k, v in diags.items():
                    print("    %-40s %s" % (k, v))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) < 2:
                print("  %-28s %g" % (name, med))
                continue
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name, 0)
            worst = max(worst, spread / bound if bound else 0)
            print("  %-28s median %-12.6g spread %.4f bound %.2f target %.3f %s"
                  % (name, med, spread, bound, bound / 3,
                     "" if spread < bound / 3 else "<-- high"),
                  flush=True)
            print("      " + " ".join("%.5g" % v for v in vals))
    print("worst spread/bound: %.3f" % worst)


if __name__ == "__main__":
    main()
