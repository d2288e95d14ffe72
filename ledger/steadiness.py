#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics repeat between sets of runs.

    python3 ledger/steadiness.py [--runs 10] [--sets 2] [--workload NAME ...]

Runs every workload as separate sets of untraced runs, each run with its own
seed (set k uses seeds 1000k to 1000k + runs - 1), and prints per set each metric's median, quartiles and spread (the
distance between the quartiles over the median), then the change of each
set's median against the first set's next to the metric's bound from
BENCHMARK.json, and the share of CPU time the host stole from this machine
during each set.  The box is described by its core count and a measured
copy bandwidth.  Every run's figures are also written to
.ledger_run/steadiness.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def copy_bandwidth_gbs(mb=64, reps=5):
    """Best-of-reps memcpy bandwidth, counting bytes read plus written."""
    src = bytearray(os.urandom(1 << 20)) * mb
    dst = bytearray(len(src))
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        dst[:] = src
        best = min(best, time.perf_counter() - t0)
    return 2 * len(src) / best / 1e9


def cpu_ticks():
    """(steal, total) jiffies of all cores so far, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    if before is None or after is None or after[1] == before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit("steadiness.py: %s seed %d failed (exit %d)"
                 % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("steadiness.py: %s seed %d reported incorrect outputs"
                 % (workload, seed))
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-set", type=int, default=1,
                    help="number of the first set (its seeds start at 1000 times it)")
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    box = {"nproc": os.cpu_count(), "copy_gbs": round(copy_bandwidth_gbs(), 2)}
    print("box: nproc %d, copy bandwidth %.2f GB/s; %d sets x %d runs x %g s"
          % (box["nproc"], box["copy_gbs"], args.sets, args.runs, args.seconds))
    report = {"box": box, "runs": args.runs, "seconds": args.seconds,
              "workloads": {}}
    workloads = args.workload or names
    # Set k of every workload runs before set k + 1 of any, so the sets of
    # one workload are made minutes apart.
    # Time the host took from this VM's cores during each set, which
    # slows every workload, the serving pipelines most.
    results = {w: [] for w in workloads}
    steal = {w: [] for w in workloads}
    for s in range(args.sets):
        for workload in workloads:
            before = cpu_ticks()
            results[workload].append(
                [run_once(workload, 1000 * (s + args.first_set) + i, args.seconds)
                 for i in range(args.runs)])
            steal[workload].append(steal_share(before, cpu_ticks()))
    for workload in workloads:
        sets = results[workload]
        entry = {}
        for m in spec["end_to_end"]:
            per_set = [summary([r["metrics"][m["name"]]["value"] for r in rs])
                       for rs in sets]
            entry[m["name"]] = per_set
            base = per_set[0]["median"]
            print("%-10s %-12s" % (workload, m["name"]), end="")
            for k, st in enumerate(per_set):
                change = (st["median"] - base) / base
                print("  set%d %12.6g [%.6g, %.6g] spread %5.1f%% change %+5.1f%%"
                      % (k + 1, st["median"], st["q1"], st["q3"],
                         100 * st["spread"], 100 * change), end="")
            print("  bound %g%%" % (100 * m["bound"]))
        print("%-10s %-12s" % (workload, "steal"), end="")
        for k, share in enumerate(steal[workload]):
            print("  set%d %.2f%%" % (k + 1, 100 * share), end="")
        print()
        failed = [[r["failed"] / r["attempted"] for r in rs] for rs in sets]
        entry["failed_share"] = failed
        entry["steal_share"] = steal[workload]
        entry["values"] = {m["name"]: [[r["metrics"][m["name"]]["value"] for r in rs]
                                       for rs in sets] for m in spec["end_to_end"]}
        report["workloads"][workload] = entry
    os.makedirs(os.path.join(ROOT, ".ledger_run"), exist_ok=True)
    with open(os.path.join(ROOT, ".ledger_run", "steadiness.json"), "w") as f:
        json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
