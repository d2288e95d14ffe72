#!/usr/bin/env python3
"""Build the MAIA-Sim benchmark and run one workload.

    python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ledger/run.py --self-test

The first call configures and builds maia_ledger, maia_serve and
maia_router from source into $CARGO_TARGET_DIR (default .bench_build) at
the repository root; later calls only check that the build is current.
Build output goes to stderr.  The last line of stdout is the run's JSON
result; it is printed only when its metric names and units match
BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figures", "sweep_cold", "wire_hot", "routed")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                          os.path.join(ROOT, ".bench_build")))


def build():
    """Configure (once) and build; returns the build directory."""
    bdir = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "maia_ledger",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    return bdir


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="feed every correctness check a wrong input")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    bdir = build()
    ledger = os.path.join(bdir, "maia_ledger")
    if args.self_test:
        return subprocess.run([ledger, "--self-test"]).returncode

    run_dir = os.path.join(".ledger_run", args.workload)
    os.makedirs(os.path.join(ROOT, run_dir), exist_ok=True)
    cmd = [ledger, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(bdir, "maia", "bench", "maia_serve"),
           "--router-bin", os.path.join(bdir, "maia", "bench", "maia_router"),
           "--run-dir", run_dir]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        return proc.returncode or 1
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    result = json.loads(lines[-1])
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    want = expected_metrics(args.trace)
    if sorted(got) != sorted(want):
        sys.stderr.write("run.py: metrics %s do not match BENCHMARK.json %s\n"
                         % (sorted(got), sorted(want)))
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
