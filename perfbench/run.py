#!/usr/bin/env python3
"""Build and run the wall-clock benchmark of the hierarchical parameter server.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_local --seed 1 --seconds 10 --trace 0

builds the benchmark (a Go module in this directory that uses the repository's
packages) into .bench_build/, runs one workload once and passes its output
through; the last line is the JSON result. --workload all runs every workload
in turn. --steady N runs the workload N times, with seeds --seed .. --seed+N-1,
and prints the median, quartiles and relative spread of every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["train_local", "train_remote"]
RUN_TIMEOUT_S = 170


def build():
    """Compile the benchmark; every cache the toolchain writes stays in BUILD."""
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOTOOLCHAIN="local",
        GOFLAGS="",
        CGO_ENABLED="0",
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
    )
    tmp = BINARY + ".%d" % os.getpid()
    proc = subprocess.run(["go", "build", "-o", tmp, "."], cwd=HERE, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: building the benchmark failed\n")
        sys.exit(2)
    os.replace(tmp, BINARY)


def run_once(workload, seed, seconds, trace, echo=True):
    """Run one workload once; return (exit code, parsed last line or None)."""
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", os.path.join(BUILD, "work")]
    if trace:
        args += ["--trace-dir", os.path.join(BUILD, "traces")]
    try:
        proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: %s seed %d did not finish in %ds\n" % (workload, seed, RUN_TIMEOUT_S))
        return 1, None
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result


def steady(workload, first_seed, runs, seconds, trace):
    """Run a workload once per seed and print each metric's spread."""
    values, shares, code = {}, [], 0
    for seed in range(first_seed, first_seed + runs):
        rc, res = run_once(workload, seed, seconds, trace, echo=False)
        if rc != 0 or res is None:
            print("seed %d: failed (exit %d)" % (seed, rc))
            code = 1
            continue
        shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print("seed %d: " % seed + ", ".join(
            "%s %.4g" % (n, m["value"]) for n, m in sorted(res["metrics"].items())), flush=True)
    print("%s: %d runs of %gs, trace %d, failed share %s" % (
        workload, runs, seconds, trace, sorted(set(shares))))
    print("%-36s %8s %14s %14s %14s %8s" % ("metric", "unit", "median", "q1", "q3", "spread"))
    for name in sorted(values):
        unit, xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        spread = (q3 - q1) / abs(med) if med else float("nan")
        print("%-36s %8s %14.4f %14.4f %14.4f %8.4f" % (name, unit, med, q1, q3, spread))
    return code


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help="one of %s, or all" % ", ".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="run N times with consecutive seeds and print each metric's spread")
    a = p.parse_args()
    names = WORKLOADS if a.workload == "all" else [a.workload]
    build()
    code = 0
    for name in names:
        if a.steady:
            code |= steady(name, a.seed, a.steady, a.seconds, a.trace)
            continue
        rc, res = run_once(name, a.seed, a.seconds, a.trace)
        if rc != 0 or res is None or not res["correct"]:
            code = 1
        if len(names) > 1 and res is not None:
            print("== %s: correct %s, attempted %d, failed %d" % (
                name, res["correct"], res["attempted"], res["failed"]), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
