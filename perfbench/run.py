#!/usr/bin/env python3
"""Builds, prepares and runs the APOTS repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve_live --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The first run in a checkout configures and builds perfbench/ (which pulls in
the repository's own CMakeLists) under .bench_build/, then runs the prepare
step: the code under measurement trains the served LSTM and the APOTS Hybrid
and saves their checkpoints there. Later runs reuse both. The measuring
program prints the report; its last line is the JSON result.

Everything this script and the program write stays under .bench_build/.
Build and prepare output goes to standard error, so standard output carries
only the report.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
MODELS = os.path.join(WORK, "perfbench-models")
TRACES = os.path.join(WORK, "perfbench-traces")
BINARY = os.path.join(BUILD, "apots_perfbench")
PREPARED = os.path.join(MODELS, "prepared")

WORKLOADS = ("serve_live", "serve_scan", "train_adv")
RUN_TIMEOUT_S = 170
PREPARE_TIMEOUT_S = 600


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def check(cmd, timeout):
    """Runs cmd with its output on stderr; returns True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return False


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no APOTS source tree next to perfbench/; nothing to build")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not check(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"], 300):
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    return check(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
                 900)


def prepare():
    if os.path.isfile(PREPARED):
        return True
    os.makedirs(MODELS, exist_ok=True)
    log("prepare: training the served LSTM and the APOTS Hybrid")
    # The two models train in parallel, one thread each.
    procs = [subprocess.Popen([BINARY, "prepare", "--models", MODELS,
                               "--model", which],
                              stdout=sys.stderr, stderr=sys.stderr)
             for which in ("lstm", "hybrid")]
    ok = True
    for proc in procs:
        try:
            ok = proc.wait(timeout=PREPARE_TIMEOUT_S) == 0 and ok
        except subprocess.TimeoutExpired:
            ok = False
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ok:
        with open(PREPARED, "w") as stamp:
            stamp.write("ok\n")
    return ok


def self_test():
    """Unit tests of the benchmark's pure logic, plus a check that the
    program prints exactly the metrics BENCHMARK.json declares."""
    if not build(["apots_perfbench", "perfbench_logic_test"]):
        return 1
    if not check([os.path.join(BUILD, "perfbench_logic_test")], 120):
        return 1
    listed = subprocess.run([BINARY, "list-metrics"], capture_output=True,
                            text=True, timeout=60).stdout.split("\n")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    for kind in ("end_to_end", "per_layer"):
        program = [tuple(line.split()[1:]) for line in listed
                   if line.startswith(kind + " ")]
        spec = [(m["name"], m["unit"]) for m in declared[kind]]
        if program != spec:
            log("BENCHMARK.json %s differs from the program's list" % kind)
            return 1
    log("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed < 0 or args.seconds < 1:
        parser.error("--workload, a non-negative --seed and --seconds >= 1 "
                     "are required")

    os.makedirs(WORK, exist_ok=True)
    # One build and one prepare per checkout, even if runs start together.
    with open(os.path.join(WORK, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not build(["apots_perfbench"]) or not prepare():
            log("build or prepare failed")
            return 1
    os.makedirs(TRACES, exist_ok=True)
    cmd = [BINARY, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--models", MODELS, "--out", TRACES]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("the run did not finish within %d s" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
