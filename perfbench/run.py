#!/usr/bin/env python3
"""PACTree benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds the driver
(perfbench/bench.ml) and the libraries it links with dune into
.bench_build/, runs one workload for S seconds of host time, and prints
the driver's output, whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end figures; with --trace 1
they are the per-layer ledger.  Workloads:

    ycsb_a   closed loop, 16 clients, YCSB A (50% lookups, 50% inserts)
    ycsb_c   closed loop, 16 clients, YCSB C (lookups only)
    service  open loop into the 4-shard service at 0.8M requests/s
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("ycsb_a", "ycsb_c", "service")
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"
RUN_TIMEOUT_S = 170


def dune_command():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    sys.exit("run.py: dune is not on PATH")


def build():
    cmd = dune_command() + [
        "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "-j", "2", TARGET,
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("run.py: build failed")
    return os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def check_result(line):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("unexpected keys %s" % sorted(result))
    if not isinstance(result["correct"], bool) or result["attempted"] < 1:
        raise ValueError("malformed correct/attempted fields")
    for name, m in result["metrics"].items():
        if sorted(m) != ["unit", "value"]:
            raise ValueError("metric %s is malformed" % name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the root of a source checkout "
                 "(dune-project and lib/ not found)")
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # The driver forks one child per round: run it in its own process
    # group so a timeout stops all of them.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("run.py: the driver did not finish in %d s" % RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        sys.exit("run.py: the driver failed with exit code %d" % proc.returncode)
    try:
        check_result(lines[-1])
    except ValueError as e:
        sys.stdout.write(out)
        sys.exit("run.py: bad result line: %s" % e)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
