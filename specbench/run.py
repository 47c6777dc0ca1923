#!/usr/bin/env python3
"""Run one SpecHD benchmark workload and print its result as the last line.

    python3 specbench/run.py --workload batch-wide --seed 1 --seconds 24 --trace 0

Run from the root of a SpecHD checkout. The first call configures and builds
`specbench` (Release) under `.bench_build/specbench`; later calls only check
that the build is current. Inputs are generated from the seed by a separate
`specbench gen` process into `.bench_build/work/`, measured by
`specbench run`, and deleted afterwards. Traced runs (`--trace 1`) keep
their spans in `.bench_build/traces/`.

Build output and the program's own lines go to standard error and standard
output respectively; the last line of standard output is the JSON result.
Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "specbench")
BUILD = os.path.join(ROOT, ".bench_build", "specbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("batch-wide", "batch-dense", "serve-mixed")
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 172  # after the build, generation plus the run must end within 180 s


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def call(cmd, timeout, capture=False):
    """Runs cmd to completion (killing it on timeout); returns its stdout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out after %.0f s: %s" % (timeout, " ".join(cmd)))
    if proc.returncode != 0:
        fail("exit code %d: %s" % (proc.returncode, " ".join(cmd)))
    return out


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        call(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator,
             BUILD_TIMEOUT_S)
    call(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))], BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "specbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no SpecHD sources around %s" % SOURCE)

    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
        call([binary, "gen"] + common, deadline - time.monotonic())
        cmd = [binary, "run"] + common + ["--seconds", str(args.seconds),
                                          "--trace", str(args.trace)]
        if args.trace:
            os.makedirs(TRACES, exist_ok=True)
            spans = os.path.join(TRACES, "%s-seed%d.jsonl" % (args.workload, args.seed))
            if os.path.exists(spans):
                os.remove(spans)
            cmd += ["--trace-out", spans]
        out = call(cmd, max(1.0, deadline - time.monotonic()), capture=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        fail("the run printed no result line")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
