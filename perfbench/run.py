#!/usr/bin/env python3
"""Builds and runs the WOLF benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload classify|ingest|churn|serve \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test

The first form builds the library from ../src and wolfbench into
.bench_build/perfbench (incrementally), runs one workload, and leaves
wolfbench's output on stdout: the last line is one JSON object with "correct",
"attempted", "failed" and "metrics". "--workload all" runs the four workloads
one after another and prints each one's summary. "--self-test" builds and
runs the tests of the benchmark's own arithmetic.

Everything the benchmark writes stays under .bench_build/ in the checkout.
"""
import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("classify", "ingest", "churn", "serve")
ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
TMP = ROOT / ".bench_build" / "tmp"
# A run measures for --seconds plus set-up, oracle and (traced) one more
# pass; anything past this is a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment():
    TMP.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(TMP)
    return env


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no WOLF sources under {ROOT / 'src'}; nothing to benchmark")
    BUILD.mkdir(parents=True, exist_ok=True)
    env = environment()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  *targets])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step failed: {' '.join(step)}")


def run_workload(workload, seed, seconds, trace):
    WORK.mkdir(parents=True, exist_ok=True)
    command = [str(BUILD / "wolfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace),
               "--workdir", str(WORK.relative_to(ROOT))]
    sys.stdout.flush()
    # Its own process group, so a hang takes its forked passes down with it.
    proc = subprocess.Popen(command, cwd=ROOT, env=environment(),
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build(["perfbench_test"])
        test = BUILD / "perfbench_test"
        if not test.is_file():
            fail("GoogleTest not found; the arithmetic tests were not built")
        sys.exit(subprocess.run([str(test)], cwd=ROOT,
                                env=environment()).returncode)
    if args.workload is None:
        parser.error("--workload or --self-test is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build(["wolfbench"])
    if args.workload != "all":
        sys.exit(run_workload(args.workload, args.seed, args.seconds,
                              args.trace))
    codes = [run_workload(w, args.seed, args.seconds, args.trace)
             for w in WORKLOADS]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
