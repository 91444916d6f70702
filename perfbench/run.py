#!/usr/bin/env python3
"""Build ebp and its benchmark from source, then run one workload.

    python3 perfbench/run.py --workload cold|warm|live --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The benchmark itself is
perfbench/ebpbench.ml; this wrapper builds it with dune, runs it in its
own process group, relays its output (the last line is the JSON
result), and makes sure every process it started has ended before it
exits. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_EXE = "_build/default/perfbench/ebpbench.exe"
EBP_EXE = "_build/default/bin/ebp.exe"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175
RUN_ROOT = ".perfbench-run"  # the benchmark's scratch space, under the checkout


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False


def stop_group(pgid):
    """Kill what is left of the benchmark's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["cold", "warm", "live"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    os.chdir(ROOT)
    for need in ("dune-project", "bin/ebp.ml", "lib"):
        if not os.path.exists(need):
            fail(f"{need} not found: run from a full checkout of the repository")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")

    build = subprocess.run(
        # No shared cache: the build reads and writes inside the checkout.
        [dune, "build", "--root", ".", "--cache=disabled",
         "./bin/ebp.exe", "./perfbench/ebpbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("build failed")

    bench = subprocess.Popen(
        [
            BENCH_EXE,
            "--ebp", EBP_EXE,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
        ],
        start_new_session=True,
    )
    pgid = bench.pid

    def finish():
        stop_group(pgid)
        # The run's scratch directory, if the benchmark could not remove it.
        shutil.rmtree(os.path.join(RUN_ROOT, f"{args.workload}-{pgid}"), ignore_errors=True)

    def on_signal(signum, _frame):
        bench.kill()
        bench.wait()
        finish()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        bench.kill()
        bench.wait()
        finish()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    finish()
    sys.exit(code)


if __name__ == "__main__":
    main()
