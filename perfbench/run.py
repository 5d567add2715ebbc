#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/bench.exe with dune from
the checkout's own sources (the libraries it measures included), runs it,
and passes its standard output through: the last line is one JSON object
with the keys correct, attempted, failed and metrics (see bench.ml).
Build output and progress go to standard error. Exits non-zero, without a
result, when the checkout cannot be built or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(argv, timeout, stdout):
    """Run argv in its own process group; on timeout kill the whole group
    (dune's compiler children included) and wait for it."""
    proc = subprocess.Popen(argv, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (argv[0], timeout))
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description="Run one workload of the benchmark.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    a = p.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a full checkout (no dune-project or lib/ here)")
    # Keep every build artifact inside the checkout.
    os.environ["DUNE_CACHE"] = "disabled"
    try:
        code, _ = run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                      BUILD_TIMEOUT_S, sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if code != 0:
        fail("build failed (exit %d)" % code)
    code, out = run([EXE, "--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", "%g" % a.seconds, "--trace", a.trace],
                    RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("benchmark exited %d without a result" % code)
    try:
        json.loads(lines[-1])
    except ValueError:
        fail("the last output line is not JSON: %r" % lines[-1])
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
