#!/usr/bin/env python3
"""Build the engine from source and run one perfbench workload.

    python3 perfbench/run.py --workload gdp_cycle --seed 1 --seconds 10 --trace 0

Run from the root of a source tree.  The OCaml build (dune, with its
shared cache off so nothing is written outside the tree) produces the
benchmark runner and the exlserve daemon; the runner then measures the
workload and prints its result object as the last line.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("compile_catalog", "gdp_cycle", "serve_mixed")
RUNNER = os.path.join("_build", "default", "perfbench", "perfbench.exe")
DAEMON = os.path.join("_build", "default", "bin", "exlserve.exe")
# A run measures for --seconds, plus set-up, inputs and output checks.
RUN_TIMEOUT = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    for needed in ("dune-project", "lib", os.path.join("bin", "exlserve.ml")):
        if not os.path.exists(needed):
            fail("no %s here: run from the root of the EXLEngine source tree" % needed)

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/perfbench.exe", "bin/exlserve.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed")

    cmd = [
        RUNNER,
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--exlserve", DAEMON,
        "--nproc", str(len(os.sched_getaffinity(0))),
        "--commit", commit(),
    ]
    # One core for the runner and the daemon it spawns: the load
    # generator and the server always share it, and the reference
    # kernel the runner times is timed on the core doing the work.
    core = max(os.sched_getaffinity(0))
    # Its own process group, so a timeout also stops the daemon it spawned.
    run = subprocess.Popen(
        cmd,
        env=env,
        start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {core}),
    )
    try:
        code = run.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT, 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
