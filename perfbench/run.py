#!/usr/bin/env python3
"""Build the perfbench driver from source and run one workload.

Run from the root of the indq source tree:

    python3 perfbench/run.py --workload house-mind --seed 1 --seconds 30 --trace 0

It builds perfbench/main.exe and bin/indq.exe with dune (the shared dune
cache is disabled, so the build writes only under _build/), then runs the
driver with the same arguments, pinned to one CPU.  The driver's last line of standard output
is the result JSON.  Outside a source tree it exits with status 2 and prints
no result.
"""

import os
import subprocess
import sys

TARGETS = ["./perfbench/main.exe", "./bin/indq.exe"]


def pin_to_one_cpu():
    # The driver and the server it spawns take turns (one request at a
    # time); on different CPUs every request paid a cross-CPU wake-up, and
    # serve-mixed runs of one seed split into two modes ~30% apart.  Pin the
    # whole run to the last CPU it may use.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        print("perfbench: run this from the root of the indq source tree",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
        env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    driver = os.path.join("_build", "default", "perfbench", "main.exe")
    indq = os.path.join("_build", "default", "bin", "indq.exe")
    child = subprocess.Popen([driver, "--indq", indq] + sys.argv[1:],
                             preexec_fn=pin_to_one_cpu)
    try:
        return child.wait(timeout=170)
    except subprocess.TimeoutExpired:
        # SIGTERM lets the driver stop the server it spawned before exiting.
        child.terminate()
        try:
            child.wait(timeout=5)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        print("perfbench: the run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
