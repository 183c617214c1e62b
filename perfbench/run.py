#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study_l1 --seed 1 --seconds 20 --trace 0

The program is built with dune (release profile) into .bench_build; the
arguments go to perfbench/bench.exe unchanged, and its last line of
standard output is the result.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a microtools checkout")
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune is not on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
