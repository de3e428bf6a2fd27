#!/usr/bin/env python3
"""Build the DeskPar benchmark from this checkout's sources and run it.

    python3 deskbench/run.py --workload suite|trace_cold|serve_warm \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
deskbench/CMakeLists.txt (the library sources under src/ plus the
benchmark program) into .bench_build/deskbench; later runs only rebuild
what changed. Build output goes to stderr, so the benchmark's result
line stays the last line of stdout. Generated corpora go under
.bench_work/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "deskbench")
BINARY = os.path.join(BUILD, "deskbench")


def run_quiet(cmd):
    """Run a build step; on failure show its output and exit 1."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("deskbench: build step failed: %s\n"
                         % " ".join(cmd))
        sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("deskbench: no DeskPar sources under %s/src\n"
                         % ROOT)
        sys.exit(1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs])


def main():
    build()
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    main()
