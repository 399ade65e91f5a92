#!/usr/bin/env python3
"""Build the benchmark harness from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness and the dtnic libraries it links
are compiled into .bench_build/perfbench (the first call builds, later calls
only check that the build is current). A failed build exits 1 without a
result line. Build output goes to stderr, so the last line of stdout is the
harness's JSON result. Every argument is passed to the harness, which
validates it; see README.md in this directory.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")


def build():
    """Configure and build the harness; raises on failure."""
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_harness", "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    # The harness writes its scratch trace file into its working directory.
    return subprocess.run([HARNESS] + sys.argv[1:], cwd=BUILD).returncode


if __name__ == "__main__":
    sys.exit(main())
