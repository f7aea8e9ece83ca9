#!/usr/bin/env python3
"""Entry point of the end-to-end serving benchmark (README.md).

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds this directory's CMake project -- the nncell_bench program plus
nncell_cli and nncell_server from the repository's sources -- into
.bench_build/e2e at the repository root, then runs nncell_bench with the
given arguments. Build output goes to stderr, so the last line on stdout is
nncell_bench's result JSON; the exit status is nncell_bench's.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no nncell sources under %s" % ROOT)
    try:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD] + generator,
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                       stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)


def main():
    build()
    bench = os.path.join(BUILD, "nncell_bench")
    return subprocess.run([bench] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
