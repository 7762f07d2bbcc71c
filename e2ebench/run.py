#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run it.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload report-warm --seed 1 --seconds 5 --trace 0

Every argument goes to e2ebench/e2e.exe (e2ebench/e2e.ml); see
e2ebench/README.md.  The build uses only the checkout (dune's shared
cache is off), and fails, exiting non-zero, when the system's sources
are not there.
"""

import os
import subprocess
import sys

BENCH_EXE = os.path.join("_build", "default", "e2ebench", "e2e.exe")


def main():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(need):
            print(f"e2ebench: {need} not found; run from the root of a checkout",
                  file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "e2ebench/e2e.exe", "bin/d16c.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    sys.stdout.flush()
    os.execv(BENCH_EXE, [BENCH_EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
