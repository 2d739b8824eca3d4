"""One fresh-interpreter start of a workload, for ``setup_s``.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Imports the library, resolves the default backend, runs the workload's
first operation, and prints ``time.monotonic()`` at its end as the last
line.  The caller reads the same clock before starting this process.
"""

import sys
import time
from pathlib import Path

import workloads
from pinvperturb import backends


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    backends.default_backend()
    workloads.first_op(name, seed, workdir)()
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
