"""Run the ``pinvperturb`` command line under the tracer.

Usage: python3 perfbench/cli_traced.py STATS_FILE <pinvperturb arguments...>

Behaves as ``python -m pinvperturb.cli`` and also writes the process's
import time and per-layer self times to STATS_FILE as JSON.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import pinvperturb.cli  # noqa: E402

import_ms = 1e3 * (time.perf_counter() - t0)

from spans import Tracer  # noqa: E402


def main():
    stats_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = pinvperturb.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    stats = {"import_ms": import_ms, "self_s": dict(tracer.self_s)}
    Path(stats_file).write_text(json.dumps(stats), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
