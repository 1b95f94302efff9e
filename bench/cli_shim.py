"""Run the protometrics command line once, under the benchmark's tracer.

Usage: python bench/cli_shim.py SPANS_JSON ARG...

Behaves as ``python -m protometrics ARG...`` (same output and exit code) and
writes to SPANS_JSON the recorded spans and the clock reading at which the
command was ready to run, after the interpreter started and the package was
imported.
"""

import dataclasses
import json
import sys
import time

import protometrics.cli

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    ready = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap("cli", "main", protometrics.cli.main)(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"ready": ready, "spans": [dataclasses.astuple(s) for s in tracer.spans]}, fh)


if __name__ == "__main__":
    sys.exit(main())
