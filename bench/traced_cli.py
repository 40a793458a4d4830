"""Run ``weylmin.cli.main`` with the tracer installed; the traced CLI job.

Usage: python bench/traced_cli.py <weylmin arguments...>

Behaves like ``python -m weylmin`` and appends one JSON line with the
span totals to the file named by the BENCH_TRACE_FILE environment
variable.
"""

import json
import os
import sys

import weylmin.cli
from tracer import Tracer


def main():
    tracer = Tracer()
    tracer.install()
    try:
        return weylmin.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(os.environ["BENCH_TRACE_FILE"], "a", encoding="utf-8") as fh:
            fh.write(json.dumps(tracer.snapshot()) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
