"""Run the ccfour command line under the boundary tracer.

    PYTHONPATH=src python3 bench/tracechild.py census --alpha 0.4 --beta 0.6

Behaves like ``python -m ccfour.cli`` with the same arguments, and adds one
last line to stderr: ``BENCH_TRACE {json}`` with the per-layer totals, the
cold import time of ccfour.cli and the residual counts.
"""

import json
import sys
import time

start = time.perf_counter()
import ccfour.cli  # noqa: E402  (the import is what is timed)

import_s = time.perf_counter() - start

from tracer import Counters, Tracer  # noqa: E402


def main() -> int:
    counters = Counters()
    counters.install()
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.call(sys.modules["ccfour.cli"].main, sys.argv[1:])
    finally:
        doc = tracer.summary()
        doc["import_s"] = import_s
        doc["counts"] = {"residual_calls": counters.residual_calls,
                         "residual_rows": counters.residual_rows}
        doc["missing"] += counters.missing
        sys.stderr.write("BENCH_TRACE " + json.dumps(doc) + "\n")


if __name__ == "__main__":
    sys.exit(main())
