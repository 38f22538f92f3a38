"""Traced stand-in for ``python -m pdzf.cli``, used only by traced runs.

It records when the interpreter reached user code, how long importing
``pdzf.cli`` took, and the time spent parsing the edge list and hashing
the digest, then runs ``pdzf.cli.main`` unchanged.  The timings go to
standard error as one line starting with ``perfbench-trace``, which the
benchmark strips before it checks the response.
"""

import time

START_NS = time.monotonic_ns()

import_start = time.perf_counter()
import pdzf.cli  # noqa: E402

IMPORT_MS = (time.perf_counter() - import_start) * 1000

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spans import TRACE_MARK, Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install("graph.parse", "pdzf.cli.from_edge_list")
    tracer.install("graph.digest", "pdzf.cli._digest")
    code = 1
    try:
        code = pdzf.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        detail = {
            "start_ns": START_NS,
            "import_ms": IMPORT_MS,
            "parse_ms": tracer.self_ms("graph.parse"),
            "digest_ms": tracer.self_ms("graph.digest"),
        }
        sys.stderr.write(TRACE_MARK + json.dumps(detail) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
