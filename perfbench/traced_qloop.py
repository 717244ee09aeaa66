"""Run `qloop` in this process with the tracer installed.

Usage: python3 traced_qloop.py OUT_JSON QLOOP_ARG...

Writes the tracer's aggregates and spans, plus the exit code, to OUT_JSON.
The qloop package must be importable (PYTHONPATH pointing at `src`).
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    out_path, qloop_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from qloop.cli import main as qloop_main

    code = qloop_main(qloop_args)
    doc = tracer.dump()
    doc["exit_code"] = code
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
