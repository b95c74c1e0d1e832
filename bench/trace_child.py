"""Traced entry point for one cold-cli command in its own process.

    python bench/trace_child.py SPANS_FILE ARG...

Installs the same wrappers as the in-process traced run, calls
algoeff.cli.main(ARGS) under the root span, writes the spans and counts
to SPANS_FILE as JSON and exits with main's return code.
"""
import json
import sys
import traceback

from tracing import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from algoeff import cli

    tracer = Tracer()
    try:
        rc = tracer.run(cli.main, argv)
    except Exception:
        traceback.print_exc()
        rc = 99
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
