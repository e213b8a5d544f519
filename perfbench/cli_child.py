"""One traced CLI invocation: ``cli_child.py SPANS_FILE <arrowcat argv>``.

Runs ``arrowcat.cli.main`` under the tracer of spans.py and writes the
spans to SPANS_FILE; the exit code and stdout are the CLI's own.
"""

import sys

import spans
from arrowcat.cli import main

if __name__ == "__main__":
    tracer = spans.Tracer()
    try:
        code = tracer.run_item(0, main, sys.argv[2:])
    finally:
        tracer.write(sys.argv[1])
    sys.exit(code)
