"""Run the wavelock CLI in a fresh interpreter with the span tracer installed.

Usage: ``python perfbench/cli_child.py <spans.json> <op id> <cli args...>``.
The CLI's output and exit code are passed through; the spans and the
observed values are written to ``spans.json`` for the parent to merge.
Imports happen before tracing starts; the import layer is measured
separately with ``python -X importtime``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import wavelock.cli  # noqa: E402

from perfbench.trace import Tracer  # noqa: E402


def main() -> int:
    spans_path, op, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = op
    with tracer:
        code = wavelock.cli.main(args)
    sys.stdout.flush()
    Path(spans_path).write_text(json.dumps(tracer.to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main())
