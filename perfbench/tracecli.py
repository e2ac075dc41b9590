"""Run one scalelab CLI command with its layers traced.

    python3 perfbench/tracecli.py SPANS_JSON ARGS...

ARGS are the arguments of ``python -m scalelab``.  The recorded spans are
written to SPANS_JSON and the process exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    import scalelab.cli

    try:
        return scalelab.cli.main(args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "extra": tracer.extra}, fh)


if __name__ == "__main__":
    raise SystemExit(main())
