"""Run ``wgcutoff.cli.main`` in this process with every layer traced.

Usage: ``python3 perfbench/traced_cli.py <spans.json> <cli arguments...>``
with ``src`` on ``PYTHONPATH``.  The spans are written to ``spans.json``
after the command returns; the exit code is the command's.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from wgcutoff import cli

    tracer = Tracer()
    tracer.install_wgcutoff()
    try:
        with tracer.span("cli.main", command=argv[0]):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
