"""Traced stand-in for ``python -m heatgauss.cli``.

    python3 perfbench/cli_child.py <spans.json> <job id> <subcommand> [cli options]

Wraps the heatgauss layers, runs ``heatgauss.cli.main`` under a ``cli.main``
span and writes every span to <spans.json> at exit, also when the runner
raises (the traceback and exit status are then those of the real CLI).
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import heatgauss.cli

    tracer = Tracer()
    missing = tracer.install()
    tracer.job = job_id
    sid = tracer.open("cli.main")
    try:
        return heatgauss.cli.main(argv)
    finally:
        tracer.close(sid)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"missing": missing, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
