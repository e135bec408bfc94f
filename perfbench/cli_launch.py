"""Traced ``ghz3d`` command line, one job per process.

    python3 perfbench/cli_launch.py SPANS_OUT JOB <ghz3d arguments>

Installs the span tracer on every ``ghz3d`` module, runs
``ghz3d.cli.main`` on the arguments, writes the spans of job JOB to
SPANS_OUT and exits with the CLI's exit code.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from ghz3d import cli

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.job = int(argv[2])
    try:
        return tracer.wrap("cli.main", cli.main)(argv[3:])
    finally:
        with open(argv[1], "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
