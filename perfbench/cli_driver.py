"""Run one fdcurves command with the benchmark's spans installed.

Usage: python perfbench/cli_driver.py SPANS_OUT SUBCOMMAND [ARGS...]

Installs the wrappers of ``spans.install``, calls ``fdcurves.cli.main`` with
the remaining arguments, writes the span summary as JSON to SPANS_OUT and
exits with the command's exit code. ``fdcurves`` must be importable, for
example through PYTHONPATH=src.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fdcurves.cli  # noqa: E402
import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.active = True
    try:
        return fdcurves.cli.main(argv)
    finally:
        tracer.active = False
        Path(out).write_text(json.dumps(tracer.summary()))


if __name__ == "__main__":
    raise SystemExit(main())
