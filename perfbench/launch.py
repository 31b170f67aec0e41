"""Run one phi4lab CLI command in this process and report when it ran.

    python3 perfbench/launch.py TIMES_JSON [--spans SPANS_JSON] -- <phi4lab arguments>

This is what the ``phi4lab`` console script does (``phi4lab.cli.main``),
with two additions made from outside the package: the command function
that ``main`` dispatches to is wrapped so that the monotonic clock is read
when the command starts and when it returns, and with ``--spans`` the layer
functions are wrapped as well (see ``spans.py``).  The clock readings go to
TIMES_JSON when ``main`` returns.  ``time.monotonic`` is one system-wide
clock on Linux, so the parent can subtract its own launch reading from the
start reading.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    argv = sys.argv[1:]
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    times_path = Path(opts[0])
    spans_path = Path(opts[2]) if opts[1:2] == ["--spans"] else None

    from phi4lab import cli

    tracer = None
    if spans_path is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    stamps = {}
    command = cli._COMMANDS[cli_args[0]]

    def timed(*args, **kwargs):
        stamps["command_start"] = time.monotonic()
        try:
            return command(*args, **kwargs)
        finally:
            stamps["command_end"] = time.monotonic()

    cli._COMMANDS[cli_args[0]] = timed
    rc = cli.main(cli_args)
    stamps["package"] = str(Path(cli.__file__).resolve().parent)
    times_path.write_text(json.dumps(stamps))
    if tracer is not None:
        tracer.write(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
