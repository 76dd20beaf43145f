"""Run one ``moraldrift.cli`` command under the tracer.

Usage: ``python3 bench/cli_traced.py SPANS_JSON <subcommand> [options]``.
Installs the same wrappers as library runs, opens a ``cli.<subcommand>``
span around ``moraldrift.cli.main``, writes the spans to SPANS_JSON when
the command returns and exits with the command's exit code. The package
import is recorded as a ``cli.import`` span, since process start-up is
part of the CLI layer's cost.
"""
import json
import sys
import time
from pathlib import Path

from tracer import Tracer


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    import moraldrift.cli as cli

    tracer = Tracer()
    tracer.spans.append(("cli.import", start, time.perf_counter(), -1, None))
    tracer.install()
    try:
        with tracer.span(f"cli.{argv[0] if argv else 'main'}"):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
        spans_path.write_text(json.dumps(tracer.export()))
    return code


if __name__ == "__main__":
    sys.exit(main())
