"""Run one ``python -m moraldrift.cli`` command under a speed meter.

Usage: ``python3 bench/cli_run.py SAMPLES_JSON <subcommand> [options]``.
Behaves as ``python -m moraldrift.cli <subcommand> [options]`` (same
arguments, output and exit code) and writes the host-speed samples taken
while it ran to SAMPLES_JSON, from which the parent corrects the
command's wall time (see ``speed.py``).
"""
import runpy
import sys
from pathlib import Path

from speed import SpeedMeter


def main() -> None:
    samples = Path(sys.argv[1])
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    meter = SpeedMeter()
    meter.start()
    try:
        runpy.run_module("moraldrift.cli", run_name="__main__", alter_sys=True)
    finally:
        meter.stop()
        meter.dump(samples)


if __name__ == "__main__":
    main()
