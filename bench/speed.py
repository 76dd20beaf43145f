"""Host-speed correction for timings taken on a small shared machine.

On a few vCPUs of a shared host the speed of a fixed piece of Python
code drifts by up to about 1.5x, over seconds to minutes, in CPU time as
well as wall time. Two runs of the same code a few minutes apart then
differ by more than any bound a regression gate could use.

A ``SpeedMeter`` samples the host's speed inside the measured process:
every ``INTERVAL_S`` a ``SIGALRM`` handler times a fixed kernel (Python
bytecode, float parsing and small NumPy calls, the mix the package
spends its time on). ``corrected`` turns a wall-clock interval into
reference seconds: the interval minus the time the handler itself took,
scaled by ``REFERENCE_KERNEL_S`` over the mean kernel time sampled in
and around it. The kernel is the benchmark's own code, so a change to
the package moves the corrected time exactly as much as the wall time,
while a change in host speed moves it much less. Raw wall times are
kept next to every corrected one in the run report.

The handler runs between bytecodes of the main thread, so a long call
into native code delays a sample but is never interrupted; system calls
interrupted by the signal are retried (PEP 475).
"""
from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# Median kernel time on the reference machine (2 vCPUs, Intel Xeon,
# Python 3.11.7, numpy 2.4.6). A constant: it sets the scale of
# corrected seconds, identically for every commit.
REFERENCE_KERNEL_S = 0.0019
# Samples this far outside an interval still describe its speed.
MARGIN_S = 1.5 * INTERVAL_S

_TEXT = [repr(0.001 * i + 1e-7) for i in range(1200)]
_SMALL = np.linspace(-1.0, 1.0, 32)


def kernel() -> float:
    """Time one pass of the fixed kernel, in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(12000):
        total += i * i % 7
    for text in _TEXT:
        total += float(text)
    for _ in range(180):
        total += float(np.exp(_SMALL).sum())
    return time.perf_counter() - start


class SpeedMeter:
    """Samples ``kernel`` every ``INTERVAL_S`` while started.

    ``samples`` holds ``(start, seconds)`` of each kernel pass.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        self.samples.append((start, kernel()))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.samples, fh)


def corrected(samples, start: float, end: float) -> float:
    """Reference seconds of ``[start, end]``, given the samples of the
    process that did the work (perf_counter is system-wide on Linux, so
    a parent may pass the interval it measured around a child)."""
    busy = sum(d for t, d in samples if start <= t < end)
    near = [d for t, d in samples if start - MARGIN_S <= t <= end + MARGIN_S]
    if not near:
        raise ValueError("no speed sample near the interval")
    return (end - start - busy) * REFERENCE_KERNEL_S / statistics.fmean(near)


def slowdown(samples) -> float:
    """Median kernel time over the reference: above 1 means a slow host."""
    return statistics.median(d for _, d in samples) / REFERENCE_KERNEL_S
