"""The host's current speed, read from a fixed piece of pure-Python work.

The benchmark runs on a few cores of a shared host, whose speed swings by up
to 2x for seconds to minutes at a time (a wall clock and the process's CPU
clock show the same swing, so it is not time spent waiting).  Every timed
run takes a calibration sample every ``EVERY_S`` seconds, and each time it
reports is scaled to the reference speed:

    reported = measured * REFERENCE_S / (median of the nearby samples)

so a reported millisecond is a millisecond on a host where one sample takes
``REFERENCE_S``.  The calibration is the same code in every run and is not
part of the engine, so a change to the engine moves the scaled time exactly
as much as the measured one.  A sample is timed on its thread's own CPU
clock with the garbage collector off, so neither another thread of the
process nor a collection of the engine's objects can inflate it.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter, thread_time

# About the median sample on the 2-vCPU host the benchmark was tuned on; it
# turns scaled times back into milliseconds.
REFERENCE_S = 0.0007
# A timed loop takes a sample whenever this much wall time has passed.
EVERY_S = 0.04
# A time is scaled by the median of this many samples before it and this
# many after it.
NEIGHBOURS = 3

_ROWS = [[(i * 7919 + j * 31) % 1009 for j in range(40)] for i in range(90)]


def _work() -> int:
    """Sorting, tuples, a set and a dict: the kind of work the engine does."""
    seen = set()
    total = 0
    for row in _ROWS:
        key = tuple(sorted(row))
        if key not in seen:
            seen.add(key)
            total += key[len(key) // 2]
    counts: dict = {}
    for row in _ROWS:
        for x in row:
            counts[x] = counts.get(x, 0) + 1
    return total + max(counts.values())


def sample() -> float:
    """CPU seconds of one calibration."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = thread_time()
        _work()
        return thread_time() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Calibration samples taken along a timed loop.  ``tick()`` between
    operations takes a sample when ``EVERY_S`` has passed; ``mark()`` is the
    index of the last sample, to be stored with the next operation."""

    def __init__(self) -> None:
        self.samples = [sample()]
        self._last = perf_counter()

    def tick(self) -> None:
        if perf_counter() - self._last >= EVERY_S:
            self.samples.append(sample())
            self._last = perf_counter()

    def mark(self) -> int:
        return len(self.samples) - 1

    def finish(self) -> None:
        self.samples.append(sample())

    def scale(self, seconds: float, mark: int) -> float:
        """``seconds`` measured after sample ``mark``, at the reference speed."""
        near = self.samples[max(0, mark - NEIGHBOURS + 1):mark + NEIGHBOURS + 1]
        return seconds * REFERENCE_S / statistics.median(near)

    def speed(self) -> float:
        """Median sample over reference: above 1 on a slower host."""
        return statistics.median(self.samples) / REFERENCE_S
