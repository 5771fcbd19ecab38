"""Host-speed calibration: report times in reference-host seconds.

On a shared machine the same deterministic work can take 30 % more or
less time from one second to the next, which would drown any change to
the program.  The benchmark therefore times a fixed pure-Python probe
loop (about 1 ms) alongside the workload and scales every measured time
by ``REFERENCE_S / probe``, the median probe around that time.  A
program change moves the scaled time exactly as it moves the raw time;
the host's own speed swings largely cancel.
"""

from __future__ import annotations

import bisect
import statistics
import time

PROBE_LOOPS = 10_000
#: What the probe takes on the reference host: scaled times read as
#: seconds on a host where the probe takes exactly this long.
REFERENCE_S = 0.001
#: Probes within this many seconds of a measured interval are used.
WINDOW_S = 0.5


def probe() -> float:
    """Seconds one fixed probe loop takes right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


class Calibration:
    """Probe samples over a run and the scale factor at any interval."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probes: list[float] = []

    def sample(self) -> None:
        t = time.perf_counter()
        self.times.append(t)
        self.probes.append(probe())

    def current(self) -> float:
        """The scale factor now: over the median of the last few probes."""
        return REFERENCE_S / statistics.median(self.probes[-5:])

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median probe within ``WINDOW_S`` of
        ``[start, end]`` (the nearest probes if none is that close)."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.probes[lo:hi]
        if not window:
            i = bisect.bisect_left(self.times, start)
            window = self.probes[max(0, i - 2): i + 2]
        return REFERENCE_S / statistics.median(window)
