"""The host's speed, sampled inside a timed region, to take it out of a wall time.

On a shared host, pure-Python code runs at a fast and a slow speed, about
1.5x apart, in phases from under a second to minutes long.  A repeat of a
few seconds mixes them, and so does a run of half a minute, so a median of
plain wall times moves with the host, not with the program.

``SpeedSampler`` arms a SIGALRM interval timer around the timed region.
Every ``INTERVAL_S`` it times one fixed pure-Python reference loop at that
moment.  Its own time is taken out of the wall time, and the rest is divided
by the mean reference-loop time: the region's length in reference loops.  A
slow phase lengthens both.  The signal is handled between bytecodes, so a
long numpy call delays the next sample but is not cut short.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL_S = 0.02     # one sample per 20 ms of the timed region
CALLS, ITEMS = 800, 1000   # about 0.75 ms per sample on a 2.1 GHz Xeon, 4% of the time


def _clip(x: float, lo: float, hi: float) -> float:
    return max(lo, min(x, hi))


def reference_loop(calls: int = CALLS, items: int = ITEMS) -> float:
    """Interpreter work of the kinds in rld's Python loops: calls, builtins,
    float arithmetic and branches, then a list built and sorted.

    A bare integer loop slows less than rld does in a slow phase; this mix
    slows about as much as the scalar storage loop, a little more than the
    numpy-heavy workloads.
    """
    s = 0.0
    for i in range(calls):
        x = _clip(i * 0.01 - 2.0, 0.0, 3.0)
        s += x * 0.5 if x > 1.0 else -x
    v = []
    for i in range(items):
        t = (i % 17) * 0.3
        v.append(math.sqrt(t * t + 1.0) + abs(t - 2.0))
    v.sort()
    return s + v[-1]


class SpeedSampler:
    """Context manager; ``samples`` holds the reference-loop times of the region."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def overhead_s(self) -> float:
        """Time spent in the reference loops, to subtract from the region's wall time."""
        return sum(self.samples)

    def in_refs(self, wall_s: float) -> float:
        """The region's own time (``wall_s`` less the samples) in mean reference loops."""
        if not self.samples:
            raise RuntimeError("no speed sample: the timed region was shorter than "
                               f"{self.interval_s} s")
        return (wall_s - self.overhead_s) / statistics.fmean(self.samples)
