"""Self-test of the speed sampler behind wall_ref.

    python3 -m pytest perfbench -q
"""
import signal
import time

import pytest

from speed import SpeedSampler


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_samples_during_the_region_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler(interval_s=0.01) as sp:
        t0 = time.perf_counter()
        busy(0.3)
        wall = time.perf_counter() - t0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sp.samples) >= 5
    assert sp.overhead_s == pytest.approx(sum(sp.samples))
    assert 0.0 < sp.overhead_s < wall
    mean = sum(sp.samples) / len(sp.samples)
    assert sp.in_refs(wall) == pytest.approx((wall - sp.overhead_s) / mean)


def test_a_region_without_samples_has_no_speed():
    with SpeedSampler(interval_s=10.0) as sp:
        pass
    with pytest.raises(RuntimeError):
        sp.in_refs(0.001)
