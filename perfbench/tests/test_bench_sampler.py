"""The host-speed sampler times its slice while other code runs, then leaves no timer.

``run.py`` divides every pass's wall time by the sampler's mean slice time,
so a sampler that never fired, or kept firing after the pass, would skew or
break every time the benchmark reports.
"""

import signal
import time

import worker


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampler_fires_during_the_work_and_stops_after():
    with worker.HostSampler() as sampler:
        busy(0.5)
    # One slice on entry, one on exit, and one per period in between.
    assert len(sampler.samples) >= 2 + 0.5 / worker.SAMPLE_PERIOD_S - 3
    assert all(s > 0 for s in sampler.samples)
    assert sampler.mean() == sum(sampler.samples) / len(sampler.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    count = len(sampler.samples)
    busy(0.2)
    assert len(sampler.samples) == count
