"""Timing that is steady on a host whose speed changes.

Shared 2-core hosts change speed by up to 1.6x, between runs and within a
run, for seconds at a time (frequency scaling, neighbours on the same
cores).  A fixed pure-Python loop slows down by the same factor as the
library, so the runner samples that loop every ``INTERVAL_S`` seconds from
a ``SIGALRM`` handler while it measures.  Each job's time is its wall time
minus the handler time spent inside it, scaled by
``REFERENCE_S / (mean loop time around the job)``: times are reported in
seconds at the host speed at which the loop takes ``REFERENCE_S``.  The
raw wall times are kept alongside.
"""

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.010
INTERVAL_S = 0.25


def reference_loop():
    """Fixed scalar and container work, like the library's inner loops."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 3000):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        table[i % 31] = (acc, i)
    return acc


class Calibrator:
    """Samples the reference loop; use as a context manager around a loop."""

    def __init__(self):
        self.samples = []  # (start, duration) of each reference loop
        self.previous = None

    def sample(self):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self.sample()
        self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.sample()

    def paused(self, t0, t1):
        """Time the handler spent inside the interval [t0, t1]."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def scale(self, t0, t1):
        """REFERENCE_S over the mean loop time within INTERVAL_S of [t0, t1]."""
        near = [d for s, d in self.samples
                if t0 - INTERVAL_S <= s <= t1 + INTERVAL_S]
        if not near:
            near = [min(self.samples, key=lambda sd: abs(sd[0] - t0))[1]]
        return REFERENCE_S / statistics.fmean(near)

    def job_time(self, t0, t1):
        """(calibrated seconds, raw seconds) of a job that ran over [t0, t1]."""
        raw = t1 - t0 - self.paused(t0, t1)
        return raw * self.scale(t0, t1), raw
