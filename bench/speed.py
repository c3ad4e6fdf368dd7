"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine with 2 vCPUs (Intel Xeon) the speed of the
machine swings by up to 1.9x within seconds, and the process's own CPU
time swings with it, so raw times of identical requests spread wider
than any useful bound.  A probe running on the other core does not follow
those swings; a probe running in the requesting thread does.

So the runner times a fixed reference computation -- the probe, which
uses no spinbeam code -- in the thread that sends the requests: once
before every request, and every ``INTERVAL`` seconds from a ``SIGALRM``
handler while a request runs.  The probes inside a request split it
into pieces; a request's calibrated latency is the sum of its pieces,
each scaled by ``REFERENCE_S`` over the median probe time within
``WINDOW`` seconds of it: the latency the request would have had on a
machine that runs the probe in ``REFERENCE_S``.  The speed changes
within a fraction of a second, so the window is short: on the reference
machine, repeats of one request spread about half as much with a 0.1 s
window as with a 0.5 s one.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# the probe's time on this benchmark's reference machine, in its fast state
REFERENCE_S = 2.0e-3
INTERVAL = 0.05
WINDOW = 0.1

_X = np.linspace(0.1, 30.0, 4000)


def _probe_work() -> float:
    """Whole-array numpy transcendentals and an interpreted loop, in about
    equal shares.  Measured over 6 s windows on the reference machine, the
    time of spinbeam's field, figure and verify work moves with this
    probe's time at a slope of 0.9 to 1 (log against log); a probe made of
    many small numpy calls over-reacted at a slope near 1.4."""
    acc = 0.0
    for i in range(12):
        acc += float((np.sin(_X * (1 + i)) * np.exp(-_X / 7.0) + np.sqrt(_X)).sum())
    t = 0.0
    for _ in range(18000):
        t = (t * 1.000001 + 0.25) % 7.0
    return acc + t


class Probe:
    """Probe times, by start time, for one run."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._previous = None

    def sample(self) -> float:
        start = time.perf_counter()
        _probe_work()
        took = time.perf_counter() - start
        self.at.append(start)
        self.took.append(took)
        return took

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        """Warm the probe up, then sample every INTERVAL seconds until ``stop``."""
        for _ in range(5):
            _probe_work()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median probe time within WINDOW of [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW)
        hi = bisect.bisect_right(self.at, t1 + WINDOW)
        if hi - lo < 2:
            # too few probes in the window: take the nearest ones either side
            i = bisect.bisect_left(self.at, t0)
            lo, hi = max(0, i - 2), min(len(self.at), i + 2)
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def calibrated(self, t0: float, t1: float) -> float:
        """Time of [t0, t1] at the reference speed.  The probes inside the
        interval are left out and split it into pieces, and each piece is
        scaled by the probes around it, so a long request follows the speed
        changes within it."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        total, start = 0.0, t0
        for k in range(lo, hi):
            total += (self.at[k] - start) * self.scale(start, self.at[k])
            start = self.at[k] + self.took[k]
        return total + (t1 - start) * self.scale(start, t1)
