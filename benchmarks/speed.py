"""Host speed reference for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed changes
by up to about 1.7x for seconds to minutes at a time: a fixed loop
timed back to back takes 0.52 ms for a few seconds, then 0.86 ms, then
0.52 ms again.  Raw wall times of the same code then spread across runs
by more than a regression bound.

``SpeedProbe`` times a fixed piece of reference work -- pure Python and
numpy operations, independent of qcbnn -- every ``INTERVAL_S`` of wall
time while it runs.  An interval timer raises SIGALRM and the handler
samples in the main thread between two bytecodes of the program, so
the samples are spread evenly over long calls too; the process starts
no thread.  Every interval of the program that the benchmark times is
then scaled by ``REFERENCE_S`` over the median reference time within
``WINDOW_S`` of the interval, which gives seconds at the host's
reference speed, and the time the reference work itself took inside
the interval is taken out.  A change to qcbnn moves the program's
intervals and not the reference work, so it moves the scaled times by
the same share as the raw ones.  The correction is not exact: the
program and the reference work do not slow down by quite the same
factor, so scaled times of the same code still spread by a few percent.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05  # wall time between two samples
WINDOW_S = 0.5     # samples this close to an interval set its speed
MIN_SAMPLES = 5    # widen the window to at least this many samples
# sample at the faster speed level of the tuning host (2-vCPU KVM guest
# on a Sapphire Rapids Xeon, Python 3.11, numpy 2.4, OpenBLAS 1 thread)
REFERENCE_S = 6.5e-4

_M = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
_L = np.linspace(-1.0, 1.0, 4096).reshape(64, 64)
_V = np.linspace(0.0, 1.0, 20000)


def reference_work() -> float:
    """Fixed work in the program's mix of interpreter loops, small-array
    and larger-array numpy operations."""
    x = _M
    acc = 0.0
    for k in range(24):
        x = np.tanh(x @ _M * 0.1 + 0.01 * k)
        acc += float(x[0, 0])
    for k in range(1500):
        acc += (k * 0.5) % 3.0
    y = _L
    for _ in range(3):
        y = np.tanh(y @ _L * 0.01)
    return acc + float(np.sin(_V).dot(np.cos(_V))) + float(y[0, 0])


class SpeedProbe:
    """Reference-work samples of one run, in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._spent = [0.0]  # reference time taken before sample i

    def start(self):
        """Sample now and every INTERVAL_S until stop()."""
        self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self._spent.append(self._spent[-1] + t1 - t0)

    def spent(self, a: float, b: float) -> float:
        """Time taken by samples that started inside [a, b)."""
        i, j = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        return self._spent[j] - self._spent[i]

    def scale(self, a: float, b: float) -> float:
        """REFERENCE_S over the median sample near [a, b]."""
        i = bisect.bisect_left(self.starts, a - WINDOW_S)
        j = bisect.bisect_right(self.starts, b + WINDOW_S)
        if j - i < MIN_SAMPLES:
            mid = (i + j) // 2
            i = max(0, mid - MIN_SAMPLES // 2)
            j = min(len(self.starts), i + MIN_SAMPLES)
        return REFERENCE_S / statistics.median(self.durations[i:j])

    def seconds(self, a: float, b: float) -> float:
        """Program time in [a, b] at reference speed."""
        return (b - a - self.spent(a, b)) * self.scale(a, b)

    def raw_seconds(self, a: float, b: float) -> float:
        """Program time in [a, b] at the speed the host ran it."""
        return b - a - self.spent(a, b)
