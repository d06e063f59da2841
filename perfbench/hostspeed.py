"""Host-speed sampler: corrects timings for contention from other tenants.

On a shared host the speed at which this process executes drifts by
±20 % over seconds to minutes, even though the process is never
descheduled (CPU time equals wall time).  The sampler runs a fixed
reference kernel from a ``SIGALRM`` handler every ``INTERVAL_S`` seconds
and records how long it took.  ``correct(t0, t1)`` scales a wall-clock
interval by the reference kernel's nominal time over its mean time
measured in and around that interval: the result is the interval's
length at nominal host speed.  The kernel exercises what gluecat spends
its time on: interpreted Python and many small NumPy calls.  The mean,
not the median, is used because the kernel's times are bimodal on a
shared core, and the mean follows the share of time spent in each mode.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

import numpy as np

INTERVAL_S = 0.05
NOMINAL_S = 0.0004        # fixed reference time of one kernel call; sets the scale
MIN_SAMPLES = 40          # about 2 s of samples: smooths the estimate for short intervals

_P = 32003
_MATRIX = ((np.arange(16 * 24, dtype=np.int64) * 48271 + 11) ** 2 % 2147483647 % _P).reshape(16, 24)


def kernel() -> int:
    """Row-reduce a fixed 16x24 matrix over GF(p), one pivot at a time."""
    a = _MATRIX.copy()
    rank = 0
    for c in range(a.shape[1]):
        if rank == a.shape[0]:
            break
        nonzero = np.flatnonzero(a[rank:, c])
        if not nonzero.size:
            continue
        pivot = rank + int(nonzero[0])
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), _P - 2, _P) % _P
        factors = a[:, c].copy()
        factors[rank] = 0
        a = (a - np.outer(factors, a[rank])) % _P
        rank += 1
    return rank


class HostSpeed:
    def __init__(self):
        self.stamps = array("d")     # end time of each sample
        self.times = array("d")      # kernel duration of each sample

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.times.append(t1 - t0)

    def start(self):
        for _ in range(MIN_SAMPLES):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(MIN_SAMPLES):
            self._sample()

    def mean(self) -> float:
        return statistics.fmean(self.times)

    def correct(self, t0: float, t1: float) -> float:
        """Length of [t0, t1], less the samples taken in it, at nominal host speed."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        busy = (t1 - t0) - sum(self.times[lo:hi])
        # widen to the nearest samples until there are enough
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.stamps)):
            lo, hi = max(0, lo - 1), min(len(self.stamps), hi + 1)
        return busy * NOMINAL_S / statistics.fmean(self.times[lo:hi])
