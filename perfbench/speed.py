"""Contention-corrected timing: the machine's speed, sampled in this thread.

On a shared host the same pass can take up to 2x longer from one minute to
the next, because other tenants slow the core down.  To keep runs taken at
different moments comparable, a SIGALRM timer interrupts the main thread
every SAMPLE_PERIOD_S and times a fixed kernel of two-element numpy
operations, the pattern the library's ODE right-hand sides run.  A timing
multiplied by REFERENCE_KERNEL_S / (mean kernel time while the work ran) is
the time the work takes on an uncontended core: "reference seconds".  A
slower library moves reference seconds just as it moves raw seconds; a
busier host does not.
"""

import signal
import time

import numpy as np

SAMPLE_PERIOD_S = 0.05
REFERENCE_KERNEL_S = 200e-6   # the kernel's time on an uncontended core (its 5th percentile)
MIN_SAMPLES = 10              # fewer samples than this in an interval: use a wider interval


def _kernel(y):
    for _ in range(300):
        y = np.array([y[1], (0.3 - 1.0) * y[0]])
    return y


class Speed:
    """Running sum and count of kernel timings; ``mark`` snapshots them."""

    def __init__(self):
        self.total = 0.0
        self.count = 0
        self.alarm_total = 0.0    # kernel time spent inside timer interrupts only
        self._y = np.array([1.0 + 0.0j, 0.5])

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _kernel(self._y)
        elapsed = time.perf_counter() - start
        self.total += elapsed
        self.count += 1
        if signum is not None:
            self.alarm_total += elapsed

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        """Must run before starting a subprocess: interval timers survive exec."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """Takes one sample, so every interval between two marks holds one."""
        self._sample(None, None)
        return self.total, self.count

    def scale(self, since, until, wider=None):
        """REFERENCE_KERNEL_S over the mean kernel time between two marks.

        Falls back to the interval ``wider`` (a pair of marks) when the
        interval holds fewer than MIN_SAMPLES samples.
        """
        count = until[1] - since[1]
        if count < MIN_SAMPLES and wider is not None:
            return self.scale(*wider)
        return REFERENCE_KERNEL_S * count / (until[0] - since[0])
