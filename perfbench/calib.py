"""Host-speed calibration.

The speed of a shared host drifts: the same pure-Python loop can run 1.7x
faster or slower from one second to the next, which is far more than the
changes a benchmark has to resolve.  So while a worker measures, a SIGALRM
timer runs a fixed pure-Python kernel (``Fraction`` arithmetic and dict
updates, like germforge's own inner loops) every ``PERIOD_S`` seconds and
records how long it took.  A span measured with ``Sampler.clock`` excludes
the kernel's own time; multiplied by ``Sampler.factor`` of its wall span it
becomes seconds at the reference speed, at which the kernel takes ``REF_S``:

    normalized = raw * mean(REF_S / kernel duration, over the span)

The host alternates between a fast and a slow state within a second or
less, so a long span is a mix of both: the mean speed over the span, not
the median, is what scales its work.  A short span takes the nearest few
samples.

A program change does not move the kernel, so it moves normalized times as
it moves raw ones; host drift moves both the span and the kernel, and
cancels.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
# Typical kernel duration on an Intel Xeon (2 vCPU VM); only scales the
# normalized figures, so that they read as seconds on that host.
REF_S = 0.001
MIN_SAMPLES = 3


def kernel():
    total = Fraction(0)
    table = {}
    for k in range(1, 100):
        total += Fraction(1, k % 97 + 1) * Fraction(k % 13 + 1, 7)
        key = (k % 37, k % 11)
        table[key] = table.get(key, 0) + k
    return total


class Sampler:
    def __init__(self):
        self.ends = []  # perf_counter() when each kernel run ended
        self.durations = []
        self.spent = 0.0  # total kernel time

    def _tick(self, _signum=None, _frame=None):
        # no collection inside the kernel: its cost grows with the job's
        # heap, which would leak the program's memory use into the samples
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self, n):
        """Run the kernel n times now (outside any timed span)."""
        for _ in range(n):
            self._tick()

    def clock(self):
        """perf_counter() minus the kernel time spent so far."""
        return time.perf_counter() - self.spent

    def factor(self, t0, t1):
        """Mean of REF_S / kernel duration over the samples that ended in the
        wall span [t0, t1], widened until it holds MIN_SAMPLES of them."""
        if not self.durations:
            raise RuntimeError("no calibration samples")
        pad = 0.0
        while True:
            near = [d for e, d in zip(self.ends, self.durations)
                    if t0 - pad <= e <= t1 + pad]
            if len(near) >= min(MIN_SAMPLES, len(self.durations)):
                return statistics.fmean(REF_S / d for d in near)
            pad += PERIOD_S

    def summary(self):
        d = sorted(self.durations)
        return {"samples": len(d), "median_s": statistics.median(d),
                "p10_s": d[len(d) // 10], "p90_s": d[9 * len(d) // 10]}
