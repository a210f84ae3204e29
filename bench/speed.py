"""Host time scaled to a reference speed, so end-to-end times are steady.

The 2-vCPU host this benchmark was tuned on runs the same pure-Python code
at anywhere from 1x to over 2x its best time, from one call to the next
and over minutes, as other tenants load it. CPU time tracks wall time, so
the slowdown is not time spent descheduled and cannot be subtracted out.
Host seconds therefore spread by 20-50% between runs of the same code.

A fixed kernel, timed right before, right after and every INTERVAL seconds
during an operation, slows down with the host. So an operation's host
seconds divided by the kernel's mean time over it, times REF_KERNEL_S, stays
nearly the same from run to run. That is its reference seconds: what it
would take on this host at full speed. The kernel runs from a SIGALRM
handler in the main thread, and the time it takes is taken off the
operation's. The kernel is the benchmark's own code, so a change to the
program moves an operation's reference seconds exactly as it moves its host
seconds at a steady host speed.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.05  # seconds between kernel timings inside an operation
# the kernel's time on the 2-vCPU Xeon host above at full speed: the fastest
# it ran there over several minutes was 0.36-0.40 ms
REF_KERNEL_S = 4.0e-4


def kernel() -> float:
    """A small mix of interpreted arithmetic, dict stores and numpy calls."""
    a = np.arange(6.0)
    s = 0.0
    d = {}
    for i in range(2000):
        s += float(a[i % 6]) * 1.5
        d[i % 17] = s
        if i % 50 == 0:
            s += float((a * 2.0).max())
    return s


class Clock:
    """Times calls in host seconds and, when scaling, reference seconds.

    Without scaling (a traced run, pinning) no kernel runs and both times
    are the host seconds.
    """

    def __init__(self, scale: bool):
        self.scale = scale
        self.samples = []  # kernel times
        self.spent = 0.0  # host seconds taken by the kernel and its timing
        self._busy = False

    def __enter__(self):
        if self.scale:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        if self.scale:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, *_signal) -> None:
        if self._busy:  # the timer fired while the kernel ran
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def time(self, call):
        """(result, host seconds, reference seconds) of call()."""
        if not self.scale:
            t0 = time.perf_counter()
            result = call()
            host_s = time.perf_counter() - t0
            return result, host_s, host_s
        self._sample()
        first, spent = len(self.samples) - 1, self.spent
        t0 = time.perf_counter()
        result = call()
        host_s = time.perf_counter() - t0 - (self.spent - spent)
        self._sample()
        speed = statistics.fmean(self.samples[first:])
        return result, host_s, host_s * REF_KERNEL_S / speed
