"""Host-speed sampling, and request times adjusted for it.

On a shared host the speed of pure-Python code swings by a factor of up to
two within seconds, and its average drifts over minutes, as other tenants
come and go.  Raw times of the same pass then differ by more than any
bound a benchmark could hold a change to.  So while requests run, a timer
interrupts the pass every ``PERIOD_S`` and times one fixed ``kernel``
(dictionary counting and ``Fraction`` sums, the kind of work the package
does).  A request's time is then scaled by ``REFERENCE_S`` over the
kernel's mean duration around that request: the result is the time the
request would take on a host where one kernel call takes ``REFERENCE_S``.
The kernel's own time is subtracted first.

The kernel is part of the benchmark, never of the package, so it costs the
same on every commit; the scale only removes the host's share of a change.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

clock = time.perf_counter

PERIOD_S = 0.05
REFERENCE_S = 500e-6  # a round figure near one kernel call on a 2.0 GHz Xeon core
WINDOW_S = 0.25  # kernel samples this close to a request describe its speed


def kernel():
    counts = {}
    for i in range(600):
        key = (i * 7919) % 61
        counts[key] = counts.get(key, 0) + 1
    total = Fraction(0)
    for k in range(1, 81):
        total += Fraction(k, k + 3)
    return sorted(counts.items()), total


class Sampler:
    """Times ``kernel`` on every SIGALRM while installed."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _on_alarm(self, signum, frame):
        # The kernel's allocations must not set off a collection of the
        # program's objects, which would bill the program's GC to the kernel.
        collecting = gc.isenabled()
        gc.disable()
        start = clock()
        kernel()
        self.samples.append((start, clock() - start))
        if collecting:
            gc.enable()

    def install(self) -> None:
        self._on_alarm(None, None)  # a sample even if the pass ends within a period
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)


def adjust(timings: list[list], samples: list[list]) -> list[tuple[float, float]]:
    """(latency, cycle) of each request, in seconds on the reference host.

    ``timings`` holds [key, start, end, done] per request: the call runs from
    start to end, its check from end to done.  ``samples`` holds the kernel
    samples of the same pass as [start, duration], in time order.
    """
    starts = [t for t, _ in samples]
    durations = [d for _, d in samples]
    fallback = statistics.mean(durations)

    def kernel_time(lo: float, hi: float) -> float:
        return sum(durations[bisect.bisect_left(starts, lo):bisect.bisect_left(starts, hi)])

    adjusted = []
    for _, start, end, done in timings:
        near = durations[bisect.bisect_left(starts, start - WINDOW_S):
                         bisect.bisect_right(starts, done + WINDOW_S)]
        scale = REFERENCE_S / (statistics.mean(near) if near else fallback)
        latency = end - start - kernel_time(start, end)
        cycle = done - start - kernel_time(start, done)
        adjusted.append((latency * scale, cycle * scale))
    return adjusted
