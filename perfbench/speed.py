"""Machine-speed probes for the benchmark's timings.

On the 2-core virtual machine where the baseline in NOTES.md was measured,
the speed changes by up to 40% from one second to the next.  Other
tenants share the host, and the process's own CPU time changes as much as
its wall time.  ``Probe`` samples
that speed while a case runs.  Every ``INTERVAL_S`` of real time, a SIGALRM
handler times a small fixed kernel.  A case's seconds, less the time spent
in the handler, scaled by ``REFERENCE_S / mean sample``, read as seconds on
a machine of the reference speed.  On relations passes this cut the spread
(quartile distance over median, 15 s windows) from 0.17 to 0.02 for the
pass time, and to 0.02-0.03 for the slowest and fastest case.  A kernel
timed only between cases left the single-case figures at 0.07.

The kernel is exact rational arithmetic over ``Fraction`` with a dict,
the same kind of work the package does, and uses nothing from it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# The kernel's typical time on the reference machine (2 cores, Python
# 3.11.7): about 0.9 ms when the host is quiet, 1.3 ms when it is busy.
REFERENCE_S = 0.001
# A step with fewer samples is scaled by its whole pass's samples.
MIN_SAMPLES = 5


def kernel() -> Fraction:
    acc: dict = {}
    x = Fraction(1, 3)
    for i in range(1, 120):
        x = x * Fraction(i, i + 2) + Fraction(1, i)
        acc[i % 7] = acc.get(i % 7, 0) + x
    return sum(acc.values())


def _timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Probe:
    """Context manager: times ``kernel`` once on entry, every INTERVAL_S
    while active, and once on exit, so that even a call of a few
    milliseconds has two samples.  ``handler_s`` is the time spent in the
    samples taken while active, to be taken off the call's time."""

    def __init__(self):
        self.samples: list = []
        self.handler_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        seconds = _timed_kernel()
        self.samples.append(seconds)
        self.handler_s += seconds

    def __enter__(self) -> Probe:
        self.samples = [_timed_kernel()]
        self.handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_timed_kernel())


def scale(samples: list, fallback: list) -> float:
    """Factor from seconds to reference seconds, from ``samples`` or,
    when there are too few, from ``fallback``."""
    if len(samples) < MIN_SAMPLES:
        samples = fallback
    return REFERENCE_S / statistics.mean(samples)
