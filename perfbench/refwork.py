"""A fixed slice of pure-Python work that tracks the speed of the host.

During a pass, `Probe` times one slice at the start, one every
PROBE_EVERY_S seconds from a SIGALRM handler (so also in the middle of a
long job), and one at the end.  The benchmark scales every job's time by
NOMINAL_S over the mean time of the slices taken just before, during and
just after it.  On a shared host whose speed drifts by tens of percent,
this removes much of the drift from the reported times.  The slice uses
only the standard library (Fraction products in a dict keyed by exponent
tuples, and an integer loop, like the scalar and monomial work of
`invar`), so no change to `invar` can alter it.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter, process_time

# Wall time of one slice on the host the bounds were set on (2-core
# x86-64 VM, Python 3.11.7); it only fixes the scale of the results.
NOMINAL_S = 0.06
PROBE_EVERY_S = 1.0

_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(12) for j in range(12 - i)}


def work():
    out = {}
    for m1, c1 in _POLY.items():
        for m2, c2 in _POLY.items():
            m = (m1[0] + m2[0], m1[1] + m2[1])
            out[m] = out.get(m, 0) + c1 * c2
    x = 0
    for i in range(400_000):
        x = (x * 31 + i) % 1000003
    return len(out), x


def timed():
    """(wall s, cpu s) of one slice."""
    w, c = perf_counter(), process_time()
    work()
    return perf_counter() - w, process_time() - c


class Probe:
    """Reference slices timed during a pass; use as a context manager.
    With periodic=False only the explicit `sample()` calls take slices.

    `slices` holds (wall s, cpu s) per slice; `spent_wall` and
    `spent_cpu` add up the time the slices took, which the caller
    subtracts from the time of the job they interrupted."""

    def __init__(self, periodic=True):
        self.periodic = periodic
        self.slices = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._busy = False
        self._old_handler = None

    def sample(self, *_signal_args):
        if self._busy:
            return
        self._busy = True
        try:
            w, c = timed()
            self.slices.append((w, c))
            self.spent_wall += w
            self.spent_cpu += c
        finally:
            self._busy = False

    def __enter__(self):
        if self.periodic:
            self._old_handler = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)
        return False
