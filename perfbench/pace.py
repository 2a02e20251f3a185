"""The machine's speed, sampled while a call runs, and times scaled to it.

On a host of 2 shared vCPUs the same work takes up to twice as long in
one second as in the next, and the drift is shared by both vCPUs and by
every process on them: it comes from the host's other tenants.  Rounds
and medians cannot remove a drift that lasts as long as a run.  So every
time the benchmark reports is scaled to a reference speed:

    scaled = measured * REFERENCE_S / (mean time of the reference loop)

The reference loop is fixed pure-Python work of the kind vlplus does
(Fractions, small ints, dicts and tuples), run in the same process as
the call being timed: once before it, every PERIOD_S seconds while it runs
(from a SIGALRM handler, between bytecodes), and once after it.  The
handler's own time is taken out of the call's time.  A scaled time reads
as seconds at the speed at which the reference loop takes REFERENCE_S; it
moves with the program's work, not with its neighbours'.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# the reference loop's median time on 2 shared vCPUs, over 3,600 passes
# back to back (5.9 ms, rounded); any fixed value would do, this one keeps
# scaled times close to the seconds measured there
REFERENCE_S = 0.0060
PERIOD_S = 0.2


def reference_loop() -> float:
    """Time one pass of the fixed reference work, in seconds."""
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict[tuple, int] = {}
    for i in range(1, 1200):
        acc += Fraction(i % 13 - 6, i % 7 + 1)
        key = (i % 31, i % 5)
        table[key] = table.get(key, 0) + i * i
    if acc.denominator == 0 or not table:  # keeps the work observable
        raise AssertionError
    return time.perf_counter() - start


class Pace:
    """Samples the reference loop before, during and after a call.

    ``spent`` is the time the samples took since start(): a caller takes it
    out of the time it measures.  Use only in a process that owns SIGALRM,
    such as a forked child.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        self._sample()

    def start(self) -> None:
        self._sample()
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()

    def scale(self) -> float:
        """The factor that turns a time measured since start() into a scaled one."""
        return REFERENCE_S / statistics.fmean(self.samples)


def reference_time() -> float:
    """Mean of two passes, for a caller to take before and after what it times."""
    return statistics.fmean(reference_loop() for _ in range(2))
