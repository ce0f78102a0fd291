"""The host-speed reference loop and the correction of timed work by it.

The test host is a shared 2-vCPU guest.  It runs a pure-Python process at
a speed that changes with the load of other guests: a fixed loop takes 1x
to 2x its fastest time, in bursts of seconds and in slow periods of
minutes.  Wall times of the same code therefore differ by tens of percent
from run to run.  Work measured on one host only has a steady time once it
is expressed at a fixed host speed.

:func:`reference` is a fixed mix of small Fraction additions and dict
updates, the kinds of work crprolong's hot paths do, sharing no code with
crprolong.
:class:`HostSpeed` times it before every unit and, through a timer signal,
every ``TICK_S`` seconds while a unit runs.  A unit's corrected time is

    program seconds * mean of (NOMINAL_S / reference seconds) around the unit

where the program seconds are the unit's wall time less the time spent in
the reference loop, and ``NOMINAL_S`` is the loop's time on an idle host.
The ticks sample the host speed evenly in time, so their mean is the
unit's average speed; the speed often flips between two levels within a
long unit, where a median would pick one of them.
A change to crprolong moves the program seconds and leaves the reference
alone, so corrected times move with the program and not with the host.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# the reference loop's time on an idle test host (Intel Xeon 2.0 GHz)
NOMINAL_S = 0.0014
# seconds between reference samples while a unit runs
TICK_S = 0.1
# reference samples taken right before each unit and after each pass
PRE_SAMPLES = 5
# reference samples this close to a unit's start or end describe it too
MARGIN_S = 0.25


def reference() -> float:
    """Seconds taken by 300 Fraction additions and 4500 dict updates (about 1.4 ms).

    A slow host slows a loop of Fraction additions alone more than it slows
    crprolong (time grew with the loop's to the power 0.86 in a log-log fit
    against ``verify_theorem`` at k=12); with the dict updates, which take
    the other half of the time, the power was 0.97.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 301):
        acc += Fraction(1, i % 97 + 1)
    table = {}
    for i in range(4500):
        key = i * 31 % 257
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter() - t0


class HostSpeed:
    """Reference samples taken through a run, and corrected unit times.

    Use as a context manager: inside it a timer signal samples the
    reference every ``TICK_S`` seconds.  ``spent`` is the total time taken
    by sampling, so a caller subtracts the part that fell inside a timed
    interval.
    """

    def __init__(self):
        self.samples = []  # (perf_counter at the end of the sample, seconds)
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def sample(self, n: int = 1):
        if self._busy:
            return
        self._busy = True
        try:
            for _ in range(n):
                t0 = time.perf_counter()
                seconds = reference()
                t1 = time.perf_counter()
                self.samples.append((t1, seconds))
                self.spent += t1 - t0
        finally:
            self._busy = False

    def _tick(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float) -> float:
        """Mean host speed from ``start`` to ``end``: NOMINAL_S / reference seconds."""
        return statistics.fmean(
            NOMINAL_S / s for t, s in self.samples if start - MARGIN_S <= t <= end + MARGIN_S
        )
