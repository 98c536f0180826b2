"""Host seconds at a steady machine speed.

The benchmark's host shares its CPUs with other machines' work, so the
speed at which the same Python code runs drifts by a quarter over
minutes and jumps for seconds at a time.  :class:`SteadyClock` measures
that speed *while* the timed code runs: a timer signal interrupts the
process every ``INTERVAL_S`` and times a fixed pure-Python loop that
shares no code with the system under test.  An interval's steady
seconds are its host seconds minus the probes' own time, scaled by how
much slower or faster the probes ran than ``NOMINAL_PROBE_S``.

Process CPU time is no substitute: the host slows the process down
without descheduling it, so ``time.process_time`` drifts exactly as
much as the wall clock does (``bench/README.md`` has the measurement).
"""

from __future__ import annotations

import signal
import time

#: time between speed probes
INTERVAL_S = 0.02
#: iterations of one probe's loop
PROBE_LOOPS = 15_000
#: host seconds one probe takes at the speed steady seconds are counted
#: in (about what it takes on an idle 2-core Xeon sandbox)
NOMINAL_PROBE_S = 0.001


class SteadyClock:
    """Speed probes on ``SIGALRM``, and the intervals they scale."""

    def __init__(self) -> None:
        #: (start, duration) of every probe, in ``time.perf_counter`` time
        self.probes: list[tuple[float, float]] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        self.probes.append((start, time.perf_counter() - start))

    def start(self) -> None:
        """Probe once now, so there is always a speed to scale by, then
        every ``INTERVAL_S``."""
        self._probe(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def seconds(self, begin: float, end: float) -> float:
        """Steady seconds of the host interval ``[begin, end)``.  An
        interval too short to hold a probe takes the speed of them all;
        :meth:`start` makes sure there is at least one."""
        inside = [d for t, d in self.probes if begin <= t < end]
        speed_probes = inside or [d for _, d in self.probes]
        speed = NOMINAL_PROBE_S * len(speed_probes) / sum(speed_probes)
        return (end - begin - sum(inside)) * speed
