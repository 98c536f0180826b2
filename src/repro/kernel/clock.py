"""Virtual cycle clock with user/system/I-O-wait accounting.

Every performance number in the paper is a wall-clock ("elapsed"), "system",
or "user" time.  The simulator reproduces that three-way split: all work is
charged to the :class:`Clock` in CPU cycles tagged with an execution
:class:`Mode`, and elapsed time is the sum of all three buckets (at
``cpus=1``, the paper's single-CPU P4 testbed).

The clock also drives the scheduler's preemption checks and the Cosy
kernel-time watchdog: both register *deadlines* and poll :meth:`Clock.now`.

SMP time model (docs/SMP.md)
----------------------------
With ``cpus > 1`` the clock keeps one *local* counter triple per CPU next
to the global totals, and :attr:`cpu` names the CPU currently executing
(the simulation is cooperative, so exactly one CPU runs Python code at a
time; the others are "running" work whose cycles were already charged to
their local counters).  The merge rule:

* every charge lands in the global bucket **and** the executing CPU's
  local bucket, so ``now`` (the global sum) equals the sum of all local
  times — the total work done, as if serialized;
* :meth:`local_now` is one CPU's position on the wall — all CPUs start
  at 0 and advance independently;
* :attr:`wall_now` is the *frontier*: ``max(local_now(c))``, the
  simulated wall-clock time of the whole machine.  Aggregate speedup of
  a sharded workload is ``now / wall_now``.

At ``cpus=1`` the per-CPU counters are not allocated, ``local_now() ==
wall_now == now``, and every code path is bit-identical to the pre-SMP
clock.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Mode(enum.Enum):
    """Which accounting bucket a charge lands in."""

    USER = "user"        # cycles spent executing application code
    SYSTEM = "system"    # cycles spent inside the kernel
    IOWAIT = "iowait"    # cycles the CPU idles waiting for the disk


# Hot paths compare modes against these module globals: reading a member
# through the class (``Mode.SYSTEM``) goes through ``EnumType.__getattr__``
# on CPython 3.11, about ten times the cost of a global load (docs/PERF.md).
USER, SYSTEM, IOWAIT = Mode.USER, Mode.SYSTEM, Mode.IOWAIT


@dataclass
class ClockSnapshot:
    """Immutable copy of the clock's counters, for interval measurements."""

    user: int
    system: int
    iowait: int

    @property
    def elapsed(self) -> int:
        return self.user + self.system + self.iowait


class Clock:
    """Monotonic virtual cycle counter.

    Parameters
    ----------
    hz:
        Simulated CPU frequency, used only to convert cycles to seconds for
        reporting.  Defaults to the paper's 1.7 GHz Pentium 4.
    cpus:
        Number of simulated CPUs.  ``1`` (the default) keeps the original
        single-CPU accounting untouched; ``>1`` additionally shards every
        charge into the executing CPU's local counters.
    """

    def __init__(self, hz: float = 1.7e9, cpus: int = 1):
        if cpus < 1:
            raise ValueError(f"need at least one CPU, got {cpus}")
        self.hz = float(hz)
        self.cpus = int(cpus)
        #: index of the CPU currently executing (the "camera"); charges land
        #: in this CPU's local counters.  Moved by the scheduler and by
        #: per-CPU softirq processing.
        self.cpu = 0
        self.user = 0
        self.system = 0
        self.iowait = 0
        self._mode_stack: list[Mode] = [Mode.USER]
        if self.cpus > 1:
            self._pc_user: list[int] | None = [0] * self.cpus
            self._pc_system: list[int] | None = [0] * self.cpus
            self._pc_iowait: list[int] | None = [0] * self.cpus
        else:
            # Single CPU: no shards, local time degenerates to global time.
            self._pc_user = self._pc_system = self._pc_iowait = None

    # ------------------------------------------------------------- charging

    @property
    def mode(self) -> Mode:
        """The current execution mode (top of the mode stack)."""
        return self._mode_stack[-1]

    def charge(self, cycles: int, mode: Mode | None = None) -> None:
        """Advance time by ``cycles``, charged to ``mode`` (default: current).

        Cycles must be non-negative; zero-cost charges are permitted so call
        sites do not need to special-case disabled cost-model entries.
        """
        if cycles < 0:
            raise ValueError(f"negative charge: {cycles}")
        m = mode or self._mode_stack[-1]
        if m is SYSTEM:
            self.system += cycles
            if self._pc_system is not None:
                self._pc_system[self.cpu] += cycles
        elif m is USER:
            self.user += cycles
            if self._pc_user is not None:
                self._pc_user[self.cpu] += cycles
        else:
            self.iowait += cycles
            if self._pc_iowait is not None:
                self._pc_iowait[self.cpu] += cycles

    def charge_system(self, cycles: int) -> None:
        """:meth:`charge` with ``Mode.SYSTEM`` pre-resolved — the
        per-op/per-batch accounting hot path of the C-minus engines."""
        if cycles < 0:
            raise ValueError(f"negative charge: {cycles}")
        self.system += cycles
        if self._pc_system is not None:
            self._pc_system[self.cpu] += cycles

    def push_mode(self, mode: Mode) -> None:
        """Enter an execution mode (e.g. USER→SYSTEM on a trap)."""
        self._mode_stack.append(mode)

    def pop_mode(self) -> Mode:
        """Leave the current mode; the base USER mode can never be popped."""
        if len(self._mode_stack) == 1:
            raise RuntimeError("cannot pop the base execution mode")
        return self._mode_stack.pop()

    class _ModeCtx:
        def __init__(self, clock: "Clock", mode: Mode):
            self._clock, self._mode = clock, mode

        def __enter__(self):
            self._clock.push_mode(self._mode)
            return self._clock

        def __exit__(self, *exc):
            self._clock.pop_mode()
            return False

    def in_mode(self, mode: Mode) -> "_ModeCtx":
        """Context manager form of push/pop for exception safety."""
        return Clock._ModeCtx(self, mode)

    # --------------------------------------------------------- CPU identity

    def set_cpu(self, cpu: int) -> None:
        """Move execution (the charge destination) to ``cpu``."""
        if not 0 <= cpu < self.cpus:
            raise ValueError(f"cpu {cpu} out of range [0, {self.cpus})")
        self.cpu = cpu

    class _CpuCtx:
        def __init__(self, clock: "Clock", cpu: int):
            self._clock, self._cpu = clock, cpu
            self._prev = clock.cpu

        def __enter__(self):
            self._prev = self._clock.cpu
            self._clock.set_cpu(self._cpu)
            return self._clock

        def __exit__(self, *exc):
            self._clock.cpu = self._prev
            return False

    def on_cpu(self, cpu: int) -> "_CpuCtx":
        """Temporarily execute on ``cpu`` (per-CPU softirq processing)."""
        return Clock._CpuCtx(self, cpu)

    # ------------------------------------------------------------ reporting

    @property
    def now(self) -> int:
        """Total elapsed cycles (sum over all CPUs: the serialized total)."""
        return self.user + self.system + self.iowait

    def local_now(self, cpu: int | None = None) -> int:
        """One CPU's local time (default: the executing CPU).

        At ``cpus=1`` this is :attr:`now`; at ``cpus>1`` it is that CPU's
        position on the simulated wall clock.
        """
        if self._pc_user is None:
            return self.user + self.system + self.iowait
        c = self.cpu if cpu is None else cpu
        assert self._pc_system is not None and self._pc_iowait is not None
        return self._pc_user[c] + self._pc_system[c] + self._pc_iowait[c]

    @property
    def wall_now(self) -> int:
        """Simulated wall-clock time: the frontier ``max(local_now(c))``."""
        if self._pc_user is None:
            return self.user + self.system + self.iowait
        return max(self.local_now(c) for c in range(self.cpus))

    def local_snapshot(self, cpu: int | None = None) -> ClockSnapshot:
        """Immutable copy of one CPU's local counters."""
        if self._pc_user is None:
            return ClockSnapshot(self.user, self.system, self.iowait)
        c = self.cpu if cpu is None else cpu
        assert self._pc_system is not None and self._pc_iowait is not None
        return ClockSnapshot(self._pc_user[c], self._pc_system[c],
                             self._pc_iowait[c])

    def percpu(self) -> list[ClockSnapshot]:
        """Per-CPU local counter snapshots (length :attr:`cpus`)."""
        return [self.local_snapshot(c) for c in range(self.cpus)]

    def snapshot(self) -> ClockSnapshot:
        return ClockSnapshot(self.user, self.system, self.iowait)

    def since(self, snap: ClockSnapshot) -> ClockSnapshot:
        """Counter deltas since ``snap``."""
        return ClockSnapshot(
            self.user - snap.user, self.system - snap.system, self.iowait - snap.iowait
        )

    def seconds(self, cycles: int) -> float:
        """Convert a cycle count to seconds at the simulated frequency."""
        return cycles / self.hz

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Clock(user={self.user}, system={self.system}, "
            f"iowait={self.iowait}, mode={self.mode.value})"
        )


@dataclass
class Timings:
    """Elapsed/system/user seconds, as the paper reports them."""

    elapsed: float
    system: float
    user: float
    iowait: float = 0.0

    @staticmethod
    def from_delta(clock: Clock, delta: ClockSnapshot) -> "Timings":
        return Timings(
            elapsed=clock.seconds(delta.elapsed),
            system=clock.seconds(delta.system),
            user=clock.seconds(delta.user),
            iowait=clock.seconds(delta.iowait),
        )

    def improvement_over(self, baseline: "Timings") -> "dict[str, float]":
        """Percentage improvement of ``self`` relative to ``baseline``
        (positive = ``self`` is faster), per bucket, as the paper quotes."""

        def pct(new: float, old: float) -> float:
            return 0.0 if old == 0 else 100.0 * (old - new) / old

        return {
            "elapsed": pct(self.elapsed, baseline.elapsed),
            "system": pct(self.system, baseline.system),
            "user": pct(self.user, baseline.user),
        }

    def overhead_over(self, baseline: "Timings") -> "dict[str, float]":
        """Percentage overhead of ``self`` relative to ``baseline``
        (positive = ``self`` is slower)."""

        def pct(new: float, old: float) -> float:
            return 0.0 if old == 0 else 100.0 * (new - old) / old

        return {
            "elapsed": pct(self.elapsed, baseline.elapsed),
            "system": pct(self.system, baseline.system),
            "user": pct(self.user, baseline.user),
        }
