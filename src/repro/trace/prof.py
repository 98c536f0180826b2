"""ftrace-family latency tracers (``repro.trace.prof``).

The tracer's exact span-stack attribution
(:meth:`repro.trace.Attribution.folded`) answers "which code path spent
the cycles".  These tracers answer "how long did something wait, and
what was running at the worst moment":

* **wakeup** — READY→RUNNING scheduling delay.  Its distribution is the
  scheduler's always-on ``sched.delay`` histogram; this tracer adds the
  max-latency witness (task, CPU and span stack at the worst case).
* **irqsoff** — length of each outermost IRQ-disabled section per CPU.
* **preemptoff** — gap between consecutive scheduler preemption points.
* **per-syscall latency** — trap-to-return cycles per syscall name.

They run whenever the kernel's tracer is enabled (``kernel.trace.enable()``
or ``REPRO_TRACE=1``), and their per-CPU open sections restart with each
tracing window.  Like the tracer, nothing here ever charges the simulated
clock — every hook only *reads* it — so a traced run lands on
bit-identical user/system/iowait counts (``tests/trace/test_prof.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.trace.metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel


class MaxWitness:
    """Worst case seen by one latency tracer: the max plus its context."""

    __slots__ = ("cycles", "ts", "cpu", "pid", "task", "stack")

    def __init__(self) -> None:
        self.cycles = -1
        self.ts = 0
        self.cpu = 0
        self.pid: int | None = None
        self.task = ""
        self.stack: tuple = ()

    def offer(self, cycles: int, ts: int, cpu: int, pid: int | None,
              task: str, stack: tuple) -> None:
        if cycles <= self.cycles:
            return
        self.cycles = cycles
        self.ts = ts
        self.cpu = cpu
        self.pid = pid
        self.task = task
        self.stack = stack

    def to_dict(self) -> dict:
        return {"cycles": max(self.cycles, 0), "ts": self.ts,
                "cpu": self.cpu, "pid": self.pid, "task": self.task,
                "stack": list(self.stack)}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MaxWitness({self.cycles} cyc @{self.ts} cpu{self.cpu})"


class LatencyTracers:
    """Per-kernel wakeup/irqsoff/preemptoff/syscall latency tracers.

    The hook sites call in only while ``kernel.trace.enabled``; the
    tracer's :meth:`~repro.trace.Tracer.enable` calls :meth:`reset`.
    """

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.clock = kernel.clock
        self.ncpus = kernel.ncpus
        self.wakeup_max = MaxWitness()
        self.irqsoff = Histogram(
            "prof.irqsoff", help="IRQ-disabled section length (cycles)")
        self.irqsoff_max = MaxWitness()
        self._irq_off_since: list[int | None] = [None] * self.ncpus
        self.preemptoff = Histogram(
            "prof.preemptoff", help="gap between preemption points (cycles)")
        self.preemptoff_max = MaxWitness()
        self._last_preempt_point: list[int | None] = [None] * self.ncpus
        #: per-syscall latency histograms, keyed by syscall name
        self.syscall_lat: dict[str, Histogram] = {}
        self.syscall_nrs: dict[str, int] = {}
        kernel.trace.on_enable.append(self.reset)

    def reset(self) -> None:
        """Forget sections opened under an earlier tracing window."""
        for c in range(self.ncpus):
            self._irq_off_since[c] = None
            self._last_preempt_point[c] = None

    # --------------------------------------------------- latency tracer hooks

    def _offer(self, witness: MaxWitness, cycles: int, cpu: int, now: int,
               task) -> None:
        """Record a new worst case; callers first check that ``cycles``
        beats it, so the common case builds no context."""
        witness.offer(cycles, now, cpu,
                      task.pid if task is not None else None,
                      task.name if task is not None else "(idle)",
                      self.kernel.trace.stack_of(cpu))

    def sched_wakeup(self, task, delay: int) -> None:
        """Scheduler hook: ``task`` just went READY→RUNNING after
        ``delay`` cycles on the runqueue."""
        if delay > self.wakeup_max.cycles:
            cpu = self.clock.cpu
            self._offer(self.wakeup_max, delay, cpu,
                        self.clock.local_now(cpu), task)

    def irq_disabled(self, cpu: int, now: int) -> None:
        """IRQ hook: disable depth went 0→1 on ``cpu``."""
        self._irq_off_since[cpu] = now

    def irq_enabled(self, cpu: int, now: int) -> None:
        """IRQ hook: disable depth went 1→0 on ``cpu``."""
        start = self._irq_off_since[cpu]
        if start is None:
            return
        self._irq_off_since[cpu] = None
        dur = now - start
        self.irqsoff.observe(dur)
        if dur > self.irqsoff_max.cycles:
            self._offer(self.irqsoff_max, dur, cpu, now,
                        self.kernel.sched.cpus[cpu].current)

    def preempt_point(self, cpu: int, now: int) -> None:
        """Scheduler hook: a preemption opportunity on ``cpu``.  The gap
        since the previous one is how long preemption was impossible."""
        last = self._last_preempt_point[cpu]
        self._last_preempt_point[cpu] = now
        if last is None:
            return
        dur = now - last
        self.preemptoff.observe(dur)
        if dur > self.preemptoff_max.cycles:
            self._offer(self.preemptoff_max, dur, cpu, now,
                        self.kernel.sched.cpus[cpu].current)

    def observe_syscall(self, name: str, nr: int, cycles: int) -> None:
        """Dispatch hook: one syscall took ``cycles`` (trap to return)."""
        h = self.syscall_lat.get(name)
        if h is None:
            h = self.syscall_lat[name] = Histogram(f"prof.syscall.{name}")
            self.syscall_nrs[name] = nr
        h.observe(cycles)

    # -------------------------------------------------------------- queries

    def to_dict(self) -> dict:
        """JSON-ready summary (benchmarks embed this next to attribution)."""
        from repro.analysis.slo import latency_summary
        return {
            "wakeup_delay": latency_summary(
                self.kernel.metrics.get("sched.delay")),
            "wakeup_max": self.wakeup_max.to_dict(),
            "irqsoff": latency_summary(self.irqsoff),
            "irqsoff_max": self.irqsoff_max.to_dict(),
            "preemptoff": latency_summary(self.preemptoff),
            "preemptoff_max": self.preemptoff_max.to_dict(),
            "syscalls": {
                name: dict(latency_summary(h), nr=self.syscall_nrs[name])
                for name, h in sorted(self.syscall_lat.items())},
        }
