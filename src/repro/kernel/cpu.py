"""CPU topology for the SMP simulation (docs/SMP.md).

A :class:`Kernel` boots with ``cpus=N`` simulated CPUs (see
:mod:`repro.kernel.boot`).  Each CPU owns a :class:`Cpu` record — its
runqueue, its current task, and its runqueue lock — kept by the
scheduler.  The simulation stays cooperative: exactly one CPU executes
Python code at any moment (:attr:`Clock.cpu`, the "camera"), and
parallelism is *accounted* through the per-CPU local clocks rather than
executed — see the merge rule in :mod:`repro.kernel.clock`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.locks import SpinLock
    from repro.kernel.process import Task

class Cpu:
    """Per-CPU scheduler state: one runqueue, one current task.

    The runqueue lock (``runqueue_lock``, one instance per CPU sharing a
    lockdep class) is only created on SMP kernels; its cycle cost is
    subsumed by ``context_switch`` so taking it charges nothing — what it
    buys is lockdep coverage of the SMP lock hierarchy, including the
    ordered double acquisition work stealing performs.
    """

    __slots__ = ("id", "runqueue", "current", "last_switch", "rq_lock")

    def __init__(self, cid: int):
        self.id = cid
        self.runqueue: list[Task] = []
        self.current: Task | None = None
        #: local-clock timestamp of the last context switch on this CPU.
        self.last_switch = 0
        self.rq_lock: SpinLock | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cur = self.current.pid if self.current is not None else None
        return f"Cpu({self.id}, rq={len(self.runqueue)}, current={cur})"
