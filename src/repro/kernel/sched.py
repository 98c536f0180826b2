"""Preemptive scheduler with per-CPU runqueues, stealing, and watchdog hooks.

The simulation is cooperative (syscalls run inline), so "preemption" here
means: at preemption points (syscall dispatch, long in-kernel loops such as
Cosy compound execution), the scheduler checks whether the quantum expired
and, if so, charges a context switch, flushes the TLB, and runs the
registered *preempt hooks*.

Cosy's safety design (§2.3) hangs off exactly this mechanism: "a preemptive
kernel ... checks the running time of a Cosy process inside the kernel every
time it is scheduled out", killing compounds that exceed their kernel-time
budget.  The Cosy kernel extension registers such a hook.

SMP (docs/SMP.md): each simulated CPU owns a :class:`~repro.kernel.cpu.Cpu`
record with its own runqueue and current task.  Tasks are placed on the CPU
of the spawning context by default (so single-flow workloads never leave
cpu0 and stay bit-identical to the pre-SMP kernel) or pinned explicitly.
``switch_to`` a task on another CPU moves the *camera* — the executing-CPU
index on the clock — to that CPU; if the task is already that CPU's current
task the switch charges nothing, which is how cross-CPU parallelism is
accounted.  When a CPU's runqueue drains at a preemption point, it pulls
work from the most-loaded CPU (deterministic idle-balance stealing: victim
chosen by load then lowest id, locks taken in CPU-id order).  Cross-CPU
enqueues and wakeups send resched IPIs that charge both the sender and the
target CPU's local clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.kernel.clock import Mode
from repro.kernel.cpu import Cpu
from repro.kernel.interrupts import IRQ_DISPATCH_COST
from repro.kernel.process import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel

PreemptHook = Callable[[Task], None]


class WaitQueue:
    """A kernel wait queue head (``wait_queue_head_t``).

    Blocking socket operations sleep here until the NIC's softirq delivery
    makes their condition true.  The simulation is cooperative, so
    :meth:`sleep` does not transfer control to other Python code; it charges
    the performance-visible effect of blocking — being scheduled away and
    back (two context switches plus the TLB refill) — and the caller
    re-checks its wake condition in a loop, exactly like the kernel's
    ``wait_event`` macro re-tests its expression after every wakeup.

    Poll entries are epoll's ``ep_poll_callback``: each is a
    ``(ready_set, fd)`` pair, and every wakeup adds ``fd`` to its
    ``ready_set``.  That is free in simulated cycles, like the wakeup.
    """

    #: poll entries; a queue gets its own list on its first entry, so
    #: the many queues nobody polls carry none
    polls: list[tuple[set[int], int]] | None = None

    def __init__(self, kernel: "Kernel", name: str = "?"):
        self.kernel = kernel
        self.name = name
        self.waiters = 0
        self.sleeps = 0
        self.wakeups = 0

    def sleep(self, site: str = "?") -> None:
        """Block the current task until the next :meth:`wake_all`."""
        kernel = self.kernel
        task = kernel.current
        ld = kernel.lockdep
        if ld is not None:
            ld.might_sleep(site, what=f"sleeping on wait queue '{self.name}'")
        tracer = kernel.trace
        traced = tracer.enabled
        if traced:
            tracer.begin("sched:block", "sched", wq=self.name, site=site,
                         pid=task.pid if task is not None else None)
        self.sleeps += 1
        self.waiters += 1
        if task is not None:
            task.state = TaskState.BLOCKED
        kernel.clock.charge(2 * kernel.costs.context_switch)
        kernel.mmu.flush_tlb()
        kernel.sched.count_switches(2)
        # ...woken: back on the CPU with the condition worth re-checking.
        self.waiters -= 1
        if task is not None:
            task.state = TaskState.RUNNING
        if traced:
            tracer.end()

    def wake_all(self, site: str = "?") -> None:
        """Mark the queue's condition changed (wake_up_interruptible)."""
        self.wakeups += 1
        if self.polls:
            self.notify_polls()
        tracer = self.kernel.trace
        if tracer.enabled:
            tracer.instant("sched:wakeup", "sched", wq=self.name, site=site)

    def notify_polls(self) -> None:
        """Feed the poll entries only, for a readiness change no sleeper
        waits on (the owner's shutdown or close, room in a full peer
        buffer): no wakeup is counted or traced."""
        for ready, fd in self.polls or ():
            ready.add(fd)

    def add_poll(self, ready: set[int], fd: int) -> None:
        if self.polls is None:
            self.polls = []
        self.polls.append((ready, fd))

    def remove_poll(self, ready: set[int], fd: int) -> None:
        # match the set by identity: two epolls' ready sets may be equal
        self.polls = [(r, f) for r, f in self.polls or ()
                      if r is not ready or f != fd]


class Scheduler:
    """Round-robin scheduler over per-CPU runqueues."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        ncpus = kernel.ncpus
        self.ncpus = ncpus
        self.cpus: list[Cpu] = [Cpu(c) for c in range(ncpus)]
        if ncpus > 1:
            from repro.kernel.locks import SpinLock
            for cpu in self.cpus:
                # Zero-cost: the rq critical section is priced into
                # context_switch; the lock exists for lockdep coverage.
                cpu.rq_lock = SpinLock(kernel, "runqueue_lock", charge=False)
        self.preempt_hooks: list[PreemptHook] = []
        # sched.* counters live in per-CPU metrics shards (summed classic
        # view); the attribute names below stay read-compatible.
        metrics = kernel.metrics
        self._switches = metrics.percpu_counter(
            "sched.context_switches", help="context switches (all causes)")
        self._preempts = metrics.percpu_counter(
            "sched.preemptions", help="expired-quantum preemption points")
        self._steals = metrics.percpu_counter(
            "sched.steals", help="tasks pulled from another CPU's runqueue")
        self._ipis = metrics.percpu_counter(
            "sched.ipis", help="resched IPIs sent between CPUs")
        #: kernel-wide READY->RUNNING scheduling delay.  Always-on: the
        #: observations are pure clock arithmetic (zero simulated cost)
        #: and must be identical traced or untraced so same-seed scenario
        #: runs stay bit-identical.  Delays are measured on the *global*
        #: clock (total work done machine-wide between ready and run),
        #: which is monotonic across CPUs where local clocks are not —
        #: at cpus=1 it equals the literal wall delay.
        self._delay_hist = metrics.histogram(
            "sched.delay", help="READY->RUNNING scheduling delay (cycles)")

    # ---------------------------------------------------------- classic view

    @property
    def context_switches(self) -> int:
        return self._switches.value

    @property
    def preemptions(self) -> int:
        return self._preempts.value

    @property
    def steals(self) -> int:
        return self._steals.value

    @property
    def ipis(self) -> int:
        return self._ipis.value

    def count_switches(self, n: int) -> None:
        """Account ``n`` context switches to the executing CPU (used by
        wait queues, which charge the away-and-back round trip)."""
        self._switches.inc(n)

    @property
    def current(self) -> Task | None:
        """The task executing on the current CPU (the camera's CPU)."""
        return self.cpus[self.kernel.clock.cpu].current

    @property
    def runqueue(self) -> list[Task]:
        """All runnable tasks.  On a single-CPU kernel this is cpu0's
        actual runqueue (the historical attribute); on SMP it is a merged
        read-only snapshot — mutate through the scheduler API."""
        if self.ncpus == 1:
            return self.cpus[0].runqueue
        return [t for cpu in self.cpus for t in cpu.runqueue]

    # ------------------------------------------------------------- tasks

    def add_task(self, task: Task, cpu: int | None = None) -> None:
        """Enqueue ``task`` on a CPU (default: the spawning context's)."""
        clock = self.kernel.clock
        c = clock.cpu if cpu is None else cpu
        if not 0 <= c < self.ncpus:
            raise ValueError(f"cpu {c} out of range [0, {self.ncpus})")
        task.cpu = c
        st = self.cpus[c]
        if st.rq_lock is not None:
            # The lock covers the runqueue list only; current-task handoff
            # happens outside it (lockdep attributes holds to the task
            # executing at acquire time, which must match at release).
            with st.rq_lock.guard("sched:add_task"):
                st.runqueue.append(task)
        else:
            st.runqueue.append(task)
        if st.current is None:
            st.current = task
            task.state = TaskState.RUNNING
        else:
            # Enqueued behind a running task: the wakeup-latency clock
            # starts now and stops when switch_to makes it current.
            task.last_ready = clock.now
        if self.ncpus > 1 and c != clock.cpu:
            # Remote enqueue: kick the target CPU to notice the new task.
            self.send_ipi(c, reason="enqueue")

    def remove_task(self, task: Task) -> None:
        task.state = TaskState.ZOMBIE
        st = self.cpus[getattr(task, "cpu", 0)]
        if task in st.runqueue:
            st.runqueue.remove(task)
        if st.current is task:
            st.current = st.runqueue[0] if st.runqueue else None

    def switch_to(self, task: Task) -> None:
        """Explicit context switch (charges full switch cost, flushes TLB).

        Switching to a task on *another* CPU moves the camera there; if
        the task is already that CPU's current task nothing is charged —
        it was running in parallel all along and execution simply resumes
        from its side (docs/SMP.md).
        """
        kernel = self.kernel
        clock = kernel.clock
        c = getattr(task, "cpu", 0)
        st = self.cpus[c]
        if c != clock.cpu:
            clock.set_cpu(c)
            if task is st.current:
                tracer = kernel.trace
                if tracer.enabled:
                    tracer.instant("sched:camera", "sched", cpu=c,
                                   pid=task.pid)
                return
        elif task is st.current:
            return
        prev = st.current
        if prev is not None:
            prev.state = TaskState.READY
            prev.last_ready = clock.now
        kernel.clock.charge(kernel.costs.context_switch)
        kernel.mmu.flush_tlb()
        self._switches.inc()
        tracer = kernel.trace
        if tracer.enabled:
            tracer.complete("sched:switch", "sched",
                            kernel.costs.context_switch,
                            prev=prev.pid if prev is not None else None,
                            next=task.pid)
            tracer.counter(f"sched.runqueue.cpu{c}", len(st.runqueue))
            tracer.counter("mmu.tlb_misses", kernel.mmu.tlb_misses)
        st.current = task
        task.state = TaskState.RUNNING
        st.last_switch = clock.local_now()
        self._note_scheduled(task, clock)

    def _note_scheduled(self, task: Task, clock) -> None:
        """Record ``task``'s READY->RUNNING delay: into the kernel-wide
        ``sched.delay`` histogram, the task's own (tenant SLO) histogram
        if one is attached, and the wakeup tracer's witness while traced."""
        t0 = task.last_ready
        if t0 is None:
            return
        task.last_ready = None
        delay = clock.now - t0
        self._delay_hist.observe(delay)
        h = task.sched_delay
        if h is not None:
            h.observe(delay)
        if self.kernel.trace.enabled:
            self.kernel.prof.sched_wakeup(task, delay)

    # ----------------------------------------------------------------- SMP

    def send_ipi(self, target: int, reason: str = "resched") -> None:
        """One inter-processor interrupt: the sender pays the APIC write,
        the target pays the interrupt dispatch on its own local clock."""
        kernel = self.kernel
        clock = kernel.clock
        if self.ncpus == 1 or target == clock.cpu:
            return
        clock.charge(kernel.costs.ipi, Mode.SYSTEM)
        with clock.on_cpu(target):
            clock.charge(IRQ_DISPATCH_COST, Mode.SYSTEM)
        self._ipis.inc()
        tracer = kernel.trace
        if tracer.enabled:
            tracer.instant("sched:ipi", "sched", target=target, reason=reason)

    def balance(self) -> Task | None:
        """Idle-balance entry point: if the executing CPU has no spare
        READY task, try to steal one.  Returns the migrated task."""
        st = self.cpus[self.kernel.clock.cpu]
        return self._idle_balance(st)

    def _spare_ready(self, st: Cpu) -> int:
        """READY tasks on ``st`` beyond its current one (stealable load)."""
        return sum(1 for t in st.runqueue
                   if t is not st.current and t.state == TaskState.READY)

    def _idle_balance(self, st: Cpu) -> Task | None:
        """Pull one READY task from the most-loaded other CPU.

        Fully deterministic: the victim is the CPU with the most spare
        READY tasks (ties broken by lowest id), the migrated task is the
        first READY one in the victim's queue order, and the two runqueue
        locks are taken in CPU-id order (the second acquisition carries a
        lockdep subclass, the blessed same-class nesting).
        """
        if self.ncpus == 1:
            return None
        kernel = self.kernel
        victim = None
        best = 0
        for other in self.cpus:
            if other is st:
                continue
            spare = self._spare_ready(other)
            if spare > best:
                victim, best = other, spare
        if victim is None:
            return None
        first, second = (st, victim) if st.id < victim.id else (victim, st)
        assert first.rq_lock is not None and second.rq_lock is not None
        with first.rq_lock.guard("sched:steal"):
            with second.rq_lock.guard("sched:steal", subclass=1):
                stolen = next((t for t in victim.runqueue
                               if t is not victim.current
                               and t.state == TaskState.READY), None)
                if stolen is None:
                    return None
                victim.runqueue.remove(stolen)
                stolen.cpu = st.id
                st.runqueue.append(stolen)
        kernel.clock.charge(kernel.costs.task_migration, Mode.SYSTEM)
        self._steals.inc()
        tracer = kernel.trace
        if tracer.enabled:
            tracer.instant("sched:steal", "sched", src=victim.id, dst=st.id,
                           pid=stolen.pid)
        return stolen

    # --------------------------------------------------------- preemption

    def add_preempt_hook(self, hook: PreemptHook) -> None:
        self.preempt_hooks.append(hook)

    def remove_preempt_hook(self, hook: PreemptHook) -> None:
        self.preempt_hooks.remove(hook)

    def maybe_preempt(self) -> bool:
        """Preemption point.  Returns True if the quantum expired.

        Hooks run with the outgoing task — this is the moment the Cosy
        watchdog examines the task's in-kernel time.

        The simulation executes tasks cooperatively (workload code *is* the
        current task), so an expired quantum does not hand control to other
        Python code; instead, when other tasks are runnable on this CPU,
        the full cost of being scheduled away and back — two context
        switches and the TLB refill — is charged here, which is the
        performance-visible effect of timesharing.  Explicit transfers use
        :meth:`switch_to`.  On SMP, a CPU whose runqueue has drained uses
        the expired quantum to idle-balance (steal) instead.
        """
        kernel = self.kernel
        clock = kernel.clock
        st = self.cpus[clock.cpu]
        now = clock.local_now()
        tracer = kernel.trace
        if tracer.enabled:
            # preemptoff tracer: each visit here is a preemption
            # opportunity; the gap since the previous one is how long
            # this CPU could not reschedule.
            kernel.prof.preempt_point(clock.cpu, now)
        # Injected "preemption": the quantum is treated as already expired.
        forced = kernel.faults.should_fail("sched.preempt", "tick") is not None
        if not forced and now - st.last_switch < kernel.costs.sched_quantum:
            return False
        traced = tracer.enabled
        if traced:
            tracer.begin("sched:preempt", "sched", forced=forced)
        try:
            kernel.clock.charge(kernel.costs.sched_tick)
            self._preempts.inc()
            task = st.current
            if task is not None:
                for hook in list(self.preempt_hooks):
                    hook(task)
            others_ready = any(t is not task and t.state == TaskState.READY
                               for t in st.runqueue)
            if others_ready:
                kernel.clock.charge(2 * kernel.costs.context_switch)
                kernel.mmu.flush_tlb()
                self._switches.inc(2)
            elif self.ncpus > 1:
                self._idle_balance(st)
            st.last_switch = clock.local_now()
        finally:
            if traced:
                tracer.end()
        return True

    def preempt_slack(self) -> int:
        """Cycles the executing CPU can still run before its quantum can
        expire.  Until then a :meth:`maybe_preempt` that only this CPU's
        own work separates from the last one does nothing, so a caller
        that counts its work may skip it.  0 while something observes
        every point: the preemptoff tracer, or an armed ``sched.preempt``
        injection, which counts every consultation."""
        kernel = self.kernel
        if kernel.trace.enabled or kernel.faults.armed("sched.preempt"):
            return 0
        clock = kernel.clock
        left = (self.cpus[clock.cpu].last_switch + kernel.costs.sched_quantum
                - clock.local_now())
        return max(left, 0)
