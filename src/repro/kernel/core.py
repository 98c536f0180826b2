"""The :class:`Kernel`: wiring for the whole simulated machine.

One ``Kernel`` is one booted machine: clock + cost model, physical memory,
the shared kernel page table and MMU, the kmalloc/vmalloc allocators, a GDT,
the VFS, the scheduler, the syscall interface, syslog, and the event-hook
socket the §3.3 monitoring framework plugs into.

Typical setup::

    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("app")
    fd = k.sys.open("/hello", O_CREAT | O_WRONLY)
    k.sys.write(fd, b"hi")
    k.sys.close(fd)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.cminus.compile import CodeCache
from repro.kernel.boot import BootConfig
from repro.kernel.clock import Clock
from repro.kernel.costs import DEFAULT_COSTS, CostModel
from repro.kernel.faultinject import FaultRegistry, arm_schedule
from repro.kernel.interrupts import IrqController
from repro.kernel.locks import SpinLock
from repro.kernel.memory.kmalloc import KmallocAllocator
from repro.kernel.memory.mmu import MMU
from repro.kernel.memory.paging import PageTable
from repro.kernel.memory.physmem import PhysicalMemory
from repro.kernel.memory.vmalloc import VmallocAllocator
from repro.kernel.process import Task
from repro.kernel.sched import Scheduler
from repro.kernel.segments import SegmentTable
from repro.kernel.syscalls.interface import SyscallInterface
from repro.kernel.syslog import KERN_INFO, Syslog
from repro.kernel.vfs.namei import VFS
from repro.kernel.vfs.super import SuperBlock
from repro.safety.lockdep import LockdepValidator
from repro.trace import LatencyTracers, MetricsRegistry, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.net.syscalls import SocketLayer
    from repro.kernel.uring.layer import UringLayer

#: signature of the event hook: (obj, event_type, site) — see §3.3.
EventHook = Callable[[Any, int, str], None]


class KmallocFacade:
    """Adapter giving Wrapfs-style modules a malloc/free view of kmalloc."""

    def __init__(self, kernel: "Kernel"):
        self._kernel = kernel

    def malloc(self, size: int, site: str = "?") -> int:
        return self._kernel.kmalloc.kmalloc(size, site)

    def free(self, addr: int) -> None:
        self._kernel.kmalloc.kfree(addr)


class Kernel:
    """A booted simulated machine."""

    def __init__(self, costs: CostModel | None = None,
                 ram_bytes: int = 884 * 1024 * 1024,
                 lockdep: bool | None = None,
                 cpus: int | None = None):
        boot = BootConfig.resolve(cpus, lockdep)
        self.costs = costs if costs is not None else DEFAULT_COSTS
        #: simulated CPU count (docs/SMP.md).  cpus=1 is bit-identical to
        #: the pre-SMP machine; cpus>1 adds per-CPU runqueues, local
        #: clocks, softirq contexts, allocator magazines, and metrics
        #: shards.
        self.ncpus = boot.cpus
        self.clock = Clock(hz=self.costs.hz, cpus=self.ncpus)
        #: kernel-wide metrics registry (repro.trace): the one namespace the
        #: subsystem counters (TLB, code cache, epoll, failpoints) live in.
        #: Clock-aware so per-CPU counter shards follow the executing CPU.
        self.metrics = MetricsRegistry(clock=self.clock)
        #: kernel-wide tracepoint engine (repro.trace); disabled by default,
        #: and free (one attribute check per tracepoint) while disabled.
        self.trace = Tracer(self.clock)
        #: ftrace-style latency tracers (docs/PROFILING.md): they run
        #: while the tracer is enabled and, like it, only ever *read* the
        #: clock.
        self.prof = LatencyTracers(self)
        self.syslog = Syslog(clock=self.clock, tracer=self.trace)
        #: kernel-wide failpoint registry; dormant until an injection arms it.
        self.faults = FaultRegistry(self, metrics=self.metrics)
        #: lock dependency validator (repro.safety.lockdep); None = compiled
        #: out (every hook site is a None-check, zero cycles).  A strict
        #: one raises LockdepError at the first violation.
        self.lockdep = None if boot.lockdep == "off" else \
            LockdepValidator(self, strict=boot.lockdep == "strict")
        #: compile-time-style switch: newly created refcounts emit events
        #: when it is set (the §3.3 "instrumented kernel" build).
        self.instrument_all_refcounts = False
        #: CPU interrupt-enable state (local_irq_save/restore nesting).
        self.irq = IrqController(self)
        self.physmem = PhysicalMemory(ram_bytes)
        self.kernel_pt = PageTable()
        self.mmu = MMU(self.physmem, self.clock, self.costs,
                       tracer=self.trace, metrics=self.metrics)
        self.kmalloc = KmallocAllocator(self.physmem, self.kernel_pt,
                                        self.clock, self.costs,
                                        faults=self.faults)
        self.vmalloc = VmallocAllocator(self.physmem, self.kernel_pt,
                                        self.clock, self.costs, mmu=self.mmu,
                                        faults=self.faults)
        # The allocators are built from pieces (no kernel reference), so
        # their freelist locks are attached here, post-construction.
        self.kmalloc.lock = SpinLock(self, "kmalloc_lock")
        self.vmalloc.lock = SpinLock(self, "vmalloc_lock")
        if self.ncpus > 1:
            # SMP: per-CPU kmalloc magazines front the shared freelists.
            self.kmalloc.enable_magazines(self.ncpus)
        self.gdt = SegmentTable()
        #: kernel-wide cache of closure-compiled C-minus programs, keyed by
        #: (program, instrumentation generation) — see repro.cminus.compile.
        self.code_cache = CodeCache(metrics=self.metrics)
        self.vfs = VFS(self)
        self.sched = Scheduler(self)
        self.sys = SyscallInterface(self)
        self.kma = KmallocFacade(self)
        self.tasks: list[Task] = []
        #: pids count from 1 in every kernel, however many one process boots
        self.next_pid = 1
        #: event dispatcher socket (§3.3); None = instrumentation compiled out.
        self.event_hook: EventHook | None = None
        #: set by SocketLayer and UringLayer when they install their syscalls
        self.socket_layer: SocketLayer | None = None
        self.uring_layer: UringLayer | None = None
        if boot.fault_seed is not None:
            arm_schedule(self.faults, boot.fault_seed)
        # Tracing must not move the simulated clock by a single cycle.
        if boot.trace:
            self.trace.enable()
        self.printk(KERN_INFO, "kernel booted")

    # ------------------------------------------------------------- plumbing

    @property
    def current(self) -> Task | None:
        return self.sched.current

    def spawn(self, name: str, cpu: int | None = None) -> Task:
        """Create a task and put it on a runqueue.

        Default placement is the CPU of the spawning context, so a
        single-flow workload stays on cpu0 exactly as before SMP; pass
        ``cpu=`` to pin (sharded benchmarks spread their workers).
        """
        task = Task(self, name)
        task.cwd = self.vfs.root
        self.tasks.append(task)
        self.sched.add_task(task, cpu=cpu)
        return task

    def exit_task(self, task: Task) -> None:
        for fd in list(task.fds):
            file = task.fds.pop(fd)
            file.inode.release_file(file)
            file.inode.i_count.put("exit")
        self.sched.remove_task(task)

    def mount_root(self, sb: SuperBlock):
        root = self.vfs.mount_root(sb)
        for task in self.tasks:
            if task.cwd is None:
                task.cwd = root
        return root

    def printk(self, level: int, message: str) -> None:
        self.syslog.printk(level, message)   # syslog stamps Clock.now itself

    # ------------------------------------------------------ event hook (§3.3)

    def log_event(self, obj: Any, event_type: int, site: str = "?") -> None:
        """The kernel-wide ``log_event`` call of Figure 1.

        With no dispatcher attached this is free — matching a kernel built
        without instrumentation; the monitor framework attaches a dispatcher
        to make events observable.
        """
        hook = self.event_hook
        if hook is None:
            return
        hook(obj, event_type, site)

    def attach_event_dispatcher(self, hook: EventHook) -> None:
        if self.event_hook is not None:
            raise RuntimeError("an event dispatcher is already attached")
        self.event_hook = hook

    def detach_event_dispatcher(self) -> None:
        self.event_hook = None

    # ----------------------------------------------------------- measurement

    def measure(self):
        """Context manager measuring elapsed/system/user over a block::

            with k.measure() as m:
                workload()
            print(m.timings.elapsed)
        """
        return _Measurement(self)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Kernel(cycles={self.clock.now}, tasks={len(self.tasks)}, "
                f"syscalls={self.sys.total_syscalls})")


class _Measurement:
    """Result holder for :meth:`Kernel.measure`."""

    def __init__(self, kernel: Kernel):
        self._kernel = kernel
        self.timings = None
        self.delta = None
        self.copies = None

    def __enter__(self):
        self._clock_snap = self._kernel.clock.snapshot()
        self._copy_snap = self._kernel.sys.ucopy.stats.snapshot()
        self._syscalls0 = self._kernel.sys.total_syscalls
        return self

    def __exit__(self, *exc):
        from repro.kernel.clock import Timings
        self.delta = self._kernel.clock.since(self._clock_snap)
        self.timings = Timings.from_delta(self._kernel.clock, self.delta)
        self.copies = self._kernel.sys.ucopy.stats.since(self._copy_snap)
        self.syscalls = self._kernel.sys.total_syscalls - self._syscalls0
        return False
