"""Tasks (processes) and per-task user memory.

A :class:`Task` owns an address space, a file-descriptor table, and the
kernel-time accounting the Cosy watchdog consumes.  :class:`UserMemory`
gives each task a demand-paged heap and stack so user buffers passed to
syscalls are real simulated memory — uaccess copies move actual bytes, and
the C-subset interpreter's pointers are real user virtual addresses.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.errors import EMFILE, OutOfMemory, raise_errno
from repro.kernel.memory.layout import PAGE_SIZE, vpn_of
from repro.kernel.memory.paging import AddressSpace, PERM_R, PERM_W, PTE

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.vfs.file import File

USER_HEAP_BASE = 0x0800_0000
USER_HEAP_END = 0x4000_0000
USER_STACK_TOP = 0xBFFF_0000
USER_STACK_LIMIT = 0xB000_0000
USER_SHARED_BASE = 0x5000_0000   # Cosy shared buffers are mapped here
USER_SHARED_END = 0x7000_0000

RLIMIT_NOFILE = 1024


class TaskState(enum.Enum):
    RUNNING = "running"
    READY = "ready"
    BLOCKED = "blocked"
    ZOMBIE = "zombie"


class UserMemory:
    """Demand-paged user heap/stack/shared regions for one task."""

    def __init__(self, kernel: "Kernel", aspace: AddressSpace):
        self.kernel = kernel
        self.aspace = aspace
        self._heap_brk = USER_HEAP_BASE
        self._stack_ptr = USER_STACK_TOP
        self._shared_cursor = USER_SHARED_BASE
        self._free: dict[int, list[int]] = {}
        self.live: dict[int, int] = {}  # addr -> size

    def _ensure_mapped(self, addr: int, size: int, perms: int = PERM_R | PERM_W) -> None:
        vpn = vpn_of(addr)
        last = vpn_of(addr + max(size, 1) - 1)
        while vpn <= last:
            if self.aspace.user_pt.lookup(vpn) is None:
                frame = self.kernel.physmem.alloc_frame()
                self.aspace.user_pt.map(vpn, PTE(frame, perms=perms, user=True))
            vpn += 1

    # ----------------------------------------------------------- heap

    def malloc(self, size: int) -> int:
        """User-level malloc: 16-byte-aligned bump allocation with freelists."""
        if size <= 0:
            raise ValueError("malloc of non-positive size")
        bucket = (size + 15) & ~15
        free = self._free.get(bucket)
        if free:
            addr = free.pop()
        else:
            addr = self._heap_brk
            self._heap_brk += bucket
            if self._heap_brk > USER_HEAP_END:
                raise OutOfMemory("user heap exhausted")
            self._ensure_mapped(addr, bucket)
        self.live[addr] = bucket
        return addr

    def free(self, addr: int) -> None:
        bucket = self.live.pop(addr, None)
        if bucket is None:
            raise OutOfMemory(f"free of unallocated user address {addr:#x}")
        self._free.setdefault(bucket, []).append(addr)

    # ----------------------------------------------------------- stack

    def push_frame(self, size: int) -> int:
        """Reserve a stack frame, returning its (lowest) address."""
        aligned = (size + 15) & ~15
        self._stack_ptr -= aligned
        if self._stack_ptr < USER_STACK_LIMIT:
            raise OutOfMemory("user stack overflow")
        self._ensure_mapped(self._stack_ptr, aligned)
        return self._stack_ptr

    def pop_frame(self, size: int) -> None:
        self._stack_ptr += (size + 15) & ~15
        if self._stack_ptr > USER_STACK_TOP:
            raise RuntimeError("user stack underflow")

    @property
    def stack_pointer(self) -> int:
        return self._stack_ptr

    # ---------------------------------------------------------- shared

    def map_shared(self, nbytes: int) -> int:
        """Map a page-aligned region shared with the kernel (Cosy buffers).

        The same frames are mapped at a user address *and* reachable through
        the kernel's direct access path, so data written by the kernel is
        visible to the user without a copy — the §2.3 zero-copy mechanism.
        """
        npages = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
        addr = self._shared_cursor
        self._shared_cursor += npages * PAGE_SIZE
        if self._shared_cursor > USER_SHARED_END:
            raise OutOfMemory("shared-map region exhausted")
        self._ensure_mapped(addr, npages * PAGE_SIZE)
        return addr


class Task:
    """One process; its pid is the next of its kernel's."""

    def __init__(self, kernel: "Kernel", name: str):
        self.kernel = kernel
        self.pid = kernel.next_pid
        kernel.next_pid += 1
        self.name = name
        self.state = TaskState.READY
        #: CPU whose runqueue holds this task (docs/SMP.md); assigned by
        #: Scheduler.add_task, updated when work stealing migrates it.
        self.cpu = 0
        self.aspace = AddressSpace(kernel.kernel_pt)
        self.mem = UserMemory(kernel, self.aspace)
        self.fds: dict[int, "File"] = {}
        #: per-task descriptor-table limit (setrlimit-style; server tasks
        #: raising it is how 10⁴-client benchmarks stay within POSIX rules).
        self.rlimit_nofile = RLIMIT_NOFILE
        self._next_fd = 0  # invariant: the lowest free descriptor
        self.cwd = None  # set to the root dentry when the task first runs
        # Accounting consumed by the scheduler/watchdog (§2.3).
        self.kernel_entry_cycles: int | None = None
        self.kernel_time_used = 0
        self.syscall_count = 0
        # Per-task time attribution (getrusage-style), filled by dispatch.
        self.utime = 0
        self.stime = 0
        #: scenario tenant tag ("" = untagged); the scenario runner sets
        #: it so profiler samples and scheduling-delay SLOs group by tenant.
        self.tenant = ""
        #: global-clock stamp of the last READY transition (None = not
        #: waiting); consumed by Scheduler._note_scheduled.
        self.last_ready: int | None = None
        #: optional scheduling-delay histogram shared with the tenant's
        #: SLO record (repro.analysis.slo.TenantSlo.sched_delay).
        self.sched_delay = None

    # ------------------------------------------------------ fd management

    def alloc_fd(self, file: "File") -> int:
        """Install a file at the lowest free descriptor (POSIX rule).

        Amortized O(1): ``_next_fd`` tracks the lowest free slot, so a
        server holding thousands of open connections does not rescan its
        whole table per accept.
        """
        fd = self._next_fd
        if fd >= self.rlimit_nofile:
            raise_errno(EMFILE, "fd table full")
        self.fds[fd] = file
        nxt = fd + 1
        while nxt in self.fds:
            nxt += 1
        self._next_fd = nxt
        return fd

    def get_file(self, fd: int) -> "File | None":
        return self.fds.get(fd)

    def release_fd(self, fd: int) -> "File | None":
        if fd in self.fds and fd < self._next_fd:
            self._next_fd = fd
        return self.fds.pop(fd, None)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Task(pid={self.pid}, name={self.name!r}, state={self.state.value})"
