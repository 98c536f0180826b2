"""Syscall dispatch: the user/kernel boundary.

Public methods (``read``, ``open``, ...) are what *user programs* call; each
pays the libc-stub cost, the trap cost, and dispatch overhead, then runs the
``do_*`` handler in kernel mode, emits a trace record, and hits a preemption
point.  A data-moving ``do_*`` handler is a ``ksys_*`` kernel body plus its
uaccess copy.  The other entry paths run the same bodies with their own
copy and no trap of their own: the consolidated calls (one path copy), the
Cosy kernel extension (shared-buffer memcpy, one ``cosy_exec`` trap per
compound) and uring SQEs (ring memcpy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ENOMEM, Errno, OutOfMemory, errno_name
from repro.kernel.clock import SYSTEM, USER
from repro.kernel.syscalls.consolidated import ConsolidatedMixin
from repro.kernel.syscalls.dir_ops import DirOpsMixin
from repro.kernel.syscalls.file_ops import FileOpsMixin
from repro.kernel.syscalls.table import syscall_nr
from repro.kernel.syscalls.uaccess import UserCopy

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel


@dataclass(frozen=True)
class SyscallRecord:
    """One traced syscall invocation (the §2.2 strace/audit substitute)."""

    seq: int
    pid: int
    nr: int
    name: str
    args: tuple
    start_cycles: int
    duration_cycles: int
    bytes_to_user: int
    bytes_from_user: int
    errno: int | None

    @property
    def bytes_copied(self) -> int:
        return self.bytes_to_user + self.bytes_from_user


Tracer = Callable[[SyscallRecord], None]


class SyscallInterface(FileOpsMixin, DirOpsMixin, ConsolidatedMixin):
    """The syscall table, bound to one kernel instance."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.ucopy = UserCopy(kernel)
        self.tracers: list[Tracer] = []
        self._seq = 0
        self.total_syscalls = 0

    # ------------------------------------------------------------- tracing

    def add_tracer(self, tracer: Tracer) -> None:
        self.tracers.append(tracer)

    def remove_tracer(self, tracer: Tracer) -> None:
        self.tracers.remove(tracer)

    # ------------------------------------------------------------ dispatch

    def _dispatch(self, name: str, thunk: Callable[[], Any],
                  args: tuple = ()) -> Any:
        kernel = self.kernel
        clock = kernel.clock
        costs = kernel.costs
        task = kernel.current
        if task is None:
            raise RuntimeError("no current task; spawn one before making syscalls")
        tracer = kernel.trace
        traced = tracer.enabled
        if traced:
            tracer.begin("syscall:" + name, "syscall", pid=task.pid)
        # User-side stub (libc wrapper, register setup, errno handling).
        clock.charge(costs.user_syscall_stub, USER)
        task.utime += costs.user_syscall_stub
        start = clock.now
        start_system = clock.system
        copy_snap = self.ucopy.stats.snapshot()
        # Trap into the kernel.
        clock.charge_system(costs.syscall_trap)
        errno: int | None = None
        task.syscall_count += 1
        self.total_syscalls += 1
        clock.push_mode(SYSTEM)
        try:
            clock.charge(costs.syscall_dispatch)
            if traced:
                # The boundary-crossing quantum: libc stub + trap +
                # dispatch, all charged since the span opened.
                tracer.complete("syscall:boundary", "boundary",
                                costs.user_syscall_stub + costs.syscall_trap
                                + costs.syscall_dispatch)
            try:
                result = thunk()
            except Errno as e:
                errno = e.errno
                raise
            except OutOfMemory as e:
                # Allocation failure inside a handler surfaces to user space
                # as -ENOMEM, never as a bare kernel exception type.
                errno = ENOMEM
                raise Errno(ENOMEM, errno_name(ENOMEM), str(e)) from e
        finally:
            clock.pop_mode()
            task.stime += clock.system - start_system
            if traced:
                # per-syscall-number latency histogram: trap to return
                kernel.prof.observe_syscall(name, syscall_nr(name),
                                            clock.now - start)
            if self.tracers:
                delta = self.ucopy.stats.since(copy_snap)
                self._seq += 1
                record = SyscallRecord(
                    seq=self._seq, pid=task.pid, nr=syscall_nr(name), name=name,
                    args=args, start_cycles=start,
                    duration_cycles=clock.now - start,
                    bytes_to_user=delta.to_user_bytes,
                    bytes_from_user=delta.from_user_bytes, errno=errno,
                )
                for t in self.tracers:
                    t(record)
            kernel.sched.maybe_preempt()
            if traced:
                tracer.end(errno=errno)
        return result

    # ---------------------------------------------------- public syscalls
    # Thin wrappers: name + args summary for the tracer, body in do_*.

    def open(self, path: str, flags: int = 0, mode: int = 0o644) -> int:
        return self._dispatch("open", lambda: self.do_open(path, flags, mode),
                              (path, flags))

    def close(self, fd: int) -> int:
        return self._dispatch("close", lambda: self.do_close(fd), (fd,))

    def creat(self, path: str, mode: int = 0o644) -> int:
        return self._dispatch("creat", lambda: self.do_creat(path, mode), (path,))

    def read(self, fd: int, count: int) -> bytes:
        return self._dispatch("read", lambda: self.do_read(fd, count), (fd, count))

    def write(self, fd: int, data: bytes) -> int:
        return self._dispatch("write", lambda: self.do_write(fd, data),
                              (fd, len(data)))

    def pread(self, fd: int, count: int, offset: int) -> bytes:
        return self._dispatch("pread", lambda: self.do_pread(fd, count, offset),
                              (fd, count, offset))

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        return self._dispatch("pwrite", lambda: self.do_pwrite(fd, data, offset),
                              (fd, len(data), offset))

    def lseek(self, fd: int, offset: int, whence: int = 0) -> int:
        return self._dispatch("lseek", lambda: self.do_lseek(fd, offset, whence),
                              (fd, offset, whence))

    def stat(self, path: str):
        return self._dispatch("stat", lambda: self.do_stat(path), (path,))

    def fstat(self, fd: int):
        return self._dispatch("fstat", lambda: self.do_fstat(fd), (fd,))

    def truncate(self, path: str, size: int) -> int:
        return self._dispatch("truncate", lambda: self.do_truncate(path, size),
                              (path, size))

    def ftruncate(self, fd: int, size: int) -> int:
        return self._dispatch("ftruncate", lambda: self.do_ftruncate(fd, size),
                              (fd, size))

    def getdents(self, fd: int, bufsize: int = 32768):
        return self._dispatch("getdents", lambda: self.do_getdents(fd, bufsize),
                              (fd, bufsize))

    def mkdir(self, path: str, mode: int = 0o755) -> int:
        return self._dispatch("mkdir", lambda: self.do_mkdir(path, mode), (path,))

    def rmdir(self, path: str) -> int:
        return self._dispatch("rmdir", lambda: self.do_rmdir(path), (path,))

    def unlink(self, path: str) -> int:
        return self._dispatch("unlink", lambda: self.do_unlink(path), (path,))

    def rename(self, old_path: str, new_path: str) -> int:
        return self._dispatch("rename",
                              lambda: self.do_rename(old_path, new_path),
                              (old_path, new_path))

    def getpid(self) -> int:
        return self._dispatch("getpid", self.do_getpid, ())

    def sync(self) -> int:
        return self._dispatch("sync", self.do_sync, ())

    def fsync(self, fd: int) -> int:
        return self._dispatch("fsync", lambda: self.do_fsync(fd), (fd,))

    # ------------------------------------------ consolidated syscalls (§2.2)

    def readdirplus(self, path: str, bufsize: int = 1 << 22, start: int = 0):
        return self._dispatch("readdirplus",
                              lambda: self.do_readdirplus(path, bufsize, start),
                              (path, bufsize, start))

    def open_read_close(self, path: str, count: int = -1, offset: int = 0) -> bytes:
        return self._dispatch(
            "open_read_close",
            lambda: self.do_open_read_close(path, count, offset),
            (path, count, offset))

    def open_write_close(self, path: str, data: bytes, **kw) -> int:
        return self._dispatch(
            "open_write_close",
            lambda: self.do_open_write_close(path, data, **kw),
            (path, len(data)))

    def open_fstat(self, path: str, flags: int = 0):
        return self._dispatch("open_fstat",
                              lambda: self.do_open_fstat(path, flags),
                              (path, flags))
