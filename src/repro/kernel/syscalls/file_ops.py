"""File syscall handlers (the ``do_*`` bodies run in kernel mode).

Handlers never charge trap/stub costs themselves — the dispatcher does.
Each data-moving handler is split in two: a ``ksys_*`` kernel body (the
argument checks, the fd lookup and access-mode check, the inode call, the
position update, ``stat_fill``) and the boundary copy its entry path adds
around it.  The classic ``do_*`` handler adds uaccess; the consolidated
calls copy a path once; a Cosy compound (§2.3) copies through its shared
buffer and a uring SQE through its ring, both at memcpy cost.  Every path
thus runs the same checks: "the system call invocation by the Cosy kernel
module is the same as a normal process and hence all the necessary checks
are performed."
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import EBADF, EINVAL, EISDIR, ENOENT, Errno, raise_errno
from repro.kernel.clock import Mode
from repro.kernel.vfs.file import (File, O_ACCMODE, O_APPEND, O_CREAT, O_RDONLY,
                                   O_TRUNC, O_WRONLY, SEEK_CUR, SEEK_END, SEEK_SET)
from repro.kernel.vfs.inode import Inode
from repro.kernel.vfs.stat import S_IFREG, STAT_SIZE, Stat

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel


class FileOpsMixin:
    """open/close/read/write/lseek/stat and friends."""

    kernel: "Kernel"

    # ------------------------------------------------------------- open

    def do_open(self, path: str, flags: int = O_RDONLY, mode: int = 0o644) -> int:
        self.ucopy.charge_from_user(len(path) + 1)
        return self.ksys_open(path, flags, mode)

    def ksys_open(self, path: str, flags: int, mode: int = 0o644) -> int:
        """open(2) in kernel mode, without the path copy."""
        task = self.kernel.current
        vfs = self.kernel.vfs
        try:
            dentry = vfs.path_walk(path, task.cwd)
        except Errno as e:
            if e.errno == ENOENT and (flags & O_CREAT):
                dentry = vfs.create(path, mode | S_IFREG, task.cwd)
            else:
                raise
        inode = dentry.inode
        if inode.is_dir and (flags & O_ACCMODE) != O_RDONLY:
            raise_errno(EISDIR, path)
        if (flags & O_TRUNC) and inode.is_reg:
            inode.truncate(0)
        file = File(dentry, flags)
        inode.i_count.get("sys_open")
        try:
            inode.open_file(file)
        except BaseException:
            # open_file failed (e.g. injected ENOMEM in a stackable FS's
            # private-data allocation): drop the reference we just took.
            inode.i_count.put("sys_open")
            raise
        try:
            return task.alloc_fd(file)
        except BaseException:
            inode.release_file(file)
            inode.i_count.put("sys_open")
            raise

    def do_close(self, fd: int) -> int:
        task = self.kernel.current
        file = task.release_fd(fd)
        if file is None:
            raise_errno(EBADF, f"close({fd})")
        file.inode.release_file(file)
        file.inode.i_count.put("sys_close")
        return 0

    def do_creat(self, path: str, mode: int = 0o644) -> int:
        return self.do_open(path, O_CREAT | O_WRONLY | O_TRUNC, mode)

    # ------------------------------------------------------------- read/write

    def _file_for(self, fd: int) -> File:
        file = self.kernel.current.get_file(fd)
        if file is None:
            raise_errno(EBADF, f"fd {fd}")
        return file

    def ksys_read(self, fd: int, count: int,
                  offset: int | None = None) -> bytes:
        """read(2), or pread(2) at ``offset``, in kernel mode.

        Without ``offset`` the read starts at, and advances, the file
        position.  The caller copies the returned bytes out.
        """
        if count < 0 or (offset is not None and offset < 0):
            raise_errno(EINVAL, "negative count/offset")
        file = self._file_for(fd)
        file.check_readable()
        if offset is not None:
            return file.inode.read(offset, count)
        data = file.inode.read(file.pos, count)
        file.pos += len(data)
        return data

    def ksys_write(self, fd: int, count: int, copy_in: Callable[[], bytes],
                   offset: int | None = None) -> int:
        """write(2), or pwrite(2) at ``offset``, in kernel mode.

        ``copy_in`` fetches the ``count`` bytes to write; it runs once the
        file is known to be writable.  Without ``offset`` the write lands
        at the file position (at the end under O_APPEND) and advances it.
        """
        if count < 0 or (offset is not None and offset < 0):
            raise_errno(EINVAL, "negative count/offset")
        file = self._file_for(fd)
        file.check_writable()
        data = copy_in()
        if offset is not None:
            return file.inode.write(offset, data)
        pos = file.inode.size if (file.flags & O_APPEND) else file.pos
        n = file.inode.write(pos, data)
        file.pos = pos + n
        return n

    def _from_user(self, data: bytes) -> Callable[[], bytes]:
        """The copy-in of a classic write: ``data`` crosses the boundary."""
        def copy_in() -> bytes:
            self.ucopy.charge_from_user(len(data))
            return data
        return copy_in

    def do_read(self, fd: int, count: int) -> bytes:
        data = self.ksys_read(fd, count)
        self.ucopy.charge_to_user(len(data))
        return data

    def do_write(self, fd: int, data: bytes) -> int:
        return self.ksys_write(fd, len(data), self._from_user(data))

    def do_pread(self, fd: int, count: int, offset: int) -> bytes:
        data = self.ksys_read(fd, count, offset)
        self.ucopy.charge_to_user(len(data))
        return data

    def do_pwrite(self, fd: int, data: bytes, offset: int) -> int:
        return self.ksys_write(fd, len(data), self._from_user(data), offset)

    def do_lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> int:
        file = self._file_for(fd)
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = file.pos + offset
        elif whence == SEEK_END:
            new = file.inode.size + offset
        else:
            raise_errno(EINVAL, f"whence={whence}")
        if new < 0:
            raise_errno(EINVAL, "seek before start of file")
        file.pos = new
        return new

    # ------------------------------------------------------------- metadata

    def stat_fill(self, inode: Inode) -> Stat:
        """Fill a stat record for ``inode``."""
        self.kernel.clock.charge(self.kernel.costs.stat_fill, Mode.SYSTEM)
        return inode.getattr()

    def ksys_stat(self, path: str) -> Stat:
        """stat(2) in kernel mode, without the path copy."""
        return self.stat_fill(
            self.kernel.vfs.path_walk(path, self.kernel.current.cwd).inode)

    def ksys_fstat(self, fd: int) -> Stat:
        return self.stat_fill(self._file_for(fd).inode)

    def do_stat(self, path: str) -> Stat:
        self.ucopy.charge_from_user(len(path) + 1)
        st = self.ksys_stat(path)
        self.ucopy.charge_to_user(STAT_SIZE)
        return st

    def do_fstat(self, fd: int) -> Stat:
        st = self.ksys_fstat(fd)
        self.ucopy.charge_to_user(STAT_SIZE)
        return st

    def do_truncate(self, path: str, size: int) -> int:
        if size < 0:
            raise_errno(EINVAL, "negative truncate size")
        self.ucopy.charge_from_user(len(path) + 1)
        dentry = self.kernel.vfs.path_walk(path, self.kernel.current.cwd)
        dentry.inode.truncate(size)
        return 0

    def do_ftruncate(self, fd: int, size: int) -> int:
        if size < 0:
            raise_errno(EINVAL, "negative truncate size")
        file = self._file_for(fd)
        file.check_writable()
        file.inode.truncate(size)
        return 0

    # ------------------------------------------------------------- misc

    def do_getpid(self) -> int:
        return self.kernel.current.pid

    def do_sync(self) -> int:
        for sb in self.kernel.vfs.mounted_superblocks:
            sb.sync()
        return 0

    def do_fsync(self, fd: int) -> int:
        """Flush one file's filesystem to stable storage (mail-server
        durability: §2.4's workload-tailored suites need it)."""
        file = self._file_for(fd)
        file.inode.sb.sync()
        return 0
