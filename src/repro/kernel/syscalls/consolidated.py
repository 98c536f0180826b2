"""The paper's consolidated syscalls (§2.2).

Each replaces a frequently-observed *sequence* of syscalls with one call,
saving (a) all but one boundary crossing and (b) redundant data copies —
most notably in ``readdirplus``, where the user program no longer copies
each file name out of the kernel only to pass it straight back in to stat:

    readdir + N×stat:  names out, then N×(path in + stat out)
    readdirplus:       (name + stat) out, once per file

The byte arithmetic of that saving is what the §2.2 interactive-workload
experiment measures (51.8 MB → 32.3 MB, 171,975 → 17,251 calls).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import EINVAL, ENOTDIR, raise_errno
from repro.kernel.clock import Mode
from repro.kernel.vfs.file import O_APPEND, O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY
from repro.kernel.vfs.inode import DirEntry
from repro.kernel.vfs.stat import STAT_SIZE, Stat

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel


class ConsolidatedMixin:
    """readdirplus / open_read_close / open_write_close / open_fstat."""

    kernel: "Kernel"

    def do_readdirplus(self, path: str, bufsize: int = 1 << 22,
                       start: int = 0) -> list[tuple[DirEntry, Stat]]:
        """Names *and* attributes of entries in ``path``, in one call.

        The NFSv3-style combination of readdir with per-entry stat: the
        kernel walks the directory once, stats each child in kernel mode
        (no traps, no path re-copies), and streams (dirent, stat) pairs to
        the user buffer.  ``start`` is a continuation cookie: huge
        directories are listed by repeating the call with the count of
        entries already received.
        """
        if bufsize <= 0:
            raise_errno(EINVAL, "readdirplus bufsize must be positive")
        if start < 0:
            raise_errno(EINVAL, "negative readdirplus cookie")
        self.ucopy.charge_from_user(len(path) + 1)  # type: ignore[attr-defined]
        task = self.kernel.current
        dentry = self.kernel.vfs.path_walk(path, task.cwd)
        if not dentry.inode.is_dir:
            raise_errno(ENOTDIR, path)
        costs = self.kernel.costs
        out: list[tuple[DirEntry, Stat]] = []
        used = 0
        vfs = self.kernel.vfs
        for entry in dentry.inode.readdir()[start:]:
            need = entry.encoded_size() + STAT_SIZE
            if used + need > bufsize:
                break
            # The kernel still resolves each child through the dcache
            # before it can stat it: probe under dcache_lock, and on a
            # miss call the filesystem under the directory's i_sem with
            # no spinlock held (lookup_one_len under i_mutex).
            self.kernel.clock.charge(costs.dcache_lookup, Mode.SYSTEM)
            with vfs.dcache_lock.guard("readdirplus"):
                cached = dentry.d_lookup(entry.name)
            if cached is not None:
                child = cached.inode
            else:
                with dentry.inode.i_sem.guard("readdirplus"):
                    child = dentry.inode.lookup(entry.name)
            if child is None:  # raced with a concurrent unlink
                continue
            self.kernel.clock.charge(costs.dirent_emit, Mode.SYSTEM)
            out.append((entry, self.stat_fill(child)))  # type: ignore[attr-defined]
            used += need
        if out:
            self.ucopy.charge_to_user(used)  # type: ignore[attr-defined]
        return out

    def do_open_read_close(self, path: str, count: int = -1,
                           offset: int = 0) -> bytes:
        """open + read (up to ``count`` bytes, whole file if -1) + close."""
        if offset < 0:
            raise_errno(EINVAL, "negative offset")
        self.ucopy.charge_from_user(len(path) + 1)  # type: ignore[attr-defined]
        fd = self.ksys_open(path, O_RDONLY)  # type: ignore[attr-defined]
        try:
            if count < 0:
                size = self._file_for(fd).inode.size  # type: ignore[attr-defined]
                count = max(0, size - offset)
            data = self.ksys_read(fd, count, offset)  # type: ignore[attr-defined]
            self.ucopy.charge_to_user(len(data))  # type: ignore[attr-defined]
            return data
        finally:
            self.do_close(fd)  # type: ignore[attr-defined]

    def do_open_write_close(self, path: str, data: bytes, *,
                            append: bool = False, create: bool = True,
                            truncate: bool = True) -> int:
        """open(+O_CREAT/O_TRUNC/O_APPEND) + write + close."""
        self.ucopy.charge_from_user(len(path) + 1)  # type: ignore[attr-defined]
        flags = O_WRONLY
        if create:
            flags |= O_CREAT
        if truncate and not append:
            flags |= O_TRUNC
        if append:
            flags |= O_APPEND
        fd = self.ksys_open(path, flags)  # type: ignore[attr-defined]
        try:
            return self.ksys_write(  # type: ignore[attr-defined]
                fd, len(data), self._from_user(data))  # type: ignore[attr-defined]
        finally:
            self.do_close(fd)  # type: ignore[attr-defined]

    def do_open_fstat(self, path: str, flags: int = O_RDONLY
                      ) -> tuple[int, Stat]:
        """open + fstat, returning the open fd along with the attributes."""
        self.ucopy.charge_from_user(len(path) + 1)  # type: ignore[attr-defined]
        fd = self.ksys_open(path, flags)  # type: ignore[attr-defined]
        st = self.ksys_fstat(fd)  # type: ignore[attr-defined]
        self.ucopy.charge_to_user(STAT_SIZE)  # type: ignore[attr-defined]
        return fd, st
