"""Inodes and directory entries.

:class:`Inode` is the VFS-facing object; concrete filesystems subclass it
and override the operation methods.  Default implementations raise the
errno a real kernel would return (e.g. reading a directory → EISDIR).

Every inode carries an instrumentable :class:`RefCount` (``i_count``) — one
of the kernel objects the §3.3 monitors watch — and an opaque ``private``
field that stackable filesystems (Wrapfs) point at dynamically allocated
per-object data, which is what the Kefence evaluation (§3.2) protects.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import EISDIR, ENOTDIR, EPERM, raise_errno
from repro.kernel.locks import Semaphore
from repro.kernel.refcount import RefCount
from repro.kernel.vfs.stat import Stat, is_dir, is_reg

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.vfs.super import SuperBlock

DT_REG = 8
DT_DIR = 4

#: the 19-byte linux_dirent64 header
_DIRENT64 = struct.Struct("<QqHB")


@dataclass(frozen=True)
class DirEntry:
    """One readdir record (name, inode number, d_type)."""

    name: str
    ino: int
    dtype: int

    def encoded_size(self) -> int:
        """Bytes this dirent occupies in a getdents user buffer
        (fixed header of 19 bytes + name + NUL, like linux_dirent64)."""
        return 19 + len(self.name.encode()) + 1

    def pack(self) -> bytes:
        """The record of :meth:`encoded_size` bytes: d_ino, d_off (0),
        d_reclen and d_type, then the name and its NUL."""
        return (_DIRENT64.pack(self.ino, 0, self.encoded_size(), self.dtype)
                + self.name.encode() + b"\0")


class Inode:
    """Base VFS inode."""

    def __init__(self, sb: "SuperBlock", ino: int, mode: int):
        self.sb = sb
        self.ino = ino
        self.mode = mode
        self.nlink = 2 if is_dir(mode) else 1
        self.uid = 0
        self.gid = 0
        self.size = 0
        self.atime = self.mtime = self.ctime = sb.kernel.clock.now
        self.i_count = RefCount(sb.kernel, f"i_count:{sb.name}:{ino}")
        self.private: int | None = None  # kernel address of FS-private data
        self._i_sem: Semaphore | None = None   # lazy: most inodes never need it

    @property
    def i_sem(self) -> Semaphore:
        """Per-inode semaphore serializing directory modifications and the
        lookup slow path — the *sleeping* lock held across filesystem calls,
        so ``dcache_lock`` critical sections can stay tiny.  All instances
        share one lockdep class (``i_sem``); nested acquisitions (rename
        across directories) annotate a subclass, as Linux does."""
        if self._i_sem is None:
            self._i_sem = Semaphore(self.sb.kernel, "i_sem")
        return self._i_sem

    # ------------------------------------------------- namespace operations

    def lookup(self, name: str) -> "Inode | None":
        """Find a child by name (directories only)."""
        raise_errno(ENOTDIR, f"lookup in non-directory inode {self.ino}")

    def create(self, name: str, mode: int) -> "Inode":
        raise_errno(ENOTDIR, f"create in non-directory inode {self.ino}")
        raise AssertionError

    def mkdir(self, name: str) -> "Inode":
        raise_errno(ENOTDIR, f"mkdir in non-directory inode {self.ino}")
        raise AssertionError

    def unlink(self, name: str) -> None:
        raise_errno(ENOTDIR, f"unlink in non-directory inode {self.ino}")

    def rmdir(self, name: str) -> None:
        raise_errno(ENOTDIR, f"rmdir in non-directory inode {self.ino}")

    def rename(self, old_name: str, new_dir: "Inode", new_name: str) -> None:
        raise_errno(ENOTDIR, f"rename in non-directory inode {self.ino}")

    def readdir(self) -> list[DirEntry]:
        raise_errno(ENOTDIR, f"readdir of non-directory inode {self.ino}")
        raise AssertionError

    # ------------------------------------------------------ data operations

    def read(self, offset: int, size: int) -> bytes:
        if is_dir(self.mode):
            raise_errno(EISDIR, "read of a directory")
        raise_errno(EPERM, f"inode {self.ino} does not support read")
        raise AssertionError

    def write(self, offset: int, data: bytes) -> int:
        if is_dir(self.mode):
            raise_errno(EISDIR, "write of a directory")
        raise_errno(EPERM, f"inode {self.ino} does not support write")
        raise AssertionError

    def truncate(self, size: int) -> None:
        raise_errno(EPERM, f"inode {self.ino} does not support truncate")

    # -------------------------------------------------- open-file lifecycle

    def open_file(self, file) -> None:
        """Called when a File is opened on this inode (FS hook; stackable
        filesystems attach per-file private data here)."""

    def release_file(self, file) -> None:
        """Called when the last descriptor on a File is closed."""

    # -------------------------------------------------------------- attrs

    def getattr(self) -> Stat:
        """Fill a stat record (charged by the syscall layer)."""
        return Stat(
            ino=self.ino, mode=self.mode, nlink=self.nlink, uid=self.uid,
            gid=self.gid, size=self.size,
            blocks=(self.size + 511) // 512,
            atime=self.atime, mtime=self.mtime, ctime=self.ctime,
        )

    def touch_atime(self) -> None:
        self.atime = self.sb.kernel.clock.now

    def touch_mtime(self) -> None:
        now = self.sb.kernel.clock.now
        self.mtime = now
        self.ctime = now

    @property
    def is_dir(self) -> bool:
        return is_dir(self.mode)

    @property
    def is_reg(self) -> bool:
        return is_reg(self.mode)

    def __repr__(self) -> str:  # pragma: no cover
        kind = "dir" if self.is_dir else "reg"
        return f"Inode({self.sb.name}:{self.ino} {kind} size={self.size})"
