"""ramfs: a memory-only filesystem with no disk costs.

Used where the paper's experiments are CPU-bound (the Cosy micro-benchmarks,
the readdirplus sweep's warm-cache runs): all data lives in page-cache-like
bytearrays and only copy/lookup CPU costs are charged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import EISDIR, raise_errno
from repro.kernel.clock import Mode
from repro.kernel.fs.libfs import MemDirInode
from repro.kernel.vfs.stat import S_IFDIR
from repro.kernel.vfs.super import SuperBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel


class RamfsInode(MemDirInode):
    """An inode whose data/children live in Python memory."""

    def __init__(self, sb: "RamfsSuperBlock", ino: int, mode: int):
        super().__init__(sb, ino, mode)
        self.data = bytearray() if self.is_reg else None

    # -------------------------------------------------------- data operations

    def read(self, offset: int, size: int) -> bytes:
        if self.data is None:
            raise_errno(EISDIR, "read of a directory")
        chunk = bytes(self.data[offset:offset + size])
        self.sb.kernel.clock.charge(
            self.sb.kernel.costs.memcpy_cost(len(chunk)), Mode.SYSTEM)
        self.touch_atime()
        return chunk

    def write(self, offset: int, data: bytes) -> int:
        if self.data is None:
            raise_errno(EISDIR, "write of a directory")
        if offset > len(self.data):
            self.data.extend(b"\0" * (offset - len(self.data)))
        self.data[offset:offset + len(data)] = data
        self.size = len(self.data)
        self.sb.kernel.clock.charge(
            self.sb.kernel.costs.memcpy_cost(len(data)), Mode.SYSTEM)
        self.touch_mtime()
        return len(data)

    def truncate(self, size: int) -> None:
        if self.data is None:
            raise_errno(EISDIR, "truncate of a directory")
        if size < len(self.data):
            del self.data[size:]
        else:
            self.data.extend(b"\0" * (size - len(self.data)))
        self.size = size
        self.touch_mtime()


class RamfsSuperBlock(SuperBlock):
    """A ramfs instance."""

    def __init__(self, kernel: "Kernel", name: str = "ramfs"):
        super().__init__(kernel, name)
        root = RamfsInode(self, self.alloc_ino(), S_IFDIR | 0o755)
        self.register_inode(root)
        self.root_inode = root
