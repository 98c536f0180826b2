"""An ext2-like block filesystem over the simulated disk.

Files own lists of data blocks allocated from a free-block bitmap; all data
access goes through the buffer cache, so cold reads pay disk latency (IOWAIT)
and warm reads pay only CPU.  Directory entries and inode metadata are kept
as in-memory structures but charged block-mapping CPU costs, which is the
level of fidelity the paper's experiments need (they compare instrumented
vs. vanilla modules *on the same FS*).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import EISDIR, ENOSPC, raise_errno
from repro.kernel.clock import Mode
from repro.kernel.fs.disk import BLOCK_SIZE, BufferCache, Disk
from repro.kernel.fs.libfs import MemDirInode
from repro.kernel.locks import SpinLock
from repro.kernel.vfs.inode import Inode
from repro.kernel.vfs.stat import S_IFDIR
from repro.kernel.vfs.super import SuperBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel


class Ext2Inode(MemDirInode):
    """An inode whose file data lives in disk blocks."""

    def __init__(self, sb: "Ext2SuperBlock", ino: int, mode: int):
        super().__init__(sb, ino, mode)
        self.blocks_list: list[int] = []
        self.ext2_sb: "Ext2SuperBlock" = sb

    def charge_dirop(self, nblocks: int = 1) -> None:
        self.sb.kernel.clock.charge(self.sb.kernel.costs.block_map * nblocks,
                                    Mode.SYSTEM)

    # -------------------------------------------------------- data operations

    def _block_for(self, index: int, *, allocate: bool) -> int | None:
        """Logical block index -> physical block, optionally allocating."""
        self.sb.kernel.clock.charge(self.sb.kernel.costs.block_map, Mode.SYSTEM)
        while allocate and index >= len(self.blocks_list):
            self.blocks_list.append(self.ext2_sb.alloc_block())
        if index < len(self.blocks_list):
            return self.blocks_list[index]
        return None

    def read(self, offset: int, size: int) -> bytes:
        if self.is_dir:
            raise_errno(EISDIR, "read of a directory")
        size = max(0, min(size, self.size - offset))
        out = bytearray()
        pos = offset
        while len(out) < size:
            bidx, boff = divmod(pos, BLOCK_SIZE)
            phys = self._block_for(bidx, allocate=False)
            n = min(size - len(out), BLOCK_SIZE - boff)
            if phys is None:
                out += bytes(n)  # hole
            else:
                out += self.ext2_sb.bcache.read(phys)[boff:boff + n]
            pos += n
        self.sb.kernel.clock.charge(
            self.sb.kernel.costs.memcpy_cost(len(out)), Mode.SYSTEM)
        self.touch_atime()
        return bytes(out)

    def write(self, offset: int, data: bytes) -> int:
        if self.is_dir:
            raise_errno(EISDIR, "write of a directory")
        pos = offset
        view = memoryview(data)
        while len(view) > 0:
            bidx, boff = divmod(pos, BLOCK_SIZE)
            phys = self._block_for(bidx, allocate=True)
            n = min(len(view), BLOCK_SIZE - boff)
            self.ext2_sb.bcache.write(phys, bytes(view[:n]), boff)
            pos += n
            view = view[n:]
        self.size = max(self.size, offset + len(data))
        self.sb.kernel.clock.charge(
            self.sb.kernel.costs.memcpy_cost(len(data)), Mode.SYSTEM)
        self.touch_mtime()
        return len(data)

    def truncate(self, size: int) -> None:
        if self.is_dir:
            raise_errno(EISDIR, "truncate of a directory")
        needed = (size + BLOCK_SIZE - 1) // BLOCK_SIZE
        while len(self.blocks_list) > needed:
            self.ext2_sb.free_block(self.blocks_list.pop())
        self.size = size
        self.touch_mtime()


class Ext2SuperBlock(SuperBlock):
    """An ext2-like filesystem instance over a disk."""

    def __init__(self, kernel: "Kernel", disk: Disk | None = None,
                 name: str = "ext2", *, cache_blocks: int = 8192):
        super().__init__(kernel, name)
        self.disk = disk if disk is not None else Disk(kernel, nblocks=1 << 20)
        self.bcache = BufferCache(kernel, self.disk, capacity_blocks=cache_blocks)
        #: guards the block free list only; always released before the
        #: buffer cache is touched (lock order: ext2_balloc -> bcache_lock
        #: never holds, because the sections do not overlap).
        self.balloc_lock = SpinLock(kernel, "ext2_balloc")
        self._free_blocks = list(range(self.disk.nblocks - 1, -1, -1))
        root = Ext2Inode(self, self.alloc_ino(), S_IFDIR | 0o755)
        self.register_inode(root)
        self.root_inode = root

    def alloc_block(self) -> int:
        with self.balloc_lock.guard("ext2:alloc_block"):
            if not self._free_blocks:
                raise_errno(ENOSPC, "filesystem full")
            block = self._free_blocks.pop()
        try:
            # A fresh block's prior contents are dead: no read-modify-write.
            # The buffer cache is touched with the freelist lock dropped.
            self.bcache.adopt_zeroed(block)
        except BaseException:
            # Adopting can force an eviction whose write-back fails (EIO);
            # return the block to the free list so it isn't leaked.
            self.bcache.invalidate(block)
            with self.balloc_lock.guard("ext2:alloc_block"):
                self._free_blocks.append(block)
            raise
        return block

    def free_block(self, block: int) -> None:
        self.bcache.invalidate(block)
        with self.balloc_lock.guard("ext2:free_block"):
            self._free_blocks.append(block)

    def drop_inode(self, inode: Inode) -> None:
        if isinstance(inode, Ext2Inode):
            for block in inode.blocks_list:
                self.free_block(block)
            inode.blocks_list.clear()
        super().drop_inode(inode)

    def statfs(self) -> dict:
        return {
            "files": len(self.inodes),
            "blocks": self.disk.nblocks,
            "bfree": len(self._free_blocks),
        }

    def sync(self) -> None:
        self.bcache.sync()
