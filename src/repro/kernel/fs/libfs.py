"""Directory operations shared by the in-memory-directory filesystems.

Linux's libfs gives ramfs and friends one set of ``simple_*`` directory
operations; here :class:`MemDirInode` is that set for ramfs and ext2,
which both keep a directory's entries in a dict.  They differ only in
what touching a directory costs: ramfs charges nothing, ext2 charges one
``block_map`` per directory block (:meth:`MemDirInode.charge_dirop`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import EEXIST, EISDIR, ENOENT, ENOTDIR, ENOTEMPTY, raise_errno
from repro.kernel.vfs.inode import DT_DIR, DT_REG, DirEntry, Inode
from repro.kernel.vfs.stat import S_IFDIR, S_IFREG

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.vfs.super import SuperBlock

#: directory entries per directory block
ENTRIES_PER_BLOCK = 128


class MemDirInode(Inode):
    """An inode whose directory entries live in a name -> inode dict."""

    def __init__(self, sb: "SuperBlock", ino: int, mode: int):
        super().__init__(sb, ino, mode)
        self.entries: dict[str, MemDirInode] | None = {} if self.is_dir else None

    def charge_dirop(self, nblocks: int = 1) -> None:
        """Charge touching ``nblocks`` blocks of this directory (free
        unless the filesystem keeps directories on disk)."""

    def _require_dir(self) -> dict[str, "MemDirInode"]:
        if self.entries is None:
            raise_errno(ENOTDIR, f"inode {self.ino} is not a directory")
        return self.entries

    def _new_child(self, name: str, mode: int) -> "MemDirInode":
        """Link a fresh inode of this filesystem in as ``name``."""
        inode = type(self)(self.sb, self.sb.alloc_ino(), mode)
        self.sb.register_inode(inode)
        self._require_dir()[name] = inode
        self.touch_mtime()
        return inode

    def lookup(self, name: str) -> "MemDirInode | None":
        self.charge_dirop()
        return self._require_dir().get(name)

    def create(self, name: str, mode: int) -> "MemDirInode":
        if name in self._require_dir():
            raise_errno(EEXIST, name)
        self.charge_dirop()
        return self._new_child(name, mode | S_IFREG)

    def mkdir(self, name: str) -> "MemDirInode":
        if name in self._require_dir():
            raise_errno(EEXIST, name)
        self.charge_dirop()
        inode = self._new_child(name, S_IFDIR | 0o755)
        self.nlink += 1
        return inode

    def unlink(self, name: str) -> None:
        entries = self._require_dir()
        child = entries.get(name)
        if child is None:
            raise_errno(ENOENT, name)
        if child.is_dir:
            raise_errno(EISDIR, name)
        self.charge_dirop()
        del entries[name]
        child.nlink -= 1
        if child.nlink == 0:
            self.sb.drop_inode(child)
        self.touch_mtime()

    def rmdir(self, name: str) -> None:
        entries = self._require_dir()
        child = entries.get(name)
        if child is None:
            raise_errno(ENOENT, name)
        if not child.is_dir:
            raise_errno(ENOTDIR, name)
        if child.entries:
            raise_errno(ENOTEMPTY, name)
        self.charge_dirop()
        del entries[name]
        self.nlink -= 1
        self.sb.drop_inode(child)
        self.touch_mtime()

    def rename(self, old_name: str, new_dir: Inode, new_name: str) -> None:
        entries = self._require_dir()
        child = entries.get(old_name)
        if child is None:
            raise_errno(ENOENT, old_name)
        if not isinstance(new_dir, type(self)):
            raise_errno(ENOTDIR, "cross-filesystem rename")
        self.charge_dirop()
        target = new_dir._require_dir()
        # An existing regular-file target is replaced, as rename(2) specifies.
        existing = target.get(new_name)
        if existing is not None and existing.is_dir:
            raise_errno(EISDIR, new_name)
        del entries[old_name]
        if existing is not None:
            existing.nlink -= 1
            if existing.nlink == 0:
                self.sb.drop_inode(existing)
        target[new_name] = child
        self.touch_mtime()
        new_dir.touch_mtime()

    def readdir(self) -> list[DirEntry]:
        entries = self._require_dir()
        self.charge_dirop(max(1, (len(entries) + ENTRIES_PER_BLOCK - 1)
                              // ENTRIES_PER_BLOCK))
        return [
            DirEntry(name, child.ino, DT_DIR if child.is_dir else DT_REG)
            for name, child in entries.items()
        ]
