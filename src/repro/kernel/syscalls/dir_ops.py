"""Directory syscall handlers: getdents and namespace operations."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import EINVAL, ENOTDIR, raise_errno
from repro.kernel.clock import Mode
from repro.kernel.vfs.inode import DirEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel


class DirOpsMixin:
    """getdents/mkdir/rmdir/unlink/rename."""

    kernel: "Kernel"

    def ksys_getdents(self, fd: int, bufsize: int,
                      copy_out: Callable[[list[DirEntry], int], None]
                      ) -> list[DirEntry]:
        """getdents(2) in kernel mode: the entries that fit in ``bufsize``.

        ``copy_out(entries, nbytes)`` moves a non-empty batch to the
        caller's buffer before the position update.  ``file.pos`` is the
        index of the next entry to emit, so repeated calls stream a large
        directory exactly like getdents64(2); an empty return means
        end-of-directory.
        """
        if bufsize <= 0:
            raise_errno(EINVAL, "getdents bufsize must be positive")
        file = self._file_for(fd)  # type: ignore[attr-defined]
        if not file.inode.is_dir:
            raise_errno(ENOTDIR, "getdents on non-directory")
        entries = file.inode.readdir()
        out: list[DirEntry] = []
        used = 0
        costs = self.kernel.costs
        for entry in entries[file.pos:]:
            need = entry.encoded_size()
            if used + need > bufsize:
                break
            self.kernel.clock.charge(costs.dirent_emit, Mode.SYSTEM)
            out.append(entry)
            used += need
        if out:
            copy_out(out, used)
        file.pos += len(out)
        return out

    def do_getdents(self, fd: int, bufsize: int = 32768) -> list[DirEntry]:
        """Fill a user dirent buffer; returns the entries that fit."""
        ucopy = self.ucopy  # type: ignore[attr-defined]
        return self.ksys_getdents(
            fd, bufsize, lambda out, used: ucopy.charge_to_user(used))

    # Namespace bodies: the VFS call, without the path copy.

    def ksys_mkdir(self, path: str) -> int:
        self.kernel.vfs.mkdir(path, self.kernel.current.cwd)
        return 0

    def ksys_rmdir(self, path: str) -> int:
        self.kernel.vfs.rmdir(path, self.kernel.current.cwd)
        return 0

    def ksys_unlink(self, path: str) -> int:
        self.kernel.vfs.unlink(path, self.kernel.current.cwd)
        return 0

    def do_mkdir(self, path: str, mode: int = 0o755) -> int:
        self.ucopy.charge_from_user(len(path) + 1)  # type: ignore[attr-defined]
        return self.ksys_mkdir(path)

    def do_rmdir(self, path: str) -> int:
        self.ucopy.charge_from_user(len(path) + 1)  # type: ignore[attr-defined]
        return self.ksys_rmdir(path)

    def do_unlink(self, path: str) -> int:
        self.ucopy.charge_from_user(len(path) + 1)  # type: ignore[attr-defined]
        return self.ksys_unlink(path)

    def do_rename(self, old_path: str, new_path: str) -> int:
        self.ucopy.charge_from_user(len(old_path) + 1)  # type: ignore[attr-defined]
        self.ucopy.charge_from_user(len(new_path) + 1)  # type: ignore[attr-defined]
        self.kernel.vfs.rename(old_path, new_path, self.kernel.current.cwd)
        return 0
