"""Physical memory: a bounded pool of 4 KiB frames.

Frames store real bytes (``bytearray``) so overflow detection, zero-copy
sharing, and file data behave like memory, not like bookkeeping.  Frames are
allocated lazily; the pool only tracks counts until a frame's bytes are first
touched.
"""

from __future__ import annotations

from repro.errors import OutOfMemory
from repro.kernel.memory.layout import PAGE_SIZE


class PhysicalMemory:
    """Frame allocator with a hard frame budget.

    Parameters
    ----------
    total_bytes:
        Size of simulated RAM.  Defaults to the paper's 884 MB testbed.
    """

    def __init__(self, total_bytes: int = 884 * 1024 * 1024):
        self.total_frames = total_bytes // PAGE_SIZE
        self._next_frame = 0
        self._free: list[int] = []
        self._data: dict[int, bytearray] = {}
        self.allocated = 0
        self.peak_allocated = 0

    # ----------------------------------------------------------- allocation

    def alloc_frame(self) -> int:
        """Allocate one frame; raises :class:`OutOfMemory` when exhausted."""
        if self._free:
            frame = self._free.pop()
        elif self._next_frame < self.total_frames:
            frame = self._next_frame
            self._next_frame += 1
        else:
            raise OutOfMemory(
                f"physical memory exhausted ({self.total_frames} frames)"
            )
        self.allocated += 1
        self.peak_allocated = max(self.peak_allocated, self.allocated)
        return frame

    def free_frame(self, frame: int) -> None:
        """Return a frame to the pool and drop its contents."""
        self._data.pop(frame, None)
        self._free.append(frame)
        self.allocated -= 1

    # --------------------------------------------------------------- access

    def frame_bytes(self, frame: int) -> bytearray:
        """The backing store of a frame (created zero-filled on first touch)."""
        buf = self._data.get(frame)
        if buf is None:
            buf = bytearray(PAGE_SIZE)
            self._data[frame] = buf
        return buf
