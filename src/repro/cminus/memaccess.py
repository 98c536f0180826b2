"""Memory backends for C-subset execution.

The interpreter is agnostic about *where* its bytes live; a
:class:`MemoryAccess` supplies load/store plus stack and heap allocation.

* :class:`UserMemAccess` — a task's demand-paged user memory, through the
  MMU (normal application execution).
* :class:`SegmentMemAccess` — an isolated segment's offset space, through
  limit-checked segmented access: every address the program manipulates is
  a segment offset, so escaping the segment is impossible by construction.
  This is Cosy's user-function isolation (§2.3).

KGCC wraps whichever backend is in use (see
:mod:`repro.safety.kgcc.runtime`), so the same program can run checked or
unchecked over either backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from typing import TYPE_CHECKING

from repro.errors import OutOfMemory

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.process import Task
    from repro.kernel.segments import SegmentedView


class MemoryAccess(ABC):
    """Byte access + stack/heap allocation, as the interpreter needs it.

    ``read``/``write`` are the full path: every check, charge, fault and
    trace event an access can have.

    ``try_read_int``/``try_write_int`` are the compiled engine's scalar
    fast path.  When a TLB hit completes the access -- one page, 1, 2, 4
    or 8 bytes, every check passing -- they perform it with exactly the
    checks and bookkeeping ``read``/``write`` would apply, and return the
    little-endian value / True.  Otherwise they return None / False
    having changed nothing, and the caller takes the full path.  The
    fast path must neither read nor charge the simulated clock: the
    engine charges its pending ops only before the full path
    (docs/PERF.md, "Batched charging").  The defaults never take it.
    """

    @abstractmethod
    def read(self, addr: int, size: int) -> bytes: ...

    @abstractmethod
    def write(self, addr: int, data: bytes) -> None: ...

    def try_read_int(self, addr: int, size: int,
                     signed: bool) -> int | None:
        return None

    def try_write_int(self, addr: int, value: int, size: int) -> bool:
        """``value`` is already truncated to ``size`` bytes."""
        return False

    @abstractmethod
    def alloc_stack(self, size: int) -> int: ...

    @abstractmethod
    def free_stack(self, addr: int, size: int) -> None: ...

    @abstractmethod
    def malloc(self, size: int) -> int: ...

    @abstractmethod
    def free(self, addr: int) -> None: ...


class UserMemAccess(MemoryAccess):
    """A task's user address space (MMU-mediated, demand paged)."""

    def __init__(self, kernel: "Kernel", task: "Task"):
        self.kernel = kernel
        self.task = task
        # the scalar fast path is the MMU's, with no wrapper frame
        self.try_read_int = partial(  # type: ignore[method-assign]
            kernel.mmu.try_read_int, task.aspace)
        self.try_write_int = partial(  # type: ignore[method-assign]
            kernel.mmu.try_write_int, task.aspace)

    def read(self, addr: int, size: int) -> bytes:
        return self.kernel.mmu.read(self.task.aspace, addr, size)

    def write(self, addr: int, data: bytes) -> None:
        self.kernel.mmu.write(self.task.aspace, addr, data)

    def alloc_stack(self, size: int) -> int:
        return self.task.mem.push_frame(size)

    def free_stack(self, addr: int, size: int) -> None:
        self.task.mem.pop_frame(size)

    def malloc(self, size: int) -> int:
        return self.task.mem.malloc(size)

    def free(self, addr: int) -> None:
        self.task.mem.free(addr)


class KernelMemAccess(MemoryAccess):
    """Kernel memory: kmalloc-backed heap and stack, direct-mapped access.

    This is the backend for *kernel-module* code (the KGCC experiments
    instrument filesystem modules, which live entirely in kernel memory).
    """

    def __init__(self, kernel: "Kernel"):
        from repro.kernel.memory.paging import AddressSpace

        self.kernel = kernel
        self.aspace = AddressSpace(kernel.kernel_pt)
        self.try_read_int = partial(  # type: ignore[method-assign]
            kernel.mmu.try_read_int, self.aspace)
        self.try_write_int = partial(  # type: ignore[method-assign]
            kernel.mmu.try_write_int, self.aspace)

    def read(self, addr: int, size: int) -> bytes:
        return self.kernel.mmu.read(self.aspace, addr, size)

    def write(self, addr: int, data: bytes) -> None:
        self.kernel.mmu.write(self.aspace, addr, data)

    def alloc_stack(self, size: int) -> int:
        return self.kernel.kmalloc.kmalloc(max(size, 1))

    def free_stack(self, addr: int, size: int) -> None:
        self.kernel.kmalloc.kfree(addr)

    def malloc(self, size: int) -> int:
        return self.kernel.kmalloc.kmalloc(max(size, 1))

    def free(self, addr: int) -> None:
        self.kernel.kmalloc.kfree(addr)


class SegmentMemAccess(MemoryAccess):
    """An isolated segment: all addresses are offsets, checked at the limit.

    Layout inside the segment: ``[0, static_reserve)`` is available to the
    host (Cosy stages arguments there); the heap bumps upward from
    ``static_reserve``; the stack grows downward from the limit.  Heap and
    stack colliding raises :class:`OutOfMemory` rather than corrupting —
    a luxury real segments don't offer, but the paper's protection claim
    (no reference can *leave* the segment) is enforced by the underlying
    :class:`~repro.kernel.segments.SegmentedView`.
    """

    def __init__(self, view: "SegmentedView", static_reserve: int = 256):
        self.view = view
        self._heap_top = static_reserve
        self._sp = view.limit
        self._free: dict[int, list[int]] = {}
        self._live: dict[int, int] = {}
        # bound-method shortcuts: skip one frame per load/store
        self.read = view.read                    # type: ignore[method-assign]
        self.write = view.write                  # type: ignore[method-assign]
        self.try_read_int = view.try_read_int    # type: ignore[method-assign]
        self.try_write_int = view.try_write_int  # type: ignore[method-assign]

    def read(self, addr: int, size: int) -> bytes:
        return self.view.read(addr, size)

    def write(self, addr: int, data: bytes) -> None:
        self.view.write(addr, data)

    def alloc_stack(self, size: int) -> int:
        aligned = (size + 15) & ~15
        if self._sp - aligned < self._heap_top:
            raise OutOfMemory("segment stack collided with heap")
        self._sp -= aligned
        return self._sp

    def free_stack(self, addr: int, size: int) -> None:
        self._sp += (size + 15) & ~15
        if self._sp > self.view.limit:
            raise RuntimeError("segment stack underflow")

    def malloc(self, size: int) -> int:
        bucket = (size + 15) & ~15
        free = self._free.get(bucket)
        if free:
            addr = free.pop()
        else:
            addr = self._heap_top
            if addr + bucket > self._sp:
                raise OutOfMemory("segment heap collided with stack")
            self._heap_top += bucket
        self._live[addr] = bucket
        return addr

    def free(self, addr: int) -> None:
        bucket = self._live.pop(addr, None)
        if bucket is None:
            raise OutOfMemory(f"free of unallocated segment offset {addr:#x}")
        self._free.setdefault(bucket, []).append(addr)
