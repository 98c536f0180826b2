"""x86-style segmentation: descriptors, a descriptor table, checked access.

Cosy (§2.3) protects the kernel from user-supplied functions with
segmentation rather than paging: the function's data (and, in the
full-isolation mode, its code) is confined to a segment, and *any* reference
outside the segment limit raises a protection fault in hardware.  This module
provides exactly that mechanism: a :class:`SegmentDescriptor` with
base/limit/permissions/DPL and a :func:`checked access <SegmentedView.read>`
wrapper over the MMU.

Two Cosy modes map onto it (see :mod:`repro.core.cosy.safety`):

* **full isolation** — code and data in two disjoint segments; calling the
  function costs a far call (:attr:`CostModel.far_call`) but self-modifying
  code is impossible because the code segment is execute-only.
* **data-only isolation** — only the data segment is switched; calls are
  near calls (no extra cost) but the code runs in the kernel segment, so
  protection depends on the code having come from Cosy-GCC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtectionFault
from repro.kernel.memory.layout import (KERNEL_BASE, PAGE_SHIFT, PAGE_SIZE,
                                        VMALLOC_BASE, VMALLOC_END)
from repro.kernel.memory.mmu import LOAD, LOAD_SIGNED, MMU, STORE
from repro.kernel.memory.paging import (PERM_R, PERM_W, AddressSpace)

SEG_READ = 1
SEG_WRITE = 2
SEG_EXEC = 4

#: Descriptor privilege levels.
DPL_KERNEL = 0
DPL_USER = 3


@dataclass(frozen=True, slots=True)
class SegmentDescriptor:
    """One GDT/LDT entry: a base/limit window with access rights."""

    base: int
    limit: int            # segment size in bytes; valid offsets are [0, limit)
    perms: int = SEG_READ | SEG_WRITE
    dpl: int = DPL_KERNEL
    name: str = "seg"

    def check(self, offset: int, size: int, access: str, selector: int) -> int:
        """Validate an ``access`` of ``size`` bytes at ``offset``; returns the
        linear address.  Raises :class:`ProtectionFault` on violation —
        the hardware check Cosy's isolation relies on."""
        if access == "r":
            need = SEG_READ
        elif access == "w":
            need = SEG_WRITE
        else:
            need = SEG_EXEC
        if not (self.perms & need):
            raise ProtectionFault(selector, offset,
                                  f"segment '{self.name}' denies '{access}'")
        if offset < 0 or size < 0 or offset + size > self.limit:
            raise ProtectionFault(
                selector, offset,
                f"offset+size {offset}+{size} exceeds limit {self.limit} "
                f"of segment '{self.name}'",
            )
        return self.base + offset


class SegmentTable:
    """A descriptor table; selectors are indices."""

    def __init__(self) -> None:
        self._descriptors: list[SegmentDescriptor | None] = [None]  # 0 = null

    def install(self, desc: SegmentDescriptor) -> int:
        """Add a descriptor, returning its selector."""
        self._descriptors.append(desc)
        return len(self._descriptors) - 1

    def descriptor(self, selector: int) -> SegmentDescriptor:
        if not (1 <= selector < len(self._descriptors)) or \
                self._descriptors[selector] is None:
            raise ProtectionFault(selector, 0, "null or out-of-range selector")
        return self._descriptors[selector]  # type: ignore[return-value]

    def remove(self, selector: int) -> None:
        if 1 <= selector < len(self._descriptors):
            self._descriptors[selector] = None


class SegmentedView:
    """Memory access through a segment: every read/write is limit-checked.

    This is the only window Cosy gives a user-supplied function onto memory,
    so "any reference outside the isolated segment generates a protection
    fault" (§2.3) holds by construction.
    """

    def __init__(self, mmu: MMU, aspace: AddressSpace,
                 table: SegmentTable, selector: int):
        self.mmu = mmu
        self.aspace = aspace
        self.table = table
        self.selector = selector
        # cached identities (never reassigned by their owners): one
        # attribute hop per access instead of two or three
        self._descs = table._descriptors
        self._physdata = mmu.physmem._data
        self._tlb = mmu._tlb

    @property
    def descriptor(self) -> SegmentDescriptor:
        return self.table.descriptor(self.selector)

    @property
    def limit(self) -> int:
        return self.descriptor.limit

    def read(self, offset: int, size: int) -> bytes:
        # The limit check is inlined on the pass path; descriptor.check
        # re-runs only to raise with the full diagnostic.  Scalar loads of
        # compiled code take try_read_int instead.
        sel = self.selector
        descs = self._descs
        desc = descs[sel] if 0 < sel < len(descs) else None
        if desc is None:
            desc = self.table.descriptor(sel)      # raises the right fault
        if offset < 0 or size < 0 or offset + size > desc.limit \
                or not (desc.perms & SEG_READ):
            desc.check(offset, size, "r", sel)
        return self.mmu.read(self.aspace, desc.base + offset, size)

    def write(self, offset: int, data: bytes) -> None:
        sel = self.selector
        descs = self._descs
        desc = descs[sel] if 0 < sel < len(descs) else None
        if desc is None:
            desc = self.table.descriptor(sel)
        size = len(data)
        if offset < 0 or offset + size > desc.limit \
                or not (desc.perms & SEG_WRITE):
            desc.check(offset, size, "w", sel)
        self.mmu.write(self.aspace, desc.base + offset, data)

    def try_read_int(self, offset: int, size: int,
                     signed: bool) -> int | None:
        """:meth:`MMU.try_read_int` through the segment: the scalar load a
        passing limit/permission check and a TLB hit complete, or
        ``None`` -- having changed nothing -- for :meth:`read` to fault,
        miss or straddle."""
        sel = self.selector
        descs = self._descs
        desc = descs[sel] if 0 < sel < len(descs) else None
        decode = (LOAD_SIGNED if signed else LOAD).get(size)
        if desc is None or decode is None or offset < 0 \
                or offset + size > desc.limit or not desc.perms & SEG_READ:
            return None
        vaddr = desc.base + offset
        off = vaddr & (PAGE_SIZE - 1)
        if off + size > PAGE_SIZE:
            return None
        vpn = vaddr >> PAGE_SHIFT
        aspace = self.aspace
        pt = aspace.kernel_pt if vaddr >= KERNEL_BASE else aspace.user_pt
        pte = pt._entries.get(vpn)
        tlb = self._tlb
        if pte is None or not pte.present or not pte.perms & PERM_R \
                or vpn not in tlb or VMALLOC_BASE <= vaddr < VMALLOC_END:
            return None
        tlb.move_to_end(vpn)
        self.mmu.tlb_hits += 1
        data = self._physdata.get(pte.frame)
        if data is None:
            data = self.mmu.physmem.frame_bytes(pte.frame)
        return decode(data, off)[0]

    def try_write_int(self, offset: int, value: int, size: int) -> bool:
        """The scalar store counterpart of :meth:`try_read_int`
        (``value`` already truncated to ``size`` bytes); False sends the
        caller to :meth:`write`."""
        sel = self.selector
        descs = self._descs
        desc = descs[sel] if 0 < sel < len(descs) else None
        encode = STORE.get(size)
        if desc is None or encode is None or offset < 0 \
                or offset + size > desc.limit or not desc.perms & SEG_WRITE:
            return False
        vaddr = desc.base + offset
        off = vaddr & (PAGE_SIZE - 1)
        if off + size > PAGE_SIZE:
            return False
        vpn = vaddr >> PAGE_SHIFT
        aspace = self.aspace
        pt = aspace.kernel_pt if vaddr >= KERNEL_BASE else aspace.user_pt
        pte = pt._entries.get(vpn)
        tlb = self._tlb
        if pte is None or not pte.present or not pte.perms & PERM_W \
                or vpn not in tlb or VMALLOC_BASE <= vaddr < VMALLOC_END:
            return False
        tlb.move_to_end(vpn)
        self.mmu.tlb_hits += 1
        buf = self._physdata.get(pte.frame)
        if buf is None:
            buf = self.mmu.physmem.frame_bytes(pte.frame)
        encode(buf, off, value)
        return True

    def read_i64(self, offset: int) -> int:
        return int.from_bytes(self.read(offset, 8), "little", signed=True)

    def write_i64(self, offset: int, value: int) -> None:
        self.write(offset, value.to_bytes(8, "little", signed=True))
