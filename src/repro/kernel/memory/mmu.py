"""The MMU: every simulated byte access goes through here.

Responsibilities:

* translate virtual addresses through an :class:`AddressSpace`,
* enforce PTE permissions (raising :class:`PageFault`),
* run the kernel's page-fault handler chain and retry resolved faults
  (this is how Kefence's "auto-map a page on overflow" continue-mode works),
* model a small TLB and charge miss costs,
* charge the configured per-access penalty for vmalloc-area pages
  (the §3.2 "TLB contention" effect of page-granular allocation).

Fault handlers are callables ``handler(fault: PageFault) -> bool``; returning
True means the fault was resolved and the access should be retried.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

from repro.errors import PageFault
from repro.kernel.clock import Clock, Mode
from repro.kernel.costs import CostModel
from repro.kernel.memory.layout import (KERNEL_BASE, PAGE_SHIFT, PAGE_SIZE,
                                        VMALLOC_BASE,
                                        VMALLOC_END, vpn_of)
from repro.kernel.memory.paging import (PERM_R, PERM_W, PERM_X, AddressSpace,
                                        PTE)
from repro.kernel.memory.physmem import PhysicalMemory

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace import MetricsRegistry, Tracer

FaultHandler = Callable[[PageFault], bool]

#: Little-endian scalar codecs by size, compiled once: ``LOAD`` and
#: ``LOAD_SIGNED`` decode in place (``unpack_from(buf, off)``), ``STORE``
#: encodes in place (``pack_into(buf, off, value)``).  They serve the
#: scalar fast paths of the MMU and of segmented views.
LOAD = {n: struct.Struct("<" + c).unpack_from
        for n, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))}
LOAD_SIGNED = {n: struct.Struct("<" + c).unpack_from
               for n, c in ((1, "b"), (2, "h"), (4, "i"), (8, "q"))}
STORE = {n: struct.Struct("<" + c).pack_into
         for n, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))}


class MMU:
    """Byte-level memory access with translation, faults, and a TLB."""

    def __init__(self, physmem: PhysicalMemory, clock: Clock, costs: CostModel,
                 tlb_entries: int = 64, *, tracer: "Tracer | None" = None,
                 metrics: "MetricsRegistry | None" = None):
        self.physmem = physmem
        self._physdata = physmem._data    # never reassigned by its owner
        self.clock = clock
        self.costs = costs
        self.tlb_entries = tlb_entries
        self._tlb: OrderedDict[int, None] = OrderedDict()
        self.fault_handlers: list[FaultHandler] = []
        self._tracer = tracer
        # statistics: plain ints (this is the hottest loop in the whole
        # simulator), published to the metrics registry as callback gauges.
        self.tlb_misses = 0
        self.tlb_hits = 0
        self.faults_taken = 0
        self.faults_resolved = 0
        if metrics is not None:
            metrics.gauge("mmu.tlb_hits", fn=lambda: self.tlb_hits)
            metrics.gauge("mmu.tlb_misses", fn=lambda: self.tlb_misses)
            metrics.gauge("mmu.faults_taken", fn=lambda: self.faults_taken)
            metrics.gauge("mmu.faults_resolved",
                          fn=lambda: self.faults_resolved)

    # -------------------------------------------------------------- faults

    def add_fault_handler(self, handler: FaultHandler) -> None:
        """Install a page-fault handler ahead of the default (which re-raises)."""
        self.fault_handlers.append(handler)

    def remove_fault_handler(self, handler: FaultHandler) -> None:
        self.fault_handlers.remove(handler)

    def _handle_fault(self, fault: PageFault) -> None:
        """Run the handler chain; re-raise if nobody resolves the fault."""
        self.faults_taken += 1
        tracer = self._tracer
        traced = tracer is not None and tracer.enabled
        if traced:
            tracer.begin("mem:fault", "mem", vaddr=fault.vaddr,
                         access=fault.access)
        try:
            self.clock.charge(self.costs.page_fault, Mode.SYSTEM)
            for handler in self.fault_handlers:
                if handler(fault):
                    self.faults_resolved += 1
                    return
            raise fault
        finally:
            if traced:
                tracer.end()

    # --------------------------------------------------------- translation

    def flush_tlb(self) -> None:
        """Full TLB flush (charged by the scheduler on context switches)."""
        self._tlb.clear()

    def invalidate_tlb_page(self, vaddr: int) -> None:
        self._tlb.pop(vpn_of(vaddr), None)

    def translate(self, aspace: AddressSpace, vaddr: int, access: str) -> PTE:
        """Translate one address, retrying after resolvable faults."""
        while True:
            # aspace.lookup + pte.allows, inlined (hottest simulator path)
            pt = aspace.kernel_pt if vaddr >= KERNEL_BASE else aspace.user_pt
            pte = pt._entries.get(vaddr >> PAGE_SHIFT)
            if pte is not None and pte.present and pte.perms & (
                    PERM_R if access == "r" else
                    PERM_W if access == "w" else PERM_X):
                # TLB hit fast path, inlined: this is the hottest loop in
                # the whole simulator
                vpn = vaddr >> PAGE_SHIFT
                tlb = self._tlb
                if vpn in tlb:
                    tlb.move_to_end(vpn)
                    self.tlb_hits += 1
                else:
                    self.tlb_misses += 1
                    self.clock.charge(self.costs.tlb_miss)
                    tracer = self._tracer
                    if tracer is not None and tracer.enabled:
                        tracer.complete("mem:tlb_miss", "mem",
                                        self.costs.tlb_miss)
                    tlb[vpn] = None
                    if len(tlb) > self.tlb_entries:
                        tlb.popitem(last=False)
                if VMALLOC_BASE <= vaddr < VMALLOC_END:
                    self.clock.charge(self.costs.vmalloc_access_tlb_penalty)
                return pte
            present = pte is not None and pte.present
            guard = pte is not None and pte.guard
            self._handle_fault(PageFault(vaddr, access, present, guard=guard))
            # handler resolved it: loop and re-translate

    # --------------------------------------------------------------- bytes

    def read(self, aspace: AddressSpace, vaddr: int, size: int) -> bytes:
        """Read ``size`` bytes, page by page."""
        off = vaddr & (PAGE_SIZE - 1)
        if off + size <= PAGE_SIZE:
            # single-page fast path: the overwhelmingly common case
            # (scalar loads are 1-8 bytes).  The TLB-hit half of
            # translate() is inlined here; any miss, fault, or vmalloc
            # access falls back to the full path.
            vpn = vaddr >> PAGE_SHIFT
            pt = aspace.kernel_pt if vaddr >= KERNEL_BASE else aspace.user_pt
            pte = pt._entries.get(vpn)
            if pte is not None and pte.present and pte.perms & PERM_R \
                    and vpn in self._tlb \
                    and not VMALLOC_BASE <= vaddr < VMALLOC_END:
                self._tlb.move_to_end(vpn)
                self.tlb_hits += 1
            else:
                pte = self.translate(aspace, vaddr, "r")
            return bytes(self.physmem.frame_bytes(pte.frame)[off:off + size])
        out = bytearray()
        addr = vaddr
        remaining = size
        while remaining > 0:
            pte = self.translate(aspace, addr, "r")
            off = addr & (PAGE_SIZE - 1)
            n = min(remaining, PAGE_SIZE - off)
            out += self.physmem.frame_bytes(pte.frame)[off:off + n]
            addr += n
            remaining -= n
        return bytes(out)

    def write(self, aspace: AddressSpace, vaddr: int, data: bytes) -> None:
        """Write ``data``, page by page."""
        off = vaddr & (PAGE_SIZE - 1)
        n = len(data)
        if off + n <= PAGE_SIZE:
            vpn = vaddr >> PAGE_SHIFT
            pt = aspace.kernel_pt if vaddr >= KERNEL_BASE else aspace.user_pt
            pte = pt._entries.get(vpn)
            if pte is not None and pte.present and pte.perms & PERM_W \
                    and vpn in self._tlb \
                    and not VMALLOC_BASE <= vaddr < VMALLOC_END:
                self._tlb.move_to_end(vpn)
                self.tlb_hits += 1
            else:
                pte = self.translate(aspace, vaddr, "w")
            self.physmem.frame_bytes(pte.frame)[off:off + n] = data
            return
        addr = vaddr
        view = memoryview(data)
        while len(view) > 0:
            pte = self.translate(aspace, addr, "w")
            off = addr & (PAGE_SIZE - 1)
            n = min(len(view), PAGE_SIZE - off)
            self.physmem.frame_bytes(pte.frame)[off:off + n] = view[:n]
            addr += n
            view = view[n:]

    # ---------------------------------------------------- scalar fast path

    def try_read_int(self, aspace: AddressSpace, vaddr: int, size: int,
                     signed: bool) -> int | None:
        """The scalar load a TLB hit completes, or ``None``.

        A single-page load of 1, 2, 4 or 8 bytes whose PTE allows it and
        whose page is in the TLB (outside the vmalloc area) is performed
        exactly as :meth:`read`'s hit path performs it -- LRU bump and
        ``tlb_hits`` -- and decoded little-endian with a precompiled
        ``struct`` codec.  It neither reads nor charges the clock.  Any
        other access returns ``None`` having changed nothing, and the
        caller takes :meth:`read`."""
        off = vaddr & (PAGE_SIZE - 1)
        decode = (LOAD_SIGNED if signed else LOAD).get(size)
        if decode is None or off + size > PAGE_SIZE:
            return None
        vpn = vaddr >> PAGE_SHIFT
        pt = aspace.kernel_pt if vaddr >= KERNEL_BASE else aspace.user_pt
        pte = pt._entries.get(vpn)
        tlb = self._tlb
        if pte is None or not pte.present or not pte.perms & PERM_R \
                or vpn not in tlb or VMALLOC_BASE <= vaddr < VMALLOC_END:
            return None
        tlb.move_to_end(vpn)
        self.tlb_hits += 1
        data = self._physdata.get(pte.frame)
        if data is None:
            data = self.physmem.frame_bytes(pte.frame)
        return decode(data, off)[0]

    def try_write_int(self, aspace: AddressSpace, vaddr: int, value: int,
                      size: int) -> bool:
        """The scalar store a TLB hit completes: :meth:`try_read_int`'s
        rules with write permission.  ``value`` is already truncated to
        ``size`` bytes (``0 <= value < 2**(8*size)``).  Returns False,
        having changed nothing, when the caller must take :meth:`write`."""
        off = vaddr & (PAGE_SIZE - 1)
        encode = STORE.get(size)
        if encode is None or off + size > PAGE_SIZE:
            return False
        vpn = vaddr >> PAGE_SHIFT
        pt = aspace.kernel_pt if vaddr >= KERNEL_BASE else aspace.user_pt
        pte = pt._entries.get(vpn)
        tlb = self._tlb
        if pte is None or not pte.present or not pte.perms & PERM_W \
                or vpn not in tlb or VMALLOC_BASE <= vaddr < VMALLOC_END:
            return False
        tlb.move_to_end(vpn)
        self.tlb_hits += 1
        buf = self._physdata.get(pte.frame)
        if buf is None:
            buf = self.physmem.frame_bytes(pte.frame)
        encode(buf, off, value)
        return True

    # Fixed-width integer helpers (little-endian, like x86).

    def read_u32(self, aspace: AddressSpace, vaddr: int) -> int:
        return int.from_bytes(self.read(aspace, vaddr, 4), "little")

    def write_u32(self, aspace: AddressSpace, vaddr: int, value: int) -> None:
        self.write(aspace, vaddr, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def read_i64(self, aspace: AddressSpace, vaddr: int) -> int:
        return int.from_bytes(self.read(aspace, vaddr, 8), "little", signed=True)

    def write_i64(self, aspace: AddressSpace, vaddr: int, value: int) -> None:
        self.write(aspace, vaddr, value.to_bytes(8, "little", signed=True))
