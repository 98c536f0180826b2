"""Memory backends: segment layout discipline, kernel backend, and the
scalar fast path's contract."""

import pytest

from repro.cminus.memaccess import (KernelMemAccess, SegmentMemAccess,
                                   UserMemAccess)
from repro.errors import OutOfMemory, ProtectionFault
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.memory import AddressSpace
from repro.kernel.memory.layout import PAGE_SIZE
from repro.kernel.segments import SegmentDescriptor, SegmentTable, SegmentedView


def _segment(k, size=4096, reserve=256):
    base = k.vmalloc.vmalloc(size)
    table = SegmentTable()
    sel = table.install(SegmentDescriptor(base=base, limit=size, name="seg"))
    view = SegmentedView(k.mmu, AddressSpace(k.kernel_pt), table, sel)
    return SegmentMemAccess(view, static_reserve=reserve)


def test_segment_heap_and_stack_disjoint():
    k = Kernel()
    mem = _segment(k)
    heap = mem.malloc(64)
    stack = mem.alloc_stack(64)
    assert heap >= 256            # past the static reserve
    assert stack > heap           # stack comes down from the limit
    mem.write(heap, b"h" * 64)
    mem.write(stack, b"s" * 64)
    assert mem.read(heap, 64) == b"h" * 64
    assert mem.read(stack, 64) == b"s" * 64


def test_segment_heap_stack_collision_detected():
    k = Kernel()
    mem = _segment(k, size=1024, reserve=0)
    mem.alloc_stack(512)
    with pytest.raises(OutOfMemory):
        mem.malloc(600)
    mem2 = _segment(k, size=1024, reserve=0)
    mem2.malloc(512)
    with pytest.raises(OutOfMemory):
        mem2.alloc_stack(600)


def test_segment_free_and_reuse():
    k = Kernel()
    mem = _segment(k)
    a = mem.malloc(32)
    mem.free(a)
    assert mem.malloc(32) == a
    with pytest.raises(OutOfMemory):
        mem.free(0xABC)


def test_segment_stack_underflow_detected():
    k = Kernel()
    mem = _segment(k)
    addr = mem.alloc_stack(16)
    mem.free_stack(addr, 16)
    with pytest.raises(RuntimeError):
        mem.free_stack(addr, 16)


def test_segment_access_beyond_limit_faults():
    k = Kernel()
    mem = _segment(k, size=512)
    with pytest.raises(ProtectionFault):
        mem.read(512, 1)
    with pytest.raises(ProtectionFault):
        mem.write(510, b"xyz")


def test_kernel_backend_uses_kmalloc():
    k = Kernel()
    mem = KernelMemAccess(k)
    live0 = len(k.kmalloc.live)
    addr = mem.malloc(48)
    assert len(k.kmalloc.live) == live0 + 1
    mem.write(addr, b"kernel heap")
    assert mem.read(addr, 11) == b"kernel heap"
    mem.free(addr)
    assert len(k.kmalloc.live) == live0


def test_kernel_backend_stack_is_heap_backed():
    k = Kernel()
    mem = KernelMemAccess(k)
    addr = mem.alloc_stack(100)
    mem.write(addr, b"frame")
    assert mem.read(addr, 5) == b"frame"
    mem.free_stack(addr, 100)


# ------------------------------------------------------- scalar fast path

@pytest.fixture(params=["user", "kernel", "segment"])
def backend(request):
    """(kernel, backend, obj, base): the TLB is warm on a two-page object
    at backend address ``obj``, whose virtual address is ``base + obj``."""
    k = Kernel()
    base = 0
    if request.param == "user":
        k.mount_root(RamfsSuperBlock(k))
        mem = UserMemAccess(k, k.spawn("mem"))
    elif request.param == "kernel":
        mem = KernelMemAccess(k)
    else:
        # a segment over direct-mapped kernel memory: the fast path
        # declines vmalloc-area pages, which pay a TLB penalty
        size = 4 * PAGE_SIZE
        base = k.kmalloc.kmalloc(size)
        table = SegmentTable()
        sel = table.install(SegmentDescriptor(base=base, limit=size))
        mem = SegmentMemAccess(SegmentedView(k.mmu, AddressSpace(k.kernel_pt),
                                             table, sel))
    obj = mem.malloc(2 * PAGE_SIZE)
    mem.write(obj, bytes(range(256)) * (2 * PAGE_SIZE // 256))
    return k, mem, obj, base


def _mmu_state(k):
    return (k.clock.now, k.mmu.tlb_hits, k.mmu.tlb_misses, list(k.mmu._tlb))


def test_fast_path_hit_is_reads_hit(backend):
    """A TLB hit decodes what ``read`` returns, encodes what ``write``
    stores, counts one hit each and charges nothing."""
    k, mem, obj, _ = backend
    for size in (1, 2, 4, 8):
        for signed in (False, True):
            raw = mem.read(obj + 5, size)
            hits = k.mmu.tlb_hits
            clock = k.clock.now
            assert mem.try_read_int(obj + 5, size, signed) == \
                int.from_bytes(raw, "little", signed=signed)
            assert mem.try_write_int(obj + 5, (1 << 8 * size) - 2, size)
            assert (k.mmu.tlb_hits, k.clock.now) == (hits + 2, clock)
            assert mem.read(obj + 5, size) == b"\xfe" + b"\xff" * (size - 1)


def test_fast_path_declines_and_changes_nothing(backend):
    """A miss, a page-straddling access or another size returns
    None/False with the clock, the TLB and its counters untouched."""
    k, mem, obj, base = backend
    boundary = obj + PAGE_SIZE - (base + obj) % PAGE_SIZE
    before = _mmu_state(k)
    assert mem.try_read_int(obj, 3, False) is None
    assert not mem.try_write_int(obj, 0, 16)
    assert mem.try_read_int(boundary - 2, 4, True) is None
    assert not mem.try_write_int(boundary - 4, 0, 8)
    assert _mmu_state(k) == before
    k.mmu.flush_tlb()
    before = _mmu_state(k)
    assert mem.try_read_int(obj, 4, False) is None
    assert not mem.try_write_int(obj, 0, 4)
    assert _mmu_state(k) == before


def test_fast_path_declines_failed_segment_checks():
    """Past the limit, and on any vmalloc-area page, a view declines;
    ``read``/``write`` raise or charge as they always did."""
    k = Kernel()
    mem = _segment(k, size=512)     # over vmalloc memory
    mem.write(0, b"\0" * 8)
    before = _mmu_state(k)
    assert mem.try_read_int(0, 4, False) is None
    assert mem.try_read_int(510, 4, False) is None
    assert not mem.try_write_int(510, 0, 4)
    assert _mmu_state(k) == before
    with pytest.raises(ProtectionFault):
        mem.read(510, 4)
