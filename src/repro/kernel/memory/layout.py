"""Address-space layout constants and page arithmetic helpers."""

from __future__ import annotations

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT  # 4096

USER_BASE = 0x0000_1000          # first page left unmapped to catch NULL
USER_END = 0xC000_0000
KERNEL_BASE = 0xC000_0000
KMALLOC_BASE = 0xC000_0000
KMALLOC_END = 0xF000_0000
VMALLOC_BASE = 0xF000_0000
VMALLOC_END = 0xFF80_0000


def page_align_down(addr: int) -> int:
    """Largest page boundary <= addr."""
    return addr & ~(PAGE_SIZE - 1)


def page_align_up(addr: int) -> int:
    """Smallest page boundary >= addr."""
    return (addr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


def vpn_of(addr: int) -> int:
    """Virtual page number containing addr."""
    return addr >> PAGE_SHIFT
