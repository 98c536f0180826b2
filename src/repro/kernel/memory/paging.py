"""Page tables and address spaces.

A :class:`PTE` carries the permission bits and the two flags the paper's
tools hook into: ``guard`` marks a Kefence guardian PTE (§3.2) and ``user``
distinguishes user from kernel mappings (the basis of the uaccess checks).

Kernel mappings (direct map + vmalloc area) live in a single shared
:class:`PageTable`; each :class:`AddressSpace` combines the shared kernel
table with a private user table, exactly as every Linux process shares the
kernel half of its address space.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.memory.layout import KERNEL_BASE, PAGE_SHIFT, vpn_of

PERM_R = 1
PERM_W = 2
PERM_X = 4


@dataclass(slots=True)
class PTE:
    """One page-table entry."""

    frame: int
    perms: int = PERM_R | PERM_W
    present: bool = True
    guard: bool = False
    user: bool = False

    def allows(self, access: str) -> bool:
        """Whether this PTE permits an ``'r'``/``'w'``/``'x'`` access."""
        if not self.present:
            return False
        if access == "r":
            need = PERM_R
        elif access == "w":
            need = PERM_W
        else:
            need = PERM_X
        return bool(self.perms & need)


class PageTable:
    """A sparse vpn → PTE map."""

    def __init__(self) -> None:
        self._entries: dict[int, PTE] = {}

    def map(self, vpn: int, pte: PTE) -> None:
        self._entries[vpn] = pte

    def unmap(self, vpn: int) -> PTE | None:
        return self._entries.pop(vpn, None)

    def lookup(self, vpn: int) -> PTE | None:
        return self._entries.get(vpn)

    def mapped_vpns(self) -> list[int]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class AddressSpace:
    """A process view of memory: private user half + shared kernel half."""

    def __init__(self, kernel_pt: PageTable):
        self.user_pt = PageTable()
        self.kernel_pt = kernel_pt

    def table_for(self, vaddr: int) -> PageTable:
        return self.kernel_pt if vaddr >= KERNEL_BASE else self.user_pt

    def lookup(self, vaddr: int) -> PTE | None:
        # hot path: every simulated byte access lands here — avoid the
        # table_for/vpn_of call chain
        pt = self.kernel_pt if vaddr >= KERNEL_BASE else self.user_pt
        return pt._entries.get(vaddr >> PAGE_SHIFT)

    def map_page(self, vaddr: int, pte: PTE) -> None:
        self.table_for(vaddr).map(vpn_of(vaddr), pte)
