"""The KGCC address map: live objects and out-of-bounds peers.

"The checks are simply function calls to the BCC runtime environment,
which maintains a map of currently allocated memory in a splay tree; the
tree is consulted before any memory operation."

Out-of-bounds peers (§3.4, the paper's own contribution over BCC):
"Whenever an out-of-bounds address is created by arithmetic on an object
O, we insert a special out-of-bounds (OOB) object at the new address into
the address map, and make it a peer of object O.  Our KGCC runtime
permits only pointer arithmetic on OOB objects, which can either generate
another peer or return to O's bounds."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass
class MemObject:
    """One registered live allocation."""

    base: int
    size: int
    kind: str         # 'stack' | 'heap' | 'global'
    site: str = "?"

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    @property
    def end(self) -> int:
        return self.base + self.size


@dataclass
class OOBObject:
    """An out-of-bounds marker peered to a real object."""

    addr: int
    peer: MemObject
    site: str = "?"


class ObjectMap:
    """The splay-tree-backed address map consulted by every check.

    ``on_visit(n)`` is invoked with the number of splay nodes touched per
    operation — the KGCC runtime charges cycles through it.
    """

    def __init__(self, on_visit: Callable[[int], None] | None = None):
        from repro.safety.kgcc.splay import SplayTree

        self._tree = SplayTree()
        self._oob: dict[int, OOBObject] = {}
        #: one-past-the-end addresses that checked arithmetic produced,
        #: and the object each one ends
        self.one_past: dict[int, MemObject] = {}
        self.on_visit = on_visit
        self.registrations = 0
        self.lookups = 0

    def _charge(self, before: int) -> None:
        if self.on_visit is not None:
            self.on_visit(self._tree.visits - before)

    # ------------------------------------------------------------- objects

    def register(self, base: int, size: int, kind: str, site: str = "?"
                 ) -> MemObject:
        if size <= 0:
            raise ValueError(f"object of non-positive size at {base:#x}")
        before = self._tree.visits
        obj = MemObject(base, size, kind, site)
        self._tree.insert(base, obj)
        self.registrations += 1
        self._charge(before)
        return obj

    def unregister(self, base: int) -> MemObject | None:
        before = self._tree.visits
        obj = self._tree.remove(base)
        # Any peers of this object, and its one-past address, die with it.
        if obj is not None:
            dead = [a for a, o in self._oob.items() if o.peer is obj]
            for a in dead:
                del self._oob[a]
            self.one_past.pop(obj.end, None)
        self._charge(before)
        return obj

    def lookup(self, addr: int) -> MemObject | None:
        """The live object whose range covers ``addr``, if any."""
        before = self._tree.visits
        self.lookups += 1
        hit = self._tree.find_le(addr)
        self._charge(before)
        if hit is None:
            return None
        _, obj = hit
        return obj if obj.contains(addr) else None

    # ----------------------------------------------------------- OOB peers

    def make_peer(self, addr: int, peer: MemObject, site: str = "?"
                  ) -> OOBObject:
        oob = OOBObject(addr, peer, site)
        self._oob[addr] = oob
        return oob

    def oob_at(self, addr: int) -> OOBObject | None:
        return self._oob.get(addr)

    # ------------------------------------------------------------- queries

    @property
    def live_objects(self) -> int:
        return len(self._tree)
