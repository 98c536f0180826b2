"""The pointer-provenance abstract domain.

A pointer value is a set of *(region, byte-offset interval)* pairs: every
object the pointer may derive from, with the range of offsets it may hold
into each.  Regions with a known byte size (local arrays, local structs,
globals, ``malloc`` with a constant size, string literals) support bounds
proofs; parameters and unknown provenance never do.

A variable's region is its declaration's: it carries the scope
resolver's :class:`~repro.cminus.resolve.Binding`, so two declarations
of one name in sibling blocks are two regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cminus.resolve import Binding
from repro.safety.verifier.intervals import Interval

#: beyond this many distinct regions a pointer set degrades to unknown
MAX_REGIONS = 4


@dataclass(frozen=True)
class Region:
    """One allocation a pointer may point into."""

    kind: str                 # local | param | heap | string | global |
    #                           null | absolute | unknown
    name: str                 # variable name, alloc site, or literal text
    size: Optional[int] = None  # bytes; None = unknown at load time
    #: the variable whose storage this is (local and global regions)
    decl: Optional[Binding] = None

    @property
    def provable(self) -> bool:
        return self.size is not None

    @property
    def order(self) -> tuple:
        """Sort key of a pointer's regions: the declaration's line and
        scope path tell apart two declarations of one name."""
        d = self.decl
        return (self.kind, self.name, self.size or 0,
                (d.line, d.scope) if d is not None else (0, ()))

    def describe(self) -> str:
        size = f"{self.size}B" if self.size is not None else "unknown size"
        return f"{self.kind} '{self.name}' ({size})"


UNKNOWN_REGION = Region("unknown", "?", None)
NULL_REGION = Region("null", "0", 0)


@dataclass(frozen=True)
class PointerValue:
    """Abstract pointer: map of possible regions to byte-offset intervals.

    Frozen and hashable so states can be compared for the fixpoint test;
    the payload is a sorted tuple of (region, interval) pairs.
    """

    pointees: tuple[tuple[Region, Interval], ...] = ()

    # ------------------------------------------------------------- factory

    @staticmethod
    def to_region(region: Region,
                  offset: Interval | None = None) -> "PointerValue":
        return PointerValue(((region, offset or Interval.const(0)),))

    @staticmethod
    def unknown() -> "PointerValue":
        return PointerValue(((UNKNOWN_REGION, Interval.top()),))

    # ------------------------------------------------------------- queries

    @property
    def is_unknown(self) -> bool:
        return any(r.kind == "unknown" for r, _ in self.pointees)

    def regions(self) -> list[Region]:
        return [r for r, _ in self.pointees]

    def describe(self) -> str:
        if not self.pointees:
            return "no provenance"
        return " | ".join(f"{r.describe()}@{iv}" for r, iv in self.pointees)

    # ------------------------------------------------------------- lattice

    @staticmethod
    def _normalize(entries: dict[Region, Interval]) -> "PointerValue":
        if len(entries) > MAX_REGIONS:
            return PointerValue.unknown()
        ordered = tuple(sorted(entries.items(), key=lambda e: e[0].order))
        return PointerValue(ordered)

    def join(self, other: "PointerValue") -> "PointerValue":
        merged: dict[Region, Interval] = dict(self.pointees)
        for region, iv in other.pointees:
            prev = merged.get(region)
            merged[region] = iv if prev is None else prev.join(iv)
        return self._normalize(merged)

    def widen(self, other: "PointerValue") -> "PointerValue":
        merged: dict[Region, Interval] = dict(self.pointees)
        for region, iv in other.pointees:
            prev = merged.get(region)
            merged[region] = iv if prev is None else prev.widen(iv)
        return self._normalize(merged)

    # ---------------------------------------------------------- arithmetic

    def shift(self, delta: Interval) -> "PointerValue":
        """Pointer arithmetic: add ``delta`` (already scaled to bytes)."""
        return PointerValue(tuple((r, iv.add(delta))
                                  for r, iv in self.pointees))
