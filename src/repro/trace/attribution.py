"""Hierarchical cycle attribution: where did every simulated cycle go?

The tracer maintains a span stack; when a span ends, its *total* cycles
(end − begin) and *self* cycles (total minus the totals of its direct
children) are accumulated here, keyed by the span-stack tuple
``(outermost, ..., leaf)`` — the eBPF idiom of counting per stack id in a
map instead of streaming samples.  Because every cycle of the traced
window falls either inside some stack's self time or outside all spans
(``untraced``), the attribution is a complete, exact decomposition::

    sum(self_cycles over all stacks) + untraced_cycles == window_cycles
                                                        == Δ(user+system+iowait)

which is asserted by ``tests/trace/`` and the CI trace job.
:meth:`Attribution.folded` is that decomposition in flamegraph form;
:attr:`Attribution.spans` sums it per leaf name.  Reports are diffable:
:meth:`Attribution.diff` explains *why* one run was faster than another,
span by span.
"""

from __future__ import annotations

from dataclasses import dataclass


#: folded-stack frame (and category) for cycles charged outside any span
UNTRACED = "(untraced)"


@dataclass
class SpanStat:
    """Accumulated cycles for one span stack (or, summed, one span name)."""

    category: str
    count: int = 0
    total_cycles: int = 0
    self_cycles: int = 0


def merge_stat(into: dict, key, s: SpanStat) -> None:
    """Add ``s`` into ``into[key]`` (a copy of ``s`` if ``key`` is new)."""
    m = into.get(key)
    if m is None:
        into[key] = SpanStat(s.category, s.count, s.total_cycles,
                             s.self_cycles)
    else:
        m.count += s.count
        m.total_cycles += s.total_cycles
        m.self_cycles += s.self_cycles


class Attribution:
    """A complete decomposition of one traced window's elapsed cycles."""

    def __init__(self, window_cycles: int, untraced_cycles: int,
                 stacks: dict[tuple[str, ...], SpanStat]):
        self.window_cycles = window_cycles
        self.untraced_cycles = untraced_cycles
        #: exact per-stack stats, keyed ``(outermost, ..., leaf)``
        self.stacks = stacks
        #: the same cycles summed per leaf span name
        self.spans: dict[str, SpanStat] = {}
        for key, s in stacks.items():
            merge_stat(self.spans, key[-1], s)

    # ------------------------------------------------------------ queries

    @property
    def attributed_cycles(self) -> int:
        return sum(s.self_cycles for s in self.spans.values())

    @property
    def complete(self) -> bool:
        """True iff self cycles + untraced cycles cover the window exactly."""
        return self.attributed_cycles + self.untraced_cycles \
            == self.window_cycles

    def by_category(self) -> dict[str, int]:
        """Self cycles per subsystem, plus the untraced residual."""
        out: dict[str, int] = {}
        for s in self.spans.values():
            out[s.category] = out.get(s.category, 0) + s.self_cycles
        if self.untraced_cycles:
            out[UNTRACED] = self.untraced_cycles
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def folded(self) -> dict[str, int]:
        """Exact folded stacks: ``"outer;...;leaf" -> self cycles``, with
        the untraced residual as its own ``(untraced)`` entry, so the
        values sum to :attr:`window_cycles` exactly."""
        out = {";".join(key): s.self_cycles for key, s in self.stacks.items()}
        if self.untraced_cycles:
            out[UNTRACED] = self.untraced_cycles
        return out

    def total_of(self, name: str) -> int:
        s = self.spans.get(name)
        return s.total_cycles if s is not None else 0

    def self_of(self, name: str) -> int:
        s = self.spans.get(name)
        return s.self_cycles if s is not None else 0

    def category_self(self, category: str) -> int:
        return sum(s.self_cycles for s in self.spans.values()
                   if s.category == category)

    def category_total(self, category: str) -> int:
        return sum(s.total_cycles for s in self.spans.values()
                   if s.category == category)

    # ---------------------------------------------------------- reporting

    def to_dict(self) -> dict:
        """JSON-ready form (the BENCH_*.json attribution section)."""
        return {
            "window_cycles": self.window_cycles,
            "untraced_cycles": self.untraced_cycles,
            "complete": self.complete,
            "self_cycles_by_category": self.by_category(),
            "spans": {
                name: {"category": s.category, "count": s.count,
                       "total_cycles": s.total_cycles,
                       "self_cycles": s.self_cycles}
                for name, s in sorted(self.spans.items(),
                                      key=lambda kv: -kv[1].self_cycles)
            },
        }

    def render(self, top: int = 30) -> str:
        """Two-level text report: per subsystem, then hottest spans."""
        lines = [f"== cycle attribution: {self.window_cycles:,} cycles =="]
        window = self.window_cycles or 1
        lines.append("  by subsystem (self cycles):")
        for cat, cycles in self.by_category().items():
            lines.append(f"    {cat:<12} {cycles:>14,}  "
                         f"({100.0 * cycles / window:5.1f}%)")
        ranked = sorted(self.spans.items(),
                        key=lambda kv: -kv[1].self_cycles)[:top]
        if ranked:
            lines.append("  hottest spans (self / total / count):")
            for name, s in ranked:
                lines.append(
                    f"    {name:<28} {s.self_cycles:>14,} / "
                    f"{s.total_cycles:>14,} / {s.count:>8,}")
        check = "OK" if self.complete else "INCOMPLETE"
        lines.append(f"  coverage: attributed {self.attributed_cycles:,} + "
                     f"untraced {self.untraced_cycles:,} "
                     f"= window {self.window_cycles:,} [{check}]")
        return "\n".join(lines)

    # --------------------------------------------------------------- diff

    def diff(self, baseline: "Attribution") -> dict[str, dict[str, int]]:
        """Per-span deltas of self/total/count vs. ``baseline``
        (positive = this run spent more).  Includes spans seen in either
        run, plus the window/untraced residual under ``"(window)"``."""
        out: dict[str, dict[str, int]] = {}
        for name in sorted(set(self.spans) | set(baseline.spans)):
            a, b = self.spans.get(name), baseline.spans.get(name)
            sa = a or SpanStat(b.category if b else "?")
            sb = b or SpanStat(sa.category)
            delta = {"self_cycles": sa.self_cycles - sb.self_cycles,
                     "total_cycles": sa.total_cycles - sb.total_cycles,
                     "count": sa.count - sb.count}
            if any(delta.values()):
                out[name] = delta
        out["(window)"] = {
            "self_cycles": self.untraced_cycles - baseline.untraced_cycles,
            "total_cycles": self.window_cycles - baseline.window_cycles,
            "count": 0}
        return out


def render_diff(diff: dict[str, dict[str, int]], top: int = 20) -> str:
    """Text table for :meth:`Attribution.diff` output, largest |Δself| first."""
    lines = ["== cycle attribution diff (this − baseline) =="]
    window = diff.get("(window)")
    if window is not None:
        lines.append(f"  window: {window['total_cycles']:+,} cycles, "
                     f"untraced: {window['self_cycles']:+,}")
    ranked = sorted(((k, v) for k, v in diff.items() if k != "(window)"),
                    key=lambda kv: -abs(kv[1]["self_cycles"]))[:top]
    for name, d in ranked:
        lines.append(f"  {name:<28} self {d['self_cycles']:+14,}  "
                     f"total {d['total_cycles']:+14,}  "
                     f"count {d['count']:+8,}")
    if not ranked:
        lines.append("  (no per-span differences)")
    return "\n".join(lines)
