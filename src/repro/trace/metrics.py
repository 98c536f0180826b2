"""The kernel-wide metrics registry: named counters, gauges, histograms.

Before this module every subsystem kept its own ad-hoc counters (MMU TLB
hits, ``CodeCache`` hits/misses, epoll waits, failpoint hit counts, lock
profiles) with no shared namespace or report.  :class:`MetricsRegistry`
is the one place they all register, Prometheus-style:

* a :class:`Counter` is a monotonically increasing integer a subsystem
  increments directly (``kernel.metrics.counter("epoll.waits").inc()``);
* a :class:`Gauge` is either a stored value or a *callback* over state the
  subsystem already keeps — the collector pattern used for hot-path
  counters (the MMU's TLB counters stay plain ``int`` attributes so the
  hottest loop in the simulator is untouched; the gauge reads them at
  report time);
* a :class:`Histogram` buckets observations by power of two (bucket *i*
  holds values with bit length *i*), enough to see a hold-time or
  span-length distribution without storing samples.

Metrics carry no simulated cost: registering or bumping one never touches
the :class:`~repro.kernel.clock.Clock`.
"""

from __future__ import annotations

from typing import Callable, Iterator


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, {self.value})"


class PercpuCounter:
    """A counter sharded per CPU with a summed classic view.

    Hot-path subsystems (scheduler switch counts, NIC per-packet counts)
    increment the *executing CPU's* shard — no shared object is written
    from two CPUs — and readers see the summed total through ``value``,
    indistinguishable from a plain :class:`Counter`.  On a single-CPU
    kernel there is exactly one shard.

    The shard index comes from the clock's :attr:`~repro.kernel.clock.
    Clock.cpu`; a registry built without a clock pins everything to
    shard 0.
    """

    __slots__ = ("name", "help", "shards", "_clock")

    def __init__(self, name: str, help: str = "", clock=None, cpus: int = 1):
        self.name = name
        self.help = help
        self.shards = [0] * max(int(cpus), 1)
        self._clock = clock

    def inc(self, n: int = 1) -> None:
        clock = self._clock
        self.shards[clock.cpu if clock is not None else 0] += n

    @property
    def value(self) -> int:
        return sum(self.shards)

    def per_cpu(self) -> list[int]:
        """Copy of the per-CPU shard values."""
        return list(self.shards)

    def reset(self) -> None:
        self.shards = [0] * len(self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PercpuCounter({self.name!r}, {self.value}, " \
               f"shards={len(self.shards)})"


class Gauge:
    """A point-in-time value: either stored (``set``) or computed by a
    callback over state the owning subsystem already maintains."""

    __slots__ = ("name", "help", "fn", "_value")

    def __init__(self, name: str, fn: Callable[[], float] | None = None,
                 help: str = ""):
        self.name = name
        self.help = help
        self.fn = fn
        self._value: float = 0

    def set(self, value: float) -> None:
        if self.fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed")
        self._value = value

    @property
    def value(self) -> float:
        return self.fn() if self.fn is not None else self._value

    def reset(self) -> None:
        if self.fn is None:
            self._value = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Power-of-two bucketed distribution (bucket i: bit_length == i)."""

    __slots__ = ("name", "help", "count", "sum", "min", "max", "buckets")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.count = 0
        self.sum = 0
        self.min: int | None = None
        self.max = 0
        self.buckets: dict[int, int] = {}

    def observe(self, value: int) -> None:
        # Hot: every scheduling delay and, traced, every preemption
        # point.  Compare-and-assign beats the min()/max() builtins.
        if value < 0:
            raise ValueError(f"negative observation: {value}")
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        buckets = self.buckets
        b = int(value).bit_length()
        buckets[b] = buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def reset(self) -> None:
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = 0
        self.buckets.clear()

    def snapshot(self) -> dict:
        return {"count": self.count, "sum": self.sum, "min": self.min,
                "max": self.max, "mean": self.mean,
                "buckets": dict(sorted(self.buckets.items()))}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.1f})"


Metric = Counter | PercpuCounter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create registry of named metrics (one per kernel).

    Pass the kernel's clock to size :class:`PercpuCounter` shards to the
    machine's CPU count and route increments to the executing CPU; with
    no clock every per-CPU counter has a single shard.
    """

    def __init__(self, clock=None) -> None:
        self._metrics: dict[str, Metric] = {}
        self._clock = clock

    def _get(self, name: str, cls, **kwargs):
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = cls(name, **kwargs)
        elif not isinstance(m, cls):
            raise ValueError(
                f"metric {name!r} already registered as {type(m).__name__}")
        return m

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help=help)

    def percpu_counter(self, name: str, help: str = "") -> PercpuCounter:
        clock = self._clock
        return self._get(name, PercpuCounter, help=help, clock=clock,
                         cpus=getattr(clock, "cpus", 1))

    def gauge(self, name: str, fn: Callable[[], float] | None = None,
              help: str = "") -> Gauge:
        g = self._get(name, Gauge, fn=fn, help=help)
        if fn is not None:
            g.fn = fn   # re-registration rebinds: the newest object wins
        return g

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(name, Histogram, help=help)

    # ------------------------------------------------------------- queries

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, object]:
        """{name: value} (histograms expand to their summary dict)."""
        out: dict[str, object] = {}
        for name in sorted(self._metrics):
            m = self._metrics[name]
            out[name] = m.snapshot() if isinstance(m, Histogram) else m.value
        return out

    def reset(self) -> None:
        """Zero every stored metric (callback gauges are views, untouched)."""
        for m in self._metrics.values():
            m.reset()

    def render(self, prefix: str = "") -> str:
        """Text report of every metric (optionally filtered by prefix)."""
        lines = ["== metrics =="]
        for name in sorted(self._metrics):
            if prefix and not name.startswith(prefix):
                continue
            m = self._metrics[name]
            if isinstance(m, Histogram):
                lines.append(
                    f"  {name:<40} n={m.count} sum={m.sum} "
                    f"mean={m.mean:.1f} max={m.max}")
            else:
                value = m.value
                shown = f"{value:.3f}" if isinstance(value, float) \
                    and not float(value).is_integer() else f"{int(value)}"
                lines.append(f"  {name:<40} {shown}")
        if len(lines) == 1:
            lines.append("  (no metrics registered)")
        return "\n".join(lines)
