"""Per-layer host timing for the traced benchmark run.

A :class:`LayerTracer` installs class-level timing wrappers on each
layer's entry points (the ``ENTRY_POINTS`` table), keeps one span stack
for the whole process, and aggregates online the *self* time of every
layer: a span's duration minus the part of it that its child spans
cover.  Raw spans are kept only for a bounded prefix of ops and written
out as a Chrome trace at the end.  :meth:`LayerTracer.close` puts every
patched attribute back, so a kernel booted afterwards runs the original
code.

The tracer also owns the *window*: the stretch of simulated time the
per-layer simulated metrics cover.  Each :meth:`LayerTracer.window`
block snapshots the kernel's cycle attribution, metrics registry and
copy counters on entry and exit and adds the differences up.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

#: layer -> [(module, class, methods)].  Entry points are where a call
#: crosses into the layer; MMU reads are too hot to wrap.
ENTRY_POINTS: dict[str, list[tuple[str, str, tuple[str, ...]]]] = {
    # every trap, including the installed net and uring syscalls, goes
    # through the one dispatcher
    "kernel.syscalls": [
        ("repro.kernel.syscalls.interface", "SyscallInterface",
         ("_dispatch",))],
    "kernel.net": [
        ("repro.kernel.net.syscalls", "SocketLayer",
         ("do_socket", "do_socketpair", "do_bind", "do_listen", "do_connect",
          "do_accept", "do_shutdown", "do_sendfile", "do_select",
          "do_epoll_create", "do_epoll_ctl", "do_epoll_wait")),
        ("repro.kernel.net.nic", "Nic", ("transmit", "kick")),
        ("repro.kernel.net.epoll", "EpollInode", ("collect", "ctl_add"))],
    # the in-kernel half of cosy_exec: wrapping the public execute()
    # would leave the compound interpreter inside the syscall layer's
    # self time, since execute() is a trap around this call
    "core.cosy": [
        ("repro.core.cosy.kernel_ext", "CosyKernelExtension",
         ("_execute_in_kernel",))],
    "kernel.uring": [
        ("repro.kernel.uring.queue", "UringQueue",
         ("submit", "enter", "harvest"))],
    "cminus": [
        ("repro.cminus.compile", "CompiledEngine", ("call",)),
        ("repro.cminus.compile", "CodeCache", ("lookup",))],
    "safety.kgcc": [
        ("repro.safety.kgcc.runtime", "KgccRuntime",
         ("check_deref", "check_index", "check_arith"))],
    "kernel.fs": [
        ("repro.kernel.fs.disk", "BufferCache", ("read", "write")),
        ("repro.kernel.fs.disk", "Disk", ("read_block", "write_block"))],
    "kernel.memory": [
        ("repro.kernel.memory.kmalloc", "KmallocAllocator",
         ("kmalloc", "kfree"))],
    "kernel.sched": [
        ("repro.kernel.sched", "Scheduler", ("switch_to",)),
        ("repro.kernel.sched", "WaitQueue", ("sleep", "wake_all"))],
}

#: layers whose calls are too frequent for span records: they are timed
#: and counted, and their time still leaves their caller's self time
LEAN_LAYERS = frozenset({"safety.kgcc"})

#: the layer of the benchmark's own driver code (root span, serving loop)
DRIVER_LAYER = "workloads"

#: kernel cycle-attribution category -> the per-layer metric it feeds.
#: Every simulated cycle of a window lands in exactly one of these.
SIM_CATEGORIES = {
    "boundary": "kernel.syscalls.sim_boundary_cycles_per_op",
    "syscall": "kernel.syscalls.sim_handler_cycles_per_op",
    "copy": "kernel.syscalls.sim_copy_cycles_per_op",
    "net": "kernel.net.sim_self_cycles_per_op",
    "cosy": "core.cosy.sim_self_cycles_per_op",
    "cminus": "cminus.sim_self_cycles_per_op",
    "io": "kernel.fs.sim_io_cycles_per_op",
    "mem": "kernel.memory.sim_self_cycles_per_op",
    "sched": "kernel.sched.sim_self_cycles_per_op",
    "lock": "kernel.locks.sim_contention_cycles_per_op",
    "(untraced)": "workloads.sim_untraced_cycles_per_op",
}

#: spans kept for the Chrome trace, at most
MAX_SPANS = 20_000

_MISSING = object()


class LayerTracer:
    """Span stack, per-layer self/total time, and the simulated window."""

    def __init__(self, record_ops: int = 2):
        #: spans are recorded while ``op`` is below this
        self.record_ops = record_ops
        #: op id of the work in progress; the workload advances it
        self.op = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: (name, layer, start_ns, dur_ns, parent span index, op)
        self.spans: list[tuple | None] = []
        # frames are [child_ns, span index or -1]; the root never pops
        self._stack: list[list[int]] = [[0, -1]]
        self._patches: list[tuple[type, str, object]] = []
        #: set once the kernel is booted; windows snapshot it
        self.kernel = None
        #: extra object counters to snapshot with each window
        self.counters = None
        #: summed window deltas (see :meth:`_snapshot` for the keys)
        self.window_totals: dict[str, int] = defaultdict(int)

    # ----------------------------------------------------------- patching

    def patch(self, cls: type, name: str, fn) -> None:
        """Replace ``cls.name`` with ``fn`` until :meth:`close`."""
        self._patches.append((cls, name, cls.__dict__.get(name, _MISSING)))
        setattr(cls, name, fn)

    def install(self) -> None:
        """Wrap every entry point of ``ENTRY_POINTS``."""
        for layer, targets in ENTRY_POINTS.items():
            for module, cls_name, methods in targets:
                cls = getattr(importlib.import_module(module), cls_name)
                for method in methods:
                    fn = getattr(cls, method)
                    label = f"{cls_name}.{method}"
                    wrapper = (self._lean(layer, fn) if layer in LEAN_LAYERS
                               else self.timed(layer, label, fn))
                    self.patch(cls, method, wrapper)

    def close(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            cls, name, original = self._patches.pop()
            if original is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, original)

    # ------------------------------------------------------------- timing

    def timed(self, layer: str, label: str, fn):
        """``fn`` wrapped in a span of ``layer``."""
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns
        calls = self.calls
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0, -1]
            if tracer.op < tracer.record_ops and len(spans) < MAX_SPANS:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dur
                self_ns[layer] += dur - frame[0]
                calls[layer] += 1
                if frame[1] >= 0:
                    spans[frame[1]] = (label, layer, t0, dur, parent[1],
                                       tracer.op)

        return wrapper

    def _lean(self, layer: str, fn):
        """``fn`` timed and counted, without a span record."""
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                stack[-1][0] += dur
                self_ns[layer] += dur - frame[0]
                calls[layer] += 1

        return wrapper

    # ------------------------------------------------------------- window

    def _snapshot(self) -> dict[str, int]:
        """Everything a window measures, as additive integers:
        ``cycles``/``wall`` (simulated clocks), ``cat:<c>`` (self cycles
        per attribution category), ``n:<c>`` (span count per category),
        ``copy_bytes``, ``m:<metric>`` (numeric registry metrics) and
        ``x:<counter>`` (the workload's object counters)."""
        k = self.kernel
        out = {"cycles": k.clock.now, "wall": k.clock.wall_now,
               "copy_bytes": k.sys.ucopy.stats.total_bytes}
        att = k.trace.attribution()
        for s in att.spans.values():
            out[f"cat:{s.category}"] = (out.get(f"cat:{s.category}", 0)
                                        + s.self_cycles)
            out[f"n:{s.category}"] = out.get(f"n:{s.category}", 0) + s.count
        out["cat:(untraced)"] = att.untraced_cycles
        for name, value in k.metrics.snapshot().items():
            if isinstance(value, int):
                out[f"m:{name}"] = value
        if self.counters is not None:
            for name, value in self.counters().items():
                out[f"x:{name}"] = value
        return out

    @contextmanager
    def window(self):
        """Add the simulated work done inside the block to the totals."""
        before = self._snapshot()
        yield
        after = self._snapshot()
        totals = self.window_totals
        for key in before.keys() | after.keys():
            totals[key] += after.get(key, 0) - before.get(key, 0)

    # ------------------------------------------------------------- export

    def write_chrome_trace(self, path: Path) -> None:
        """Write the recorded spans as Chrome-trace JSON (open in Perfetto
        or chrome://tracing); parents are span indices in ``args``."""
        recorded = [(i, s) for i, s in enumerate(self.spans) if s is not None]
        base = min((s[2] for _, s in recorded), default=0)
        events = [{"name": name, "cat": layer, "ph": "X", "pid": 1,
                   "tid": 1, "ts": (start - base) / 1e3, "dur": dur / 1e3,
                   "args": {"id": i, "parent": parent, "op": op}}
                  for i, (name, layer, start, dur, parent, op) in recorded]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


# ----------------------------------------------------------------- metrics

def _merged_percentiles(snaps: list[dict], pcts: tuple[float, ...]
                        ) -> tuple[list[float], int]:
    """Percentiles of several histogram snapshots taken together."""
    from repro.analysis.slo import histogram_percentile
    from repro.trace.metrics import Histogram

    h = Histogram("merged")
    for s in snaps:
        if not s or not s["count"]:
            continue
        h.count += s["count"]
        h.sum += s["sum"]
        h.min = s["min"] if h.min is None else min(h.min, s["min"])
        h.max = max(h.max, s["max"])
        for b, n in s["buckets"].items():
            h.buckets[int(b)] = h.buckets.get(int(b), 0) + n
    return [histogram_percentile(h, p) for p in pcts], h.count


def layer_metrics(traced: list[dict]) -> dict:
    """The per-layer metrics of the traced rounds' records (all but the
    tracing overhead, which needs the untraced rounds too)."""
    ops = sum(r["ops"] for r in traced)
    self_ns: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    win: dict[str, int] = defaultdict(int)
    for r in traced:
        # span times are wall time; count them in the round's steady
        # seconds like every other host time.  Speed probes fire at
        # evenly spaced times, so each layer's spans hold its share of
        # the probe time, and the one ratio takes that out too.
        steady = r["host_s"] / r["host_wall_s"]
        for name, value in r["layers"]["self_ns"].items():
            self_ns[name] += value * steady
        for key, dest in (("calls", calls), ("window", win)):
            for name, value in r["layers"][key].items():
                dest[name] += value

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def summed(prefix: str, suffix: str) -> int:
        return sum(v for k, v in win.items()
                   if k.startswith(prefix) and k.endswith(suffix))

    m: dict[str, float] = {}
    for layer in (*ENTRY_POINTS, DRIVER_LAYER):
        m[f"{layer}.host_self_us_per_op"] = self_ns[layer] / 1e3 / ops
        m[f"{layer}.calls_per_op"] = calls[layer] / ops
    for cat, name in SIM_CATEGORIES.items():
        m[name] = win[f"cat:{cat}"] / ops
    m["kernel.syscalls.crossings_per_op"] = win["n:boundary"] / ops
    m["kernel.syscalls.copy_bytes_per_op"] = win["copy_bytes"] / ops
    m["kernel.net.packets_per_op"] = (win["m:net.tx_packets"]
                                      + win["m:net.rx_packets"]) / ops
    m["kernel.net.epoll_events_per_wait"] = ratio(win["m:epoll.events"],
                                                  win["m:epoll.waits"])
    m["kernel.net.refused"] = win["m:net.conn_refused"]
    m["kernel.net.backlog_overflows"] = win["m:net.backlog_overflow"]
    m["core.cosy.ops_per_compound"] = ratio(win["n:cosy"], calls["core.cosy"])
    m["kernel.uring.sqes_per_op"] = win["m:uring.sqes"] / ops
    m["kernel.uring.enters_per_op"] = win["m:uring.enters"] / ops
    hits, misses = win["m:cminus.cache.hits"], win["m:cminus.cache.misses"]
    m["cminus.cache_hit_ratio"] = ratio(hits, hits + misses)
    m["safety.kgcc.checks_per_op"] = win["x:kgcc.checks"] / ops
    m["safety.kgcc.check_failures"] = win["x:kgcc.check_failures"]
    hits, misses = summed("m:bcache.", ".hits"), summed("m:bcache.", ".misses")
    m["kernel.fs.bcache_hit_ratio"] = ratio(hits, hits + misses)
    m["kernel.fs.disk_ios_per_op"] = (summed("m:disk.", ".reads")
                                      + summed("m:disk.", ".writes")) / ops
    hits, misses = win["m:mmu.tlb_hits"], win["m:mmu.tlb_misses"]
    m["kernel.memory.tlb_miss_ratio"] = ratio(misses, hits + misses)
    m["kernel.sched.switches_per_op"] = win["m:sched.context_switches"] / ops
    (p99,), _ = _merged_percentiles(
        [r["hist"].get("sched.delay") for r in traced], (99,))
    m["kernel.sched.delay_p99_cycles"] = p99
    m["kernel.sched.ipis_per_op"] = win["m:sched.ipis"] / ops
    m["kernel.sched.steals_per_op"] = win["m:sched.steals"] / ops
    m["kernel.sched.wall_speedup"] = ratio(win["cycles"], win["wall"])
    m["kernel.locks.contentions_per_op"] = win["n:lock"] / ops
    tenants = sorted({k for r in traced for k in r["hist"]
                      if k.startswith("tenant:")})
    (p50, p99), samples = _merged_percentiles(
        [r["hist"][t] for r in traced for t in tenants], (50, 99))
    m["workloads.sim_latency_p50_cycles"] = p50
    m["workloads.sim_latency_p99_cycles"] = p99
    m["workloads.latency_samples"] = samples
    m["workloads.fail_frac"] = sum(r["failed"] + r["refused"]
                                   for r in traced) / ops
    m["workloads.worst_tenant_p99_cycles"] = max(
        (_merged_percentiles([r["hist"][t] for r in traced], (99,))[0][0]
         for t in tenants), default=0.0)
    return m
