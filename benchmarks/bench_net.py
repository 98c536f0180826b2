"""E11 (§2.1/§2.4): boundary crossings dominate concurrent serving.

Three HTTP servers do identical per-request work (accept → read request →
open → sendfile → close) against N keep-alive clients on the simulated
network stack; they differ only in crossings:

* ``select`` — event loop over ``select``: no registration syscalls, but
  every call rescans the whole interest set (O(N) per call);
* ``epoll`` — event loop over ``epoll_wait``: O(ready) readiness, at the
  price of one ``epoll_ctl`` trap per connection;
* ``cosy`` — the whole request loop runs as one in-kernel compound per
  wave of clients: crossings per request approach zero.

Shapes to hold as N sweeps 10²–10⁴: the three serve byte-identical
responses; Cosy is fastest everywhere and its margin over select *widens*
with N (select's rescan grows, Cosy stays flat); select and epoll cross —
select wins small N (fewer traps), epoll wins large N (no rescan).  The
measured curve and the crossover point land in ``BENCH_NET.json``.

* ``uring`` — per-request work submitted as linked SQE chains on async
  syscall rings (docs/URING.md): one ``uring_enter`` per wave at cpus=1,
  zero crossings in sqpoll mode on SMP.

The E13 section reruns the serving story on SMP kernels (docs/SMP.md):
clients shard across 2 and 4 CPUs with one listener per core and NIC RSS
steering, the crossover curves are measured *per core count*, and cpus=4
must sustain 10⁵ concurrent clients at ≥2× the aggregate throughput of
cpus=1 at 10⁴.

The E14 section is the uring-vs-cosy head-to-head (docs/URING.md): the
two zero-parse pipelines sweep client counts per core count on small
files, and the *crossover map* is the headline — batched enter mode
still pays ~3 traps per wave, so compounds win every level at cpus=1,
while sqpoll's zero steady-state crossings flip the regime at every
cpus≥2 level.  The sqpoll cells must measure **zero** serving-phase
syscalls.
"""

from __future__ import annotations

import json
from pathlib import Path

from conftest import fresh_kernel

from repro.analysis import ComparisonTable
from repro.kernel.net import SocketLayer
from repro.trace import (UNTRACED, write_chrome_trace, write_flamegraph,
                         write_folded)
from repro.workloads import (SERVER_KINDS, HttpBenchConfig, run_http_bench,
                             run_http_bench_smp)

SMOKE_CLIENTS = 100
LEVELS = [100, 1000, 10000]

#: SMP sweep (E13): core counts for the per-CPU serving curves, the
#: 10⁵-client peak that cpus=4 must sustain, and the CI-smoke shard size
SMP_CPU_LEVELS = [1, 2, 4]
SMP_PEAK_CLIENTS = 100_000
SMP_SMOKE_CLIENTS = 400

#: uring-vs-cosy head-to-head (E14): small files keep the per-request
#: copy work low so the submission mechanisms themselves are what's
#: being compared; the peak re-asserts the 10⁵-client gate on rings
URING_FILE_BYTES = 512
URING_PEAK_CLIENTS = 100_000

_OUT = Path(__file__).parent / "BENCH_NET.json"
_NET: dict = {}


def _measure(kind: str, nclients: int, *, traced: bool = False,
             trace_dir: Path | None = None) -> dict:
    kernel = fresh_kernel("ramfs")
    SocketLayer(kernel)
    if traced or trace_dir is not None:
        kernel.trace.enable()
    start = kernel.clock.now
    r = run_http_bench(kernel, kind, HttpBenchConfig(nclients=nclients))
    out = {
        "kind": r.kind,
        "nclients": r.nclients,
        "requests": r.requests,
        "bytes_served": r.bytes_served,
        "elapsed_cycles": r.elapsed,
        "system_cycles": r.system_cycles,
        "user_cycles": r.user_cycles,
        "cycles_per_request": round(r.cycles_per_request, 1),
        "syscalls": r.syscalls,
        "syscalls_per_request": round(r.syscalls_per_request, 3),
        "digest": r.digest,
        "nic": r.nic,
    }
    if kernel.trace.enabled:
        att = kernel.trace.attribution()
        # the window is the whole benchmark (setup + client driving +
        # serving); its every cycle must be accounted for
        assert att.window_cycles == kernel.clock.now - start, \
            "tracer window disagrees with the clock"
        out["attribution"] = att.to_dict()
        # the §2 decomposition: crossings vs. copies vs. faults
        out["attribution"]["breakdown"] = {
            "crossing_cycles": att.category_self("boundary"),
            "copy_cycles": att.category_self("copy"),
            "fault_cycles": att.total_of("mem:fault"),
        }
        if trace_dir is not None:
            write_chrome_trace(kernel.trace,
                               trace_dir / f"net-{kind}-{nclients}.json")
    return out


def _measure_smp(kind: str, nclients: int, cpus: int,
                 avg_file_bytes: int | None = None) -> dict:
    """One (kind, nclients, cpus) cell of the SMP serving grid.

    ``cpus == 1`` runs the classic single-kernel bench so the SMP curves
    share an axis with the pre-SMP baseline; ``cpus > 1`` shards the
    clients across every CPU via :func:`run_http_bench_smp` (one
    listener + client driver per CPU, NIC RSS keeping each shard's flows
    on its own RX queue).  ``wall_elapsed`` is the frontier-rule maximum
    of the per-CPU serving times (docs/SMP.md); aggregate throughput is
    requests over that wall time.
    """
    cfg_kwargs: dict = {"nclients": nclients}
    if avg_file_bytes is not None:
        cfg_kwargs["avg_file_bytes"] = avg_file_bytes
    if cpus == 1:
        kernel = fresh_kernel("ramfs")
        SocketLayer(kernel)
        r = run_http_bench(kernel, kind, HttpBenchConfig(**cfg_kwargs))
        return {
            "kind": kind, "nclients": nclients, "cpus": 1,
            "requests": r.requests, "bytes_served": r.bytes_served,
            "per_cpu_elapsed": [r.elapsed],
            "wall_elapsed": r.elapsed, "total_elapsed": r.elapsed,
            "throughput": r.requests / max(r.elapsed, 1), "speedup": 1.0,
            "syscalls": r.syscalls, "digest": r.digest,
            "ipis": kernel.sched.ipis, "steals": kernel.sched.steals,
            "nic": r.nic,
        }
    kernel = fresh_kernel("ramfs", cpus=cpus)
    SocketLayer(kernel, queues=cpus)
    r = run_http_bench_smp(kernel, kind, HttpBenchConfig(**cfg_kwargs))
    return {
        "kind": kind, "nclients": nclients, "cpus": cpus,
        "requests": r.requests, "bytes_served": r.bytes_served,
        "per_cpu_elapsed": r.per_cpu_elapsed,
        "wall_elapsed": r.wall_elapsed, "total_elapsed": r.total_elapsed,
        "throughput": r.throughput, "speedup": r.speedup,
        "syscalls": r.syscalls, "digest": r.digest,
        "ipis": kernel.sched.ipis, "steals": kernel.sched.steals,
        "nic": r.nic,
    }


def _flush() -> None:
    """Merge this run's sections into BENCH_NET.json."""
    payload = {"schema": 1}
    if _OUT.exists():
        try:
            old = json.loads(_OUT.read_text())
            if old.get("schema") == 1:
                payload.update(old)
        except (json.JSONDecodeError, OSError):
            pass
    payload.update(_NET)
    _OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_net_smoke(run_once, trace_out):
    """All three servers, 100 clients: identity + ordering (CI smoke).

    The smoke run is always traced: its BENCH_NET.json section carries a
    full cycle attribution per server, and ``select`` is measured a second
    time untraced to assert tracing has zero simulated-cost impact.
    """
    results = run_once(
        lambda: {kind: _measure(kind, SMOKE_CLIENTS, traced=True,
                                trace_dir=trace_out)
                 for kind in SERVER_KINDS})
    untraced = _measure("select", SMOKE_CLIENTS)
    assert untraced["elapsed_cycles"] == results["select"]["elapsed_cycles"], \
        "tracing changed the simulated clock"
    table = ComparisonTable(
        "E11a", f"HTTP serving, {SMOKE_CLIENTS} clients (smoke)")
    for kind in SERVER_KINDS:
        att = results[kind]["attribution"]
        assert att["complete"], f"{kind}: attribution does not sum to window"
        assert att["window_cycles"] >= results[kind]["elapsed_cycles"], \
            f"{kind}: traced window smaller than the serving phase"
    table.add("attribution sums to elapsed",
              "self + untraced == user+system+iowait",
              "complete for all 3 servers", holds=True)
    bd = results["select"]["attribution"]["breakdown"]
    table.note(f"select breakdown: crossings {bd['crossing_cycles']:,}, "
               f"copies {bd['copy_cycles']:,}, faults {bd['fault_cycles']:,}")
    digests = {r["digest"] for r in results.values()}
    table.add("responses byte-identical", "one digest across servers",
              f"{len(digests)} distinct digest(s)", holds=len(digests) == 1)
    cosy = results["cosy"]["elapsed_cycles"]
    slowest_user = max(results["select"]["elapsed_cycles"],
                       results["epoll"]["elapsed_cycles"])
    table.add("compound server fastest", "one crossing per wave wins",
              f"cosy {cosy:,} vs best user-level "
              f"{min(results['select']['elapsed_cycles'], results['epoll']['elapsed_cycles']):,} cycles",
              holds=all(cosy < results[k]["elapsed_cycles"]
                        for k in ("select", "epoll")))
    table.add("crossings collapse", "≤0.1 syscalls/request in compounds",
              f"{results['cosy']['syscalls_per_request']} vs "
              f"{results['select']['syscalls_per_request']} (select)",
              holds=results["cosy"]["syscalls_per_request"] < 0.1)
    table.print()
    _NET["smoke"] = results
    _flush()
    assert table.all_hold
    assert slowest_user > cosy


def test_net_profiled_smoke(run_once, trace_out):
    """E11 select under exact stack attribution (docs/PROFILING.md).

    The same 100-client serving run, traced with the latency tracers on,
    must (a) land on the *bit-identical* simulated clock as the untraced
    run — tracing reads the clock, never charges it; (b) fold into span
    stacks whose self cycles sum to the window exactly; and (c) give
    per-category cycles from the folded stacks equal to
    ``att.by_category()`` exactly.  The folded stacks, the flamegraph SVG
    and the Perfetto trace land in ``--trace-out``.
    """
    def measure():
        kernel = fresh_kernel("ramfs")
        SocketLayer(kernel)
        kernel.trace.enable()
        start = kernel.clock.now
        r = run_http_bench(kernel, "select",
                           HttpBenchConfig(nclients=SMOKE_CLIENTS))
        att = kernel.trace.attribution()
        assert att.window_cycles == kernel.clock.now - start
        return {"kernel": kernel, "elapsed": r.elapsed, "att": att}

    out = run_once(measure)
    kernel, att = out["kernel"], out["att"]
    folded = att.folded()

    untraced = _measure("select", SMOKE_CLIENTS)
    table = ComparisonTable(
        "E11c", f"profiled HTTP serving, {SMOKE_CLIENTS} clients (smoke)")
    table.add("tracing costs zero simulated cycles",
              "traced clock == untraced clock, bit-identical",
              f"{out['elapsed']:,} == {untraced['elapsed_cycles']:,}",
              holds=out["elapsed"] == untraced["elapsed_cycles"])
    table.add("folded stacks cover the window", "Σ folded == window",
              f"{sum(folded.values()):,} == {att.window_cycles:,} "
              f"({len(folded)} stacks)",
              holds=sum(folded.values()) == att.window_cycles)

    # per-category cycles from the folded stacks (a stack's category is
    # its leaf span's) vs the per-name attribution
    folded_cats: dict[str, int] = {}
    for stack, cycles in folded.items():
        leaf = stack.rsplit(";", 1)[-1]
        cat = UNTRACED if stack == UNTRACED else att.spans[leaf].category
        folded_cats[cat] = folded_cats.get(cat, 0) + cycles
    by_cat = att.by_category()
    table.add("folded categories equal attribution",
              "per-category cycles identical",
              f"{len(by_cat)} categories",
              holds=folded_cats == by_cat)

    if trace_out is not None:
        write_folded(folded, trace_out / "net-select-profile.folded")
        write_flamegraph(
            folded, trace_out / "net-select-profile.svg",
            title=f"E11 select, {SMOKE_CLIENTS} clients "
                  f"({att.window_cycles:,} cycles)")
        write_chrome_trace(kernel.trace,
                           trace_out / "net-select-profiled.json")
    table.print()
    window = att.window_cycles or 1
    hottest = sorted(folded.items(), key=lambda kv: -kv[1])[:10]
    _NET["profile"] = dict(
        kernel.prof.to_dict(),
        cycle_shares={k: round(v / window, 6) for k, v in by_cat.items()},
        hottest_stacks=dict(hottest))
    _flush()
    assert table.all_hold


def test_net_scaling(run_once, trace_out):
    """The crossings-dominate curve across 10²–10⁴ clients."""
    results = run_once(
        lambda: {str(n): {kind: _measure(kind, n,
                                         trace_dir=trace_out
                                         if n == LEVELS[0] else None)
                          for kind in SERVER_KINDS}
                 for n in LEVELS})
    table = ComparisonTable(
        "E11b", "HTTP serving vs client count (crossings dominate)")

    ratios = []
    for n in LEVELS:
        level = results[str(n)]
        digests = {r["digest"] for r in level.values()}
        assert len(digests) == 1, f"servers diverged at {n} clients"
        ratio = (level["select"]["elapsed_cycles"]
                 / level["cosy"]["elapsed_cycles"])
        ratios.append(ratio)
        table.add(f"{n:>6} clients: select/cosy", "crossings dominate",
                  f"{ratio:.2f}x "
                  f"({level['select']['cycles_per_request']:,.0f} vs "
                  f"{level['cosy']['cycles_per_request']:,.0f} cyc/req)",
                  holds=ratio > 1.0)
    table.add("margin widens with clients", "select rescans O(N), cosy flat",
              " -> ".join(f"{r:.2f}x" for r in ratios),
              holds=all(b > a for a, b in zip(ratios, ratios[1:])))

    # select-vs-epoll crossover: select wins small N, epoll wins large N
    crossover = None
    for n in LEVELS:
        level = results[str(n)]
        if level["epoll"]["elapsed_cycles"] < level["select"]["elapsed_cycles"]:
            crossover = n
            break
    table.add("select/epoll crossover", "epoll overtakes as N grows",
              f"epoll first wins at N={crossover}",
              holds=crossover is not None and crossover > LEVELS[0])

    table.print()
    _NET["scaling"] = results
    _NET["select_epoll_crossover_clients"] = crossover
    _NET["select_cosy_ratio_by_level"] = {
        str(n): round(r, 3) for n, r in zip(LEVELS, ratios)}
    _flush()
    assert table.all_hold


# ------------------------------------------------------------------- SMP


def test_net_smp_smoke(run_once):
    """4-CPU sharded serving, CI smoke (E13a): identity, speedup, and the
    lockprof contended-vs-fast-path split on genuinely cross-CPU locks."""
    results = run_once(
        lambda: {kind: _measure_smp(kind, SMP_SMOKE_CLIENTS, 4)
                 for kind in SERVER_KINDS})
    table = ComparisonTable(
        "E13a", f"SMP HTTP serving, {SMP_SMOKE_CLIENTS} clients x 4 CPUs")
    digests = {r["digest"] for r in results.values()}
    table.add("responses byte-identical", "one digest across servers",
              f"{len(digests)} distinct digest(s)", holds=len(digests) == 1)
    for kind, r in results.items():
        table.add(f"{kind}: sharding beats one CPU",
                  "wall elapsed < serialized total (speedup > 1)",
                  f"speedup {r['speedup']:.2f}x, "
                  f"wall {r['wall_elapsed']:,} cycles",
                  holds=r["speedup"] > 1.0)
    epoll = results["epoll"]
    table.add("RSS spreads RX across queues", "4 queues, nothing dropped",
              f"queues={epoll['nic']['rx_queues']} "
              f"dropped={epoll['nic']['dropped']}",
              holds=(epoll["nic"]["rx_queues"] == 4
                     and all(r["nic"]["dropped"] == 0
                             for r in results.values())))
    table.add("cross-CPU machinery exercised",
              "IPIs and nic_lock contention both nonzero",
              f"ipis={epoll['ipis']} "
              f"contended={epoll['nic']['lock_contentions']}x "
              f"({epoll['nic']['lock_contention_cycles']:,} cycles)",
              holds=(epoll["ipis"] > 0
                     and epoll["nic"]["lock_contentions"] > 0
                     and epoll["nic"]["lock_contention_cycles"] > 0))

    # lockprof regression: the profiler must split the uncontended fast
    # path from genuine cross-CPU contention.  A profiled 4-CPU run shows
    # both (contended > 0, acquisitions > contended); the same profiled
    # serving on one CPU shows acquisitions but zero contention.
    from repro.safety.monitor import EventDispatcher, LockProfiler

    kernel = fresh_kernel("ramfs", cpus=4)
    stack = SocketLayer(kernel, queues=4)
    prof = LockProfiler(kernel.metrics)
    EventDispatcher(kernel).attach().register_callback(prof)
    stack.nic.lock.instrumented = True
    run_http_bench_smp(kernel, "epoll",
                       HttpBenchConfig(nclients=SMP_SMOKE_CLIENTS))
    smp_stats = prof.stats[id(stack.nic.lock)]

    k1 = fresh_kernel("ramfs")
    stack1 = SocketLayer(k1)
    prof1 = LockProfiler(k1.metrics)
    EventDispatcher(k1).attach().register_callback(prof1)
    stack1.nic.lock.instrumented = True
    run_http_bench(k1, "epoll", HttpBenchConfig(nclients=SMOKE_CLIENTS))
    up_stats = prof1.stats[id(stack1.nic.lock)]

    table.add("lockprof splits contention from fast path",
              "SMP: 0 < contended < acquisitions; 1-CPU: contended == 0",
              f"smp {smp_stats.contended}/{smp_stats.acquisitions} contended "
              f"({smp_stats.contention_cycles:,} cyc), "
              f"1-cpu {up_stats.contended}/{up_stats.acquisitions}",
              holds=(0 < smp_stats.contended < smp_stats.acquisitions
                     and smp_stats.contention_cycles > 0
                     and up_stats.contended == 0
                     and up_stats.acquisitions > 0))
    assert kernel.metrics.counter("lock.contended").value \
        == smp_stats.contended
    assert kernel.metrics.counter("lock.contention_cycles").value \
        == smp_stats.contention_cycles
    table.print()
    _NET["smp_smoke"] = results
    _flush()
    assert table.all_hold


def test_net_smp_scaling(run_once):
    """Per-core-count crossover curves and the 10⁵-client peak (E13b).

    The acceptance gate for the SMP kernel: at cpus=4 the sharded stack
    sustains 10⁵ concurrent clients (every request served, nothing
    dropped) with ≥2× the aggregate simulated throughput of the cpus=1
    kernel at 10⁴ clients; and the select/epoll crossover moves *right*
    as cores shard the interest sets (each listener rescans N/cpus fds).
    """
    def measure_all():
        grid = {str(c): {str(n): {kind: _measure_smp(kind, n, c)
                                  for kind in SERVER_KINDS}
                         for n in LEVELS}
                for c in SMP_CPU_LEVELS}
        peak = {kind: _measure_smp(kind, SMP_PEAK_CLIENTS, 4)
                for kind in ("epoll", "cosy")}
        return {"grid": grid, "peak": peak}

    results = run_once(measure_all)
    grid, peak = results["grid"], results["peak"]
    table = ComparisonTable(
        "E13b", "SMP HTTP serving vs core count (sharding the crossings)")

    crossover_by_cpus: dict[str, int | None] = {}
    for c in SMP_CPU_LEVELS:
        level = grid[str(c)]
        for n in LEVELS:
            digests = {r["digest"] for r in level[str(n)].values()}
            assert len(digests) == 1, \
                f"servers diverged at {n} clients on {c} CPUs"
        crossover = next((n for n in LEVELS
                          if level[str(n)]["epoll"]["wall_elapsed"]
                          < level[str(n)]["select"]["wall_elapsed"]), None)
        crossover_by_cpus[str(c)] = crossover
        cosy_fastest = all(
            level[str(n)]["cosy"]["wall_elapsed"]
            < min(level[str(n)]["select"]["wall_elapsed"],
                  level[str(n)]["epoll"]["wall_elapsed"])
            for n in LEVELS)
        table.add(f"cpus={c}: compounds fastest at every N",
                  "cosy wall < select/epoll wall for all levels",
                  f"crossover at N={crossover}", holds=cosy_fastest)
    base = crossover_by_cpus[str(SMP_CPU_LEVELS[0])]
    table.add("crossover moves right with cores",
              "sharded select rescans N/cpus fds",
              " ".join(f"cpus={c}:N={crossover_by_cpus[str(c)]}"
                       for c in SMP_CPU_LEVELS),
              holds=(base is not None
                     and all(x is None or x >= base
                             for x in crossover_by_cpus.values())))

    top = LEVELS[-1]
    for kind in ("epoll", "cosy"):
        thr = {c: grid[str(c)][str(top)][kind]["throughput"]
               for c in SMP_CPU_LEVELS}
        table.add(f"{kind}: throughput scales with cores at N={top}",
                  "every added core raises aggregate req/cycle",
                  " -> ".join(f"{thr[c]:.2e}" for c in SMP_CPU_LEVELS),
                  holds=all(thr[b] > thr[a] for a, b in
                            zip(SMP_CPU_LEVELS, SMP_CPU_LEVELS[1:])))

    ref = grid["1"][str(top)]["epoll"]["throughput"]
    for kind, r in peak.items():
        gain = r["throughput"] / ref
        table.add(f"{kind}: 4 CPUs sustain 10^5 clients",
                  "all served, none dropped, >=2x cpus=1@10^4 throughput",
                  f"{r['requests']:,} served, dropped="
                  f"{r['nic']['dropped']}, {gain:.2f}x",
                  holds=(r["requests"] == SMP_PEAK_CLIENTS
                         and r["nic"]["dropped"] == 0
                         and gain >= 2.0))

    table.print()
    _NET["smp"] = {"grid": grid, "peak": peak,
                   "select_epoll_crossover_by_cpus": crossover_by_cpus}
    _flush()
    assert table.all_hold


# ---------------------------------------------------------- uring (E14)


def _uring_cell(kind: str, nclients: int, cpus: int) -> dict:
    return _measure_smp(kind, nclients, cpus,
                        avg_file_bytes=URING_FILE_BYTES)


def test_net_uring_smp_smoke(run_once):
    """Rings vs compounds on 4 CPUs, CI smoke (E14a): identity, the
    sqpoll zero-crossing invariant, and the regime flip."""
    results = run_once(
        lambda: {kind: _uring_cell(kind, SMP_SMOKE_CLIENTS, 4)
                 for kind in ("cosy", "uring")})
    table = ComparisonTable(
        "E14a", f"uring vs cosy, {SMP_SMOKE_CLIENTS} clients x 4 CPUs")
    digests = {r["digest"] for r in results.values()}
    table.add("responses byte-identical", "one digest across pipelines",
              f"{len(digests)} distinct digest(s)", holds=len(digests) == 1)
    uring = results["uring"]
    table.add("sqpoll steady state crosses zero boundaries",
              "0 serving-phase syscalls on every shard",
              f"syscalls={uring['syscalls']}",
              holds=uring["syscalls"] == 0)
    table.add("rings beat compounds on SMP",
              "sqpoll submission wins when enter traps are gone",
              f"uring wall {uring['wall_elapsed']:,} vs cosy "
              f"{results['cosy']['wall_elapsed']:,} cycles",
              holds=uring["wall_elapsed"] < results["cosy"]["wall_elapsed"])
    table.add("rings shard like compounds",
              "speedup > 1 across 4 CPUs",
              f"speedup {uring['speedup']:.2f}x",
              holds=uring["speedup"] > 1.0)
    table.print()
    _NET["uring_smoke"] = results
    _flush()
    assert table.all_hold


def test_net_uring_scaling(run_once):
    """The uring-vs-cosy crossover map per core count (E14b).

    The headline table of this experiment: at cpus=1 batched enter mode
    still pays ~3 traps per 128-client wave, so compounds win every
    client level; at cpus≥2 the server auto-selects sqpoll, the enter
    traps vanish, and rings win every level.  The crossover is therefore
    a function of *core count*, not client count — recorded per cpus in
    BENCH_NET.json.  The 10⁵-client peak re-runs the E13 gate on rings.
    """
    def measure_all():
        grid = {str(c): {str(n): {kind: _uring_cell(kind, n, c)
                                  for kind in ("cosy", "uring")}
                         for n in LEVELS}
                for c in SMP_CPU_LEVELS}
        peak = {kind: _uring_cell(kind, URING_PEAK_CLIENTS, 4)
                for kind in ("cosy", "uring")}
        return {"grid": grid, "peak": peak}

    results = run_once(measure_all)
    grid, peak = results["grid"], results["peak"]
    table = ComparisonTable(
        "E14b", "uring vs cosy per core count (the crossover map)")

    crossover_by_cpus: dict[str, int | None] = {}
    for c in SMP_CPU_LEVELS:
        level = grid[str(c)]
        for n in LEVELS:
            digests = {r["digest"] for r in level[str(n)].values()}
            assert len(digests) == 1, \
                f"pipelines diverged at {n} clients on {c} CPUs"
        crossover_by_cpus[str(c)] = next(
            (n for n in LEVELS
             if level[str(n)]["uring"]["wall_elapsed"]
             < level[str(n)]["cosy"]["wall_elapsed"]), None)

    cosy_regime = all(
        grid["1"][str(n)]["cosy"]["wall_elapsed"]
        < grid["1"][str(n)]["uring"]["wall_elapsed"] for n in LEVELS)
    table.add("cpus=1: compounds win every level",
              "enter mode still pays traps per wave",
              " ".join(
                  f"N={n}:+{grid['1'][str(n)]['uring']['wall_elapsed'] - grid['1'][str(n)]['cosy']['wall_elapsed']:,}"
                  for n in LEVELS) + " cycles (uring-cosy)",
              holds=cosy_regime)
    for c in SMP_CPU_LEVELS[1:]:
        level = grid[str(c)]
        uring_regime = all(
            level[str(n)]["uring"]["wall_elapsed"]
            < level[str(n)]["cosy"]["wall_elapsed"] for n in LEVELS)
        table.add(f"cpus={c}: rings win every level",
                  "sqpoll removes the per-wave traps",
                  f"crossover at N={crossover_by_cpus[str(c)]}",
                  holds=uring_regime
                  and crossover_by_cpus[str(c)] == LEVELS[0])
        zero = all(level[str(n)]["uring"]["syscalls"] == 0 for n in LEVELS)
        table.add(f"cpus={c}: sqpoll serving is trap-free",
                  "0 syscalls in the measured phase at every N",
                  "syscalls=" + " ".join(
                      str(level[str(n)]["uring"]["syscalls"])
                      for n in LEVELS),
                  holds=zero)
    spr = grid["1"][str(LEVELS[-1])]["uring"]["syscalls"] \
        / max(grid["1"][str(LEVELS[-1])]["uring"]["requests"], 1)
    table.add("cpus=1: enter mode batches crossings",
              "≤0.1 syscalls/request through one trap per wave",
              f"{spr:.3f} syscalls/request",
              holds=spr < 0.1)

    uring_peak, cosy_peak = peak["uring"], peak["cosy"]
    table.add("rings sustain 10^5 clients on 4 CPUs",
              "all served, none dropped, faster than compounds",
              f"{uring_peak['requests']:,} served, dropped="
              f"{uring_peak['nic']['dropped']}, wall "
              f"{uring_peak['wall_elapsed']:,} vs cosy "
              f"{cosy_peak['wall_elapsed']:,}",
              holds=(uring_peak["requests"] == URING_PEAK_CLIENTS
                     and uring_peak["nic"]["dropped"] == 0
                     and uring_peak["syscalls"] == 0
                     and uring_peak["wall_elapsed"]
                     < cosy_peak["wall_elapsed"]))

    table.note("crossover map: " + " ".join(
        f"cpus={c}:{'N=%d' % crossover_by_cpus[str(c)] if crossover_by_cpus[str(c)] is not None else 'cosy'}"
        for c in SMP_CPU_LEVELS))
    table.print()
    _NET["uring"] = {"grid": grid, "peak": peak,
                     "uring_cosy_crossover_by_cpus": crossover_by_cpus}
    _flush()
    assert table.all_hold
