"""The compiled C-minus engine vs the tree-walking interpreter.

Three measurements, all on real wall-clock time (the simulated cycle
counts are asserted *identical* between engines — the compiler's whole
contract is that it changes nothing observable):

* **tree vs compiled** — an interpreter-bound arithmetic workload; the
  compiled engine must be at least 2.5x faster.
* **cold vs warm** — first compilation against a generation-keyed
  :class:`~repro.cminus.CodeCache` hit; the hit must be far cheaper.
* **invalidation under hotpatching** — every patch bumps the program's
  generation; the next engine recompiles, and stale code never runs.
"""

from __future__ import annotations

import time

from conftest import fresh_kernel

from repro.analysis import ComparisonTable
from repro.cminus import (CodeCache, CompiledEngine, Interpreter,
                          UserMemAccess, parse)
from repro.safety.kgcc.hotpatch import HotPatcher

ARITH_SRC = """
int mix(int seed, int iters) {
    int x = seed;
    int acc = 0;
    for (int i = 0; i < iters; i++) {
        x = (x * 1103515245 + 12345) % 2147483648;
        if (x < 0) x = -x;
        acc = acc + (x % 97) - (x % 13);
        acc = acc ^ (x >> 7);
    }
    return acc;
}
"""

ITERS = 30_000
ROUNDS = 3   # wall-clock min-of-N; simulated cycles are deterministic


def _run_engine(engine: str) -> tuple[int, int, float]:
    """(result, simulated cycles, best wall seconds) for one engine."""
    best = float("inf")
    result = cycles = 0
    for _ in range(ROUNDS):
        k = fresh_kernel("ramfs")
        mem = UserMemAccess(k, k.current)
        program = parse(ARITH_SRC)
        cminus_op = k.costs.cminus_op
        charge = k.clock.charge_system

        # the tree-walker charges one op per call, the compiled engine
        # one batch per flush: the same total
        cls = Interpreter if engine == "tree" else CompiledEngine
        interp = cls(program, mem,
                     on_op_batch=lambda n: charge(n * cminus_op))
        t0 = time.perf_counter()
        result = interp.call("mix", 7, ITERS)
        best = min(best, time.perf_counter() - t0)
        cycles = k.clock.now
    return result, cycles, best


def test_tree_vs_compiled(run_once):
    out = {}

    def measure():
        rt, ct, wt = _run_engine("tree")
        rc, cc, wc = _run_engine("compiled")
        assert rt == rc, "engines disagree on the result"
        assert ct == cc, "engines disagree on simulated cycles"
        out["r"] = (wt, wc, ct)
        return out["r"]

    wt, wc, cycles = run_once(
        measure,
        simulated_cycles=lambda: out["r"][2],
        tree_wall_seconds=lambda: out["r"][0],
        compiled_wall_seconds=lambda: out["r"][1])
    speedup = wt / wc
    table = ComparisonTable(
        "compile", f"compiled engine ({ITERS} LCG iterations)")
    table.add("wall-clock speedup", ">=2.5x", f"{speedup:.2f}x",
              holds=speedup >= 2.5)
    table.add("simulated cycles", "identical", f"{cycles} (both)",
              holds=True)
    table.print()
    assert table.all_hold


def test_cold_vs_warm_cache(run_once):
    def measure():
        k = fresh_kernel("ramfs")
        mem = UserMemAccess(k, k.current)
        program = parse(ARITH_SRC)
        cache = CodeCache()
        t0 = time.perf_counter()
        CompiledEngine(program, mem, cache=cache)
        cold = time.perf_counter() - t0
        warm = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            CompiledEngine(program, mem, cache=cache)
            warm = min(warm, time.perf_counter() - t0)
        return cold, warm, cache.stats()

    cold, warm, stats = run_once(measure)
    table = ComparisonTable("compile-cache", "generation-keyed code cache")
    table.add("cache", "1 miss, 5 hits",
              f"{stats['misses']} miss, {stats['hits']} hits",
              holds=(stats["misses"], stats["hits"]) == (1, 5))
    table.add("warm vs cold setup", "hit much cheaper",
              f"{cold / warm:.1f}x cheaper", holds=warm * 3 < cold)
    table.print()
    assert table.all_hold


def test_invalidation_under_hotpatching(run_once):
    src = ("int scale(int v) { return v * 2; }\n"
           "int main(int v) { return scale(v); }")
    patches = 25

    def measure():
        k = fresh_kernel("ramfs")
        mem = UserMemAccess(k, k.current)
        program = parse(src)
        cache = CodeCache()
        assert CompiledEngine(program, mem,
                              cache=cache).call("main", 10) == 20
        t0 = time.perf_counter()
        for i in range(1, patches + 1):
            HotPatcher(program).patch_function(
                "scale", f"int scale(int v) {{ return v * {i}; }}")
            got = CompiledEngine(program, mem, cache=cache).call("main", 10)
            assert got == 10 * i, "stale compiled body executed"
        wall = time.perf_counter() - t0
        return wall, cache.stats()

    wall, stats = run_once(measure, patches=patches)
    table = ComparisonTable(
        "compile-invalidate", f"{patches} hotpatch/recompile cycles")
    table.add("invalidations", str(patches), str(stats["invalidations"]),
              holds=stats["invalidations"] == patches)
    table.add("stale code ran", "never", "never", holds=True)
    table.note(f"{patches} patch+call cycles in {wall * 1000:.1f}ms "
               f"({wall / patches * 1000:.2f}ms per invalidation)")
    table.print()
    assert table.all_hold
