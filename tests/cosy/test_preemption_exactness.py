"""Budgeted preemption points leave every CoSy observation exact.

Untraced, the compiled engine calls its preemption point only once the
quantum can have expired (``Scheduler.preempt_slack``).  Traced, and on
the tree-walking oracle, it runs at every C statement.  Each case runs
three ways -- compiled untraced, compiled traced, ``engine="tree"`` --
and requires the same watchdog kill, clocks, scheduler counters, TLB
counts and fault-injection trace from all three.
"""

from __future__ import annotations

import pytest

from repro.core.cosy import CosyGCC, CosyKernelExtension, CosyLib
from repro.errors import WatchdogExpired
from repro.kernel import Kernel
from repro.kernel.costs import CostModel
from repro.kernel.fs import RamfsSuperBlock
from repro.workloads import CosyRecordStore, DBWorkloadConfig
from repro.workloads.dbapp import build_database

#: (engine, traced) of the three runs; the first is the budgeted one
RUNS = [("compiled", False), ("compiled", True), ("tree", False)]

#: spins forever, storing across two pages: after each switch away
#: and back (a TLB flush) its stores miss the TLB, and a miss charges
#: the clock between two preemption points
SPIN = """
int spin(int n) {
    char buf[6000];
    int i = 0;
    while (1) { buf[i % 6000] = i; i += n; }
    return i;
}
int main() {
    COSY_START();
    int r = spin(3);
    COSY_END();
    return 0;
}
"""


def _boot(traced: bool, quantum: int) -> Kernel:
    """A kernel with a short quantum, a second runnable task, so every
    expired quantum switches away and back, and a call counter on
    ``maybe_preempt``."""
    k = Kernel(costs=CostModel(sched_quantum=quantum))
    k.mount_root(RamfsSuperBlock(k))
    k.spawn("app")
    k.spawn("other")
    maybe_preempt = k.sched.maybe_preempt
    k.points = 0

    def counted() -> bool:
        k.points += 1
        return maybe_preempt()

    k.sched.maybe_preempt = counted
    if traced:
        k.trace.enable()
    else:
        k.trace.disable()   # whatever the boot configuration says
    return k


def _counters(k: Kernel) -> dict:
    return {"clock": k.clock.now, "preemptions": k.sched.preemptions,
            "switches": k.sched.context_switches,
            "tlb": (k.mmu.tlb_hits, k.mmu.tlb_misses)}


def _three_runs(observe) -> list[int]:
    """``observe(engine, traced) -> (observations, kernel)`` for the
    three runs: their observations must be equal.  Returns the number of
    preemption points each run made."""
    runs = [observe(engine, traced) for engine, traced in RUNS]
    budgeted, traced, tree = (seen for seen, _ in runs)
    assert budgeted == tree
    assert traced == tree
    return [k.points for _, k in runs]


def _skipped(points: list[int]) -> bool:
    """The untraced compiled run skipped points the others made."""
    return points[0] < points[1] == points[2]


def test_watchdog_kills_an_endless_function_at_the_same_cycle():
    def observe(engine, traced):
        k = _boot(traced, quantum=20_000)
        ext = CosyKernelExtension(k, max_kernel_cycles=90_000, engine=engine)
        region = CosyLib(k, ext).install(k.current,
                                         CosyGCC().compile(SPIN))
        with pytest.raises(WatchdogExpired) as info:
            region.run()
        return ({"used": info.value.used_cycles,
                 "expirations": ext.watchdog.expirations,
                 **_counters(k)}, k)

    assert _skipped(_three_runs(observe))


def test_random_lookups_across_quanta_see_the_same_machine():
    cfg = DBWorkloadConfig(nrecords=40)

    def observe(engine, traced):
        k = _boot(traced, quantum=15_000)
        build_database(k, cfg)
        store = CosyRecordStore(k, k.current, cfg,
                                ext=CosyKernelExtension(k, engine=engine))
        start = _counters(k)
        total = store.random_lookups(30)
        seen = _counters(k)
        # the compound spans several quanta
        assert seen["preemptions"] - start["preemptions"] >= 4
        return {"total": total, **seen}, k

    assert _skipped(_three_runs(observe))


def test_an_armed_preempt_injection_fires_at_the_same_ticks():
    cfg = DBWorkloadConfig(nrecords=20)

    def observe(engine, traced):
        k = _boot(traced, quantum=10**9)
        build_database(k, cfg)
        store = CosyRecordStore(k, k.current, cfg,
                                ext=CosyKernelExtension(k, engine=engine))
        stamps: list[int] = []
        k.sched.add_preempt_hook(lambda task: stamps.append(k.clock.now))
        with k.faults.inject("sched.preempt", every=257):
            total = store.random_lookups(10)
        assert stamps
        return ({"total": total, "stamps": stamps,
                 "faults": k.faults.trace_signature(),
                 "stats": k.faults.stats(), **_counters(k)}, k)

    # an armed sched.preempt counts every consultation: no point skipped
    points = _three_runs(observe)
    assert points[0] == points[1] == points[2]
