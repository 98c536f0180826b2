"""Exact span-stack attribution and the latency tracers (``repro.trace.prof``).

Invariant 0, inherited from the tracer: **tracing has zero cost-model
impact** — the same workload traced (latency tracers included) and
untraced lands on bit-identical user/system/iowait counts.  On top of
that, attribution is *exact*: folded stacks sum to the window cycle for
cycle, per CPU and merged, and agree with the per-name span table.  The
latency tracers must fire from their kernel hook sites while tracing is
on, and the exports (folded stacks, flamegraph SVG, Perfetto counter
tracks) must carry the collected data.
"""

from repro.analysis import prof_report
from repro.kernel.clock import Clock
from repro.kernel.core import Kernel
from repro.kernel.fs import Ext2SuperBlock, RamfsSuperBlock
from repro.kernel.interrupts import (IRQ_DISPATCH_COST, IRQ_TOGGLE_COST,
                                     TimerInterrupt)
from repro.kernel.net import SocketLayer
from repro.kernel.vfs.file import O_CREAT, O_RDWR
from repro.trace import (UNTRACED, Tracer, write_flamegraph,
                         write_folded)
from repro.trace.flamegraph import flamegraph_svg
from repro.trace.perfetto import chrome_trace
from repro.trace.prof import MaxWitness


def buckets(k: Kernel) -> tuple[int, int, int]:
    return (k.clock.user, k.clock.system, k.clock.iowait)


def file_workload(k: Kernel) -> None:
    fd = k.sys.open("/w", O_CREAT | O_RDWR)
    for i in range(30):
        k.sys.write(fd, bytes([i % 251]) * 700)
    k.sys.lseek(fd, 0)
    while k.sys.read(fd, 4096):
        pass
    k.sys.close(fd)


def traced_kernel(fs=RamfsSuperBlock, *, cpus: int = 1) -> Kernel:
    k = Kernel(cpus=cpus)
    k.trace.enable()
    k.mount_root(fs(k))
    k.spawn("t0")
    return k


def bare_tracer() -> tuple[Clock, Tracer]:
    clock = Clock()
    tracer = Tracer(clock)
    tracer.enable()
    return clock, tracer


# ------------------------------------------------------------ bit identity


def test_identity_on_disk_workload():
    runs = []
    for traced in (False, True):
        k = Kernel()
        if traced:
            k.trace.enable()
        k.mount_root(Ext2SuperBlock(k))
        k.spawn("t0")
        file_workload(k)
        runs.append(buckets(k))
    assert k.prof.syscall_lat and k.prof.preemptoff.count
    assert runs[0] == runs[1]


def test_identity_on_network_workload():
    runs = []
    for traced in (False, True):
        k = Kernel()
        if traced:
            k.trace.enable()
        k.mount_root(RamfsSuperBlock(k))
        k.spawn("server")
        SocketLayer(k)
        server_fd = k.sys.socket()
        k.sys.bind(server_fd, 80)
        k.sys.listen(server_fd)
        client = k.spawn("client")
        k.sched.switch_to(client)
        cfd = k.sys.socket(blocking=False)
        k.sys.connect(cfd, 80)
        k.sys.write(cfd, b"ping")
        k.sched.switch_to(k.tasks[0])
        conn = k.sys.accept(server_fd)
        assert k.sys.read(conn, 16) == b"ping"
        runs.append(buckets(k))
    assert k.prof.irqsoff.count and k.prof.wakeup_max.cycles >= 0
    assert runs[0] == runs[1]


def test_identity_versus_trace_only():
    """Reading every export mid-run (folded stacks, the report, the
    Perfetto document) adds nothing to the clock either."""
    runs = []
    for read_exports in (False, True):
        k = traced_kernel()
        file_workload(k)
        if read_exports:
            k.trace.attribution().folded()
            prof_report(k)
            chrome_trace(k.trace)
            k.prof.to_dict()
        file_workload(k)
        runs.append(buckets(k))
    assert runs[0] == runs[1]


def test_profiled_runs_are_deterministic():
    folds = []
    for _ in range(2):
        k = traced_kernel(Ext2SuperBlock)
        file_workload(k)
        tracers = k.prof.to_dict()
        for witness in ("wakeup_max", "irqsoff_max", "preemptoff_max"):
            tracers[witness].pop("pid")   # pids are process-global
        folds.append((k.trace.attribution().folded(), tracers, buckets(k)))
    assert folds[0] == folds[1]


# ------------------------------------------------- exact stack attribution


def test_one_leaf_under_two_parents_folds_twice():
    clock, tr = bare_tracer()
    for parent, cycles in (("a", 100), ("b", 30)):
        tr.begin(parent, "p")
        clock.charge(7)
        tr.begin("leaf", "l")
        clock.charge(cycles)
        tr.end()
        tr.end()
    folded = tr.attribution().folded()
    assert folded == {"a": 7, "a;leaf": 100, "b": 7, "b;leaf": 30}
    assert tr.attribution().spans["leaf"].self_cycles == 130


def test_complete_under_open_span_folds_as_parent_child():
    clock, tr = bare_tracer()
    clock.charge(5)                    # untraced
    tr.begin("parent", "p")
    clock.charge(40)                   # parent's own work
    clock.charge(1_200)
    tr.complete("child", "c", 1_200)   # retroactive quantum
    tr.end()
    att = tr.attribution()
    assert att.folded() == {"parent": 40, "parent;child": 1_200,
                            UNTRACED: 5}
    assert att.stacks[("parent", "child")].total_cycles == 1_200
    assert att.by_category() == {"c": 1_200, "p": 40, UNTRACED: 5}


def test_open_spans_fold_at_their_current_depth():
    clock, tr = bare_tracer()
    tr.begin("outer", "o")
    clock.charge(10)
    tr.begin("inner", "i")
    clock.charge(25)
    att = tr.attribution()             # both still open
    assert att.folded() == {"outer": 10, "outer;inner": 25}
    assert sum(att.folded().values()) == att.window_cycles == 35


def test_folded_sums_to_window_cycles():
    k = traced_kernel(Ext2SuperBlock)
    start = k.trace.window_start
    file_workload(k)
    att = k.trace.attribution()
    folded = att.folded()
    assert att.window_cycles == k.clock.now - start
    assert sum(folded.values()) == att.window_cycles
    assert "syscall:write;syscall:boundary" in folded


def test_smp_folded_sums_to_merged_window():
    k = traced_kernel(cpus=2)
    base = k.clock.now
    for cpu in range(2):
        k.clock.cpu = cpu
        k.trace.begin(f"work{cpu}", "w")
        k.clock.charge_system(5_000 + cpu)
        k.trace.end()
    k.clock.cpu = 0
    merged = k.trace.attribution()
    assert merged.window_cycles == k.clock.now - base
    assert sum(merged.folded().values()) == merged.window_cycles
    for cpu in range(2):
        att = k.trace.attribution(cpu=cpu)
        assert sum(att.folded().values()) == att.window_cycles
        assert att.folded()[f"work{cpu}"] == 5_000 + cpu
    assert merged.folded()["work1"] == 5_001


def test_per_leaf_folded_sums_match_spans():
    k = traced_kernel(Ext2SuperBlock, cpus=2)
    file_workload(k)
    att = k.trace.attribution()
    per_leaf: dict[str, int] = {}
    for stack, cycles in att.folded().items():
        if stack != UNTRACED:
            leaf = stack.rsplit(";", 1)[-1]
            per_leaf[leaf] = per_leaf.get(leaf, 0) + cycles
    assert per_leaf == {name: s.self_cycles for name, s in att.spans.items()}


def test_untraced_cycles_fold_to_marker():
    clock, tr = bare_tracer()
    clock.charge_system(5_000)         # no span open
    assert tr.attribution().folded() == {UNTRACED: 5_000}


def test_folded_stacks_capture_cminus_function():
    """A compiled C-minus function running under the tracer appears as
    its ``cminus:<func>`` frame in the folded stacks."""
    from repro.cminus import CompiledEngine, UserMemAccess, parse
    from repro.kernel.clock import Mode

    src = """
    int spin(int iters) {
        int acc = 0;
        for (int i = 0; i < iters; i++) acc = acc + i * 3;
        return acc;
    }
    """
    k = traced_kernel()
    mem = UserMemAccess(k, k.current)
    engine = CompiledEngine(
        parse(src), mem, tracer=k.trace,
        on_op_batch=lambda n: k.clock.charge(n * k.costs.cminus_op,
                                             Mode.SYSTEM))
    engine.call("spin", 500)
    folded = k.trace.attribution().folded()
    spin = [n for st, n in folded.items()
            if st.split(";")[-1] == "cminus:spin"]
    assert spin and sum(spin) > 500 * k.costs.cminus_op // 2


# ---------------------------------------------------------- latency tracers


def test_wakeup_tracer_measures_ready_to_run_delay():
    k = traced_kernel()
    other = k.spawn("other")  # READY from birth
    k.clock.charge_system(7_000)  # it sits runnable while t0 burns cycles
    k.sched.switch_to(other)
    assert k.metrics.get("sched.delay").count >= 1
    assert k.prof.wakeup_max.cycles >= 7_000
    assert k.prof.wakeup_max.task == "other"
    assert k.prof.to_dict()["wakeup_delay"]["max"] >= 7_000


def test_irqsoff_tracer_measures_disabled_sections():
    k = traced_kernel()
    k.irq.local_irq_disable("test")
    k.clock.charge_system(3_000)
    k.irq.local_irq_enable("test")
    assert k.prof.irqsoff.count == 1
    assert k.prof.irqsoff.max >= 3_000
    w = k.prof.irqsoff_max
    assert w.cycles == k.prof.irqsoff.max and w.cpu == 0


def test_irqsoff_only_tracks_outermost_section():
    k = traced_kernel()
    k.irq.local_irq_disable("outer")
    k.irq.local_irq_disable("inner")
    k.irq.local_irq_enable("inner")
    assert k.prof.irqsoff.count == 0  # still disabled at depth 1
    k.irq.local_irq_enable("outer")
    assert k.prof.irqsoff.count == 1


def test_irqsoff_records_a_tick_whose_sections_nest_across_devices():
    """The NIC shares ``kernel.irq``: the tick's IRQ-off window nests the
    NIC's and the socket's irqsave sections and is recorded whole."""
    k = traced_kernel()
    stack = SocketLayer(k, deliver="tick")
    a, b = k.sys.socketpair()
    k.sys.write(a, b"x" * 100)
    timer = TimerInterrupt(k, stack.nic.irq)
    stack.attach_timer(timer)
    before = k.clock.now
    timer.fire()
    # the window opens after fire()'s dispatch and cli charges
    window = k.clock.now - before - IRQ_DISPATCH_COST - IRQ_TOGGLE_COST
    assert k.sys.read(b, 100) == b"x" * 100
    assert k.prof.irqsoff_max.cycles == window


def test_enable_forgets_sections_of_an_earlier_window():
    k = traced_kernel()
    k.irq.local_irq_disable("test")
    k.trace.disable()
    k.clock.charge_system(9_000)
    k.trace.enable()                  # new window: the open section is stale
    k.irq.local_irq_enable("test")
    assert k.prof.irqsoff.count == 0


def test_preemptoff_tracer_fires_between_scheduler_points():
    k = traced_kernel(Ext2SuperBlock)
    file_workload(k)
    assert k.prof.preemptoff.count >= 1
    assert k.prof.preemptoff_max.cycles > 0


def test_syscall_latency_histograms():
    k = traced_kernel(Ext2SuperBlock)
    file_workload(k)
    lat = k.prof.syscall_lat
    assert {"open", "write", "read", "close"} <= set(lat)
    assert lat["write"].count == 30
    assert lat["write"].min > 0
    assert all(name in k.prof.syscall_nrs for name in lat)


def test_max_witness_keeps_the_worst_case():
    w = MaxWitness()
    w.offer(10, ts=5, cpu=0, pid=1, task="a", stack=("x",))
    w.offer(7, ts=9, cpu=1, pid=2, task="b", stack=("y",))
    assert w.cycles == 10 and w.task == "a"
    d = w.to_dict()
    assert d["stack"] == ["x"] and d["cycles"] == 10


def test_disable_detaches_the_hooks():
    k = traced_kernel(Ext2SuperBlock)
    file_workload(k)
    k.trace.disable()
    before = k.prof.to_dict()
    file_workload(k)
    k.irq.local_irq_disable("test")
    k.irq.local_irq_enable("test")
    after = k.prof.to_dict()
    # the scheduler's own sched.delay histogram is always on
    before.pop("wakeup_delay"), after.pop("wakeup_delay")
    assert after == before


# ------------------------------------------------------------------ exports


def test_write_folded_roundtrip(tmp_path):
    k = traced_kernel(Ext2SuperBlock)
    file_workload(k)
    att = k.trace.attribution()
    out = write_folded(att.folded(), tmp_path / "out.folded")
    total = 0
    for line in out.read_text().splitlines():
        stack, n = line.rsplit(" ", 1)
        assert stack
        total += int(n)
    assert total == att.window_cycles


def test_flamegraph_svg_structure(tmp_path):
    k = traced_kernel(Ext2SuperBlock)
    file_workload(k)
    path = write_flamegraph(k.trace.attribution().folded(),
                            tmp_path / "fg.svg", title="test flame")
    svg = path.read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "test flame" in svg
    assert svg.count("<rect") > 3
    assert "syscall:write" in svg


def test_flamegraph_of_nothing_is_still_valid_svg():
    svg = flamegraph_svg({})
    assert svg.startswith("<svg") and "(empty)" in svg


def test_flamegraph_is_deterministic():
    folded = {"a;b;c": 5, "a;b": 3, "d": 1}
    assert flamegraph_svg(folded) == flamegraph_svg(folded)


def test_perfetto_export_carries_counter_tracks():
    k = traced_kernel(Ext2SuperBlock)
    k.spawn("other")
    file_workload(k)
    k.sched.switch_to(k.tasks[-1])
    doc = chrome_trace(k.trace)
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    names = {e["name"] for e in counters}
    assert {"sched.runqueue.cpu0", "mmu.tlb_misses"} <= names
    assert all("value" in e["args"] for e in counters)


def test_tracer_counter_events_render():
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    k.spawn("t0")
    k.trace.enable()
    k.trace.counter("my.track", 7)
    doc = chrome_trace(k.trace)
    cs = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert len(cs) == 1
    assert cs[0]["name"] == "my.track" and cs[0]["args"]["value"] == 7


def test_custom_counter_track():
    """Any kernel site can add its own track with ``Tracer.counter``; it
    renders next to the built-in ones."""
    k = traced_kernel()
    k.trace.counter("test.box", 42)
    k.sched.switch_to(k.spawn("other"))
    tracks = {e["name"]: e["args"]["value"]
              for e in chrome_trace(k.trace)["traceEvents"] if e["ph"] == "C"}
    assert tracks["test.box"] == 42 and "sched.runqueue.cpu0" in tracks


def test_counter_providers_sample_live_state():
    """The runqueue track is emitted at ``sched:switch`` with the live
    runqueue length, and the TLB-miss track with the MMU's own count."""
    k = traced_kernel()
    a = k.spawn("a")
    k.spawn("b")
    k.sched.switch_to(a)
    points = {(e[1], e[5]["value"]) for e in k.trace.events() if e[0] == "C"}
    assert ("sched.runqueue.cpu0", 3) in points
    assert ("mmu.tlb_misses", k.mmu.tlb_misses) in points


def test_cq_backlog_track_on_completion_post():
    from repro.kernel.uring import OP_NOP, Sqe, UringLayer, UringQueue

    k = traced_kernel()
    UringLayer(k)
    q = UringQueue(k, k.sys.uring_setup(8))
    for i in range(3):
        q.prep(Sqe(OP_NOP, user_data=i))
    assert q.submit() == 3
    backlog = [e[5]["value"] for e in k.trace.events()
               if e[0] == "C" and e[1] == "uring.cq_backlog"]
    assert backlog == [1, 2, 3]


def test_to_dict_shape():
    k = traced_kernel(Ext2SuperBlock)
    file_workload(k)
    d = k.prof.to_dict()
    for key in ("wakeup_delay", "wakeup_max", "irqsoff", "irqsoff_max",
                "preemptoff", "preemptoff_max", "syscalls"):
        assert key in d
    assert d["syscalls"]["write"]["count"] == 30
