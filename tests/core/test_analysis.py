"""The analysis/report helpers."""

from repro.analysis import (ComparisonTable, fmt_bytes, fmt_seconds,
                            metric_families_report, pct, prof_report)


def test_pct_semantics():
    assert pct(new=50, old=100) == 50.0
    assert pct(new=100, old=50) == -100.0
    assert pct(new=1, old=0) == 0.0


def test_fmt_bytes_units():
    assert fmt_bytes(512) == "512 B"
    assert fmt_bytes(2048) == "2.0 KB"
    assert fmt_bytes(3 * 1024 * 1024) == "3.0 MB"
    assert "GB" in fmt_bytes(5 * 1024 ** 3)


def test_fmt_seconds_units():
    assert fmt_seconds(2.5) == "2.500 s"
    assert fmt_seconds(0.0025) == "2.500 ms"
    assert "µs" in fmt_seconds(2.5e-6)


def test_table_verdicts_and_render():
    t = ComparisonTable("EX", "demo")
    t.add("wins", "yes", "yes", holds=True)
    t.add("margin", "2x", "1.8x", holds=True)
    t.add("context", "n/a", "informational")  # no verdict
    t.note("a note")
    out = t.render()
    assert "== EX: demo ==" in out
    assert out.count("OK") == 2
    assert "MISS" not in out
    assert "note: a note" in out
    assert t.all_hold


def test_table_all_hold_fails_on_miss():
    t = ComparisonTable("EX", "demo")
    t.add("wins", "yes", "no", holds=False)
    assert not t.all_hold
    assert "MISS" in t.render()


def test_informational_rows_do_not_affect_verdict():
    t = ComparisonTable("EX", "demo")
    t.add("context only", "-", "-")
    assert t.all_hold  # vacuously true


def test_metric_families_report_groups_and_expands_shards():
    from repro.kernel.core import Kernel
    from repro.kernel.fs import RamfsSuperBlock

    k = Kernel(cpus=2)
    k.mount_root(RamfsSuperBlock(k))
    a, b = k.spawn("a"), k.spawn("b")
    k.sched.switch_to(b)
    k.sched.switch_to(a)
    out = metric_families_report(k.metrics)
    assert "== metric families ==" in out
    assert "-- sched --" in out and "-- lockdep --" in out
    # per-CPU shard split rendered for the context-switch PercpuCounter
    assert "cpu0=" in out and "cpu1=" in out
    # a family with nothing registered renders as absent, not an error
    empty = metric_families_report(k.metrics, families=("nosuch.",))
    assert "(none registered)" in empty


def test_prof_report_renders_tracers_and_stacks():
    from repro.kernel.core import Kernel
    from repro.kernel.fs import RamfsSuperBlock
    from repro.kernel.vfs.file import O_CREAT, O_RDWR

    k = Kernel()
    k.trace.enable()
    k.mount_root(RamfsSuperBlock(k))
    k.spawn("t0")
    fd = k.sys.open("/f", O_CREAT | O_RDWR)
    for _ in range(10):
        k.sys.write(fd, b"x" * 500)
    k.sys.close(fd)
    out = prof_report(k)
    assert "== profile:" in out
    assert "category shares" in out and "boundary" in out
    # hottest stacks are the exact folded stacks, parent;child
    hottest = max(k.trace.attribution().folded().items(),
                  key=lambda kv: kv[1])
    assert "hottest stacks" in out and hottest[0] in out
    assert "syscall:write;syscall:boundary" in out
    assert "wakeup latency" in out and "preemptoff" in out
    assert "syscall latency (cycles):" in out and "write" in out


def test_prof_report_on_empty_profiler():
    from repro.kernel.core import Kernel

    out = prof_report(Kernel())
    assert "empty window" in out
