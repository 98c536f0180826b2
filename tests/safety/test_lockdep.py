"""The lockdep concurrency sanitizer: self-tests, reports, zero cost.

Covers the acceptance bars for the validator itself:

* every known-bad pattern in the Linux-style self-test battery is caught,
  and deadlock reports carry BOTH chains (this task's acquisitions and
  the recorded first-witness chain);
* the simulated clock is bit-identical with lockdep on or off — the
  validator only ever *reads* the clock;
* strict mode (``REPRO_LOCKDEP=1``) raises on the first violation, the
  explicit ``Kernel(lockdep=True)`` records instead;
* violations surface through every observability channel: ``lockdep.*``
  metrics, Perfetto instant events, and ``REPRO_LOCKDEP_OUT`` artifacts.
"""

import pytest

from repro.kernel import Kernel
from repro.kernel.fs import Ext2SuperBlock, RamfsSuperBlock
from repro.kernel.locks import Semaphore, SpinLock
from repro.kernel.net import SocketLayer
from repro.kernel.sched import WaitQueue
from repro.kernel.vfs.file import O_CREAT, O_RDWR
from repro.safety.lockdep import (DEADLOCK, ENV_LOCKDEP_OUT,
                                  IRQ_INVERSION, RECURSION, SLEEP_IN_ATOMIC,
                                  LockdepError, render_reports, run_selftests)
from repro.trace import PH_INSTANT


@pytest.fixture
def k(monkeypatch):
    """A recording (non-strict) lockdep kernel, env-independent."""
    monkeypatch.delenv("REPRO_LOCKDEP", raising=False)
    monkeypatch.delenv(ENV_LOCKDEP_OUT, raising=False)
    kern = Kernel(lockdep=True)
    kern.mount_root(RamfsSuperBlock(kern))
    kern.spawn("t")
    return kern


# ------------------------------------------------------------- self-tests

def test_selftest_battery_all_pass():
    results = run_selftests()
    failed = [r.describe() for r in results if not r.ok]
    assert not failed, "\n".join(failed)
    # The battery must include both polarities: bad patterns that report
    # and good patterns that stay silent.
    assert sum(1 for r in results if r.expected) >= 10
    assert sum(1 for r in results if r.expected is None) >= 4


def test_selftest_deadlocks_report_both_chains():
    for res in run_selftests():
        for report in res.reports:
            if report.kind == DEADLOCK:
                assert report.this_chain, res.name
                assert report.recorded_chain, res.name
                rendered = report.render()
                assert "this task's acquisition chain" in rendered
                assert "recorded dependency chain" in rendered


# ------------------------------------------------------- dependency graph

def test_edges_recorded_with_first_witness(k):
    a, b = SpinLock(k, "lk_a"), SpinLock(k, "lk_b")
    with a.guard("w:outer"):
        with b.guard("w:inner"):
            pass
    ld = k.lockdep
    assert ld.has_edge("lk_a", "lk_b")
    assert not ld.has_edge("lk_b", "lk_a")
    edge = ld.forward["lk_a"]["lk_b"]
    assert edge.src_site == "w:outer" and edge.dst_site == "w:inner"
    assert "lk_b" in ld.dependency_graph()["lk_a"]


def test_classes_keyed_by_name_not_instance(k):
    locks = [SpinLock(k, "shared_class") for _ in range(3)]
    for lk in locks:
        with lk.guard("w:x"):
            pass
    cls = k.lockdep.classes["shared_class"]
    assert len(cls.instances) == 3
    assert cls.acquisitions == 3


def test_ab_ba_reports_cycle_with_both_chains(k):
    a, b = SpinLock(k, "lk_a"), SpinLock(k, "lk_b")
    with a.guard("w:ab"):
        with b.guard("w:ab"):
            pass
    with b.guard("w:ba"):
        with a.guard("w:ba"):
            pass
    (report,) = k.lockdep.reports_of(DEADLOCK)
    assert "lk_a" in report.headline and "lk_b" in report.headline
    assert report.this_chain and report.recorded_chain
    assert any("cycle:" in n for n in report.notes)


def test_duplicate_violations_deduplicated(k):
    a, b = SpinLock(k, "lk_a"), SpinLock(k, "lk_b")
    for _ in range(3):
        with a.guard("w:ab"):
            with b.guard("w:ab"):
                pass
        with b.guard("w:ba"):
            with a.guard("w:ba"):
                pass
    assert len(k.lockdep.reports_of(DEADLOCK)) == 1


def test_sleep_in_atomic_via_wait_queue(k):
    lk = SpinLock(k, "lk_atomic")
    wq = WaitQueue(k, "wq")
    with lk.guard("w:hold"):
        wq.sleep("w:sleep")
    (report,) = k.lockdep.reports_of(SLEEP_IN_ATOMIC)
    assert "lk_atomic" in report.headline


def test_counting_semaphore_multiple_downs_clean(k):
    sem = Semaphore(k, "resources", count=3)
    sem.down("w:1")
    sem.down("w:2")
    sem.up("w:2")
    sem.up("w:1")
    assert not k.lockdep.reports


# ------------------------------------------------------- enable semantics

def test_env_boots_strict_validator(monkeypatch):
    monkeypatch.setenv("REPRO_LOCKDEP", "1")
    kern = Kernel()
    kern.spawn("t")
    assert kern.lockdep is not None and kern.lockdep.strict
    a, b = SpinLock(kern, "lk_a"), SpinLock(kern, "lk_b")
    with a.guard("w:ab"):
        with b.guard("w:ab"):
            pass
    b.lock("w:ba")
    with pytest.raises(LockdepError) as exc:
        a.lock("w:ba")
    assert exc.value.report.kind == DEADLOCK
    monkeypatch.setenv("REPRO_LOCKDEP", "yes")
    with pytest.raises(ValueError, match="REPRO_LOCKDEP"):
        Kernel()


def test_explicit_param_wins_over_env(monkeypatch):
    monkeypatch.setenv("REPRO_LOCKDEP", "1")
    kern = Kernel(lockdep=True)      # explicit: record, don't raise
    assert kern.lockdep is not None and not kern.lockdep.strict
    assert Kernel(lockdep=False).lockdep is None


def test_no_env_no_param_no_validator(monkeypatch):
    monkeypatch.delenv("REPRO_LOCKDEP", raising=False)
    assert Kernel().lockdep is None
    for off in ("", "0"):
        monkeypatch.setenv("REPRO_LOCKDEP", off)
        assert Kernel().lockdep is None


# ------------------------------------------------------------ bit-identity

def _buckets(kern):
    return (kern.clock.user, kern.clock.system, kern.clock.iowait)


def _file_workload(kern):
    fd = kern.sys.open("/w", O_CREAT | O_RDWR)
    for i in range(30):
        kern.sys.write(fd, bytes([i % 251]) * 700)
    kern.sys.lseek(fd, 0)
    while kern.sys.read(fd, 4096):
        pass
    kern.sys.close(fd)


def test_clock_identity_on_ext2_with_disk_io(monkeypatch):
    monkeypatch.delenv("REPRO_LOCKDEP", raising=False)
    runs = []
    for lockdep in (False, True):
        kern = Kernel(lockdep=lockdep)
        kern.mount_root(Ext2SuperBlock(kern))
        kern.spawn("t0")
        _file_workload(kern)
        runs.append(_buckets(kern))
    assert runs[0] == runs[1]
    # ...and the validated run actually validated something.


def test_clock_identity_on_network_workload(monkeypatch):
    monkeypatch.delenv("REPRO_LOCKDEP", raising=False)
    runs = []
    for lockdep in (False, True):
        kern = Kernel(lockdep=lockdep)
        kern.mount_root(RamfsSuperBlock(kern))
        kern.spawn("server")
        SocketLayer(kern)
        server_fd = kern.sys.socket()
        kern.sys.bind(server_fd, 80)
        kern.sys.listen(server_fd)
        client = kern.spawn("client")
        kern.sched.switch_to(client)
        cfd = kern.sys.socket(blocking=False)
        kern.sys.connect(cfd, 80)
        kern.sys.write(cfd, b"ping")
        kern.sched.switch_to(kern.tasks[0])
        conn = kern.sys.accept(server_fd)
        assert kern.sys.read(conn, 16) == b"ping"
        if lockdep:
            assert kern.lockdep.acquisitions > 0
            assert not kern.lockdep.reports
        runs.append(_buckets(kern))
    assert runs[0] == runs[1]


def test_validated_workload_records_dependencies_without_reports(k):
    """The substrate's own locking is clean under validation."""
    _file_workload(k)
    ld = k.lockdep
    assert ld.acquisitions > 0
    assert ld.edge_count() > 0
    assert not ld.reports


# ---------------------------------------------------------- observability

def test_lockdep_metrics_registered(k):
    a, b = SpinLock(k, "lk_a"), SpinLock(k, "lk_b")
    with a.guard("w:ab"):
        with b.guard("w:ab"):
            pass
    with b.guard("w:ba"):
        with a.guard("w:ba"):
            pass
    m = k.metrics
    assert m.get("lockdep.violations").value == 1
    assert m.get("lockdep.classes").value == len(k.lockdep.classes)
    assert m.get("lockdep.dependencies").value == k.lockdep.edge_count()
    assert m.get("lockdep.acquisitions").value == k.lockdep.acquisitions
    assert m.get("lockdep.held_max").value == 2


def test_violation_emits_perfetto_instant(k):
    k.trace.enable()
    lk = SpinLock(k, "lk_atomic")
    wq = WaitQueue(k, "wq")
    with lk.guard("w:hold"):
        wq.sleep("w:sleep")
    instants = [e for e in k.trace.events() if e[0] == PH_INSTANT
                and e[1] == f"lockdep:{SLEEP_IN_ATOMIC}"]
    assert len(instants) == 1
    assert instants[0][2] == "lockdep"
    assert "lk_atomic" in instants[0][5]["headline"]


def test_artifact_files_written_on_violation(k, monkeypatch, tmp_path):
    monkeypatch.setenv(ENV_LOCKDEP_OUT, str(tmp_path))
    a1, a2 = SpinLock(k, "lk_r"), SpinLock(k, "lk_r")
    with a1.guard("w:r1"):
        with a2.guard("w:r2"):
            pass
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == [f"lockdep-0001-{RECURSION}.txt"]
    body = (tmp_path / files[0]).read_text()
    assert "possible recursive locking detected" in body


def test_render_summary_and_reports(k):
    lk = SpinLock(k, "lk_solo")
    with lk.guard("w:x"):
        pass
    out = k.lockdep.render()
    assert "== lockdep ==" in out
    assert "lk_solo" in out
    assert render_reports([]) == "lockdep: no violations recorded"


def test_analysis_lockdep_report(k, monkeypatch):
    from repro.analysis import lockdep_report

    assert "== lockdep ==" in lockdep_report(k)
    monkeypatch.delenv("REPRO_LOCKDEP", raising=False)
    assert lockdep_report(Kernel()) == "lockdep: disabled"


# -------------------------------------------------- substrate annotations

def test_cross_directory_rename_uses_subclass_annotation(k):
    """i_sem/1 nesting: cross-dir rename holds two i_sems legally."""
    k.sys.mkdir("/a")
    k.sys.mkdir("/b")
    fd = k.sys.open("/a/f", O_CREAT | O_RDWR)
    k.sys.write(fd, b"payload")
    k.sys.close(fd)
    k.sys.rename("/a/f", "/b/g")
    assert not k.lockdep.reports
    assert k.lockdep.has_edge("s_vfs_rename_sem", "i_sem")
    assert k.lockdep.has_edge("i_sem", "i_sem/1")


def test_irq_inversion_detected_for_undisciplined_driver_lock(k):
    """The discipline nic_lock/sock_rxq follow, violated deliberately."""
    lk = SpinLock(k, "bad_driver_lock")
    ld = k.lockdep
    ld.hardirq_enter()
    with k.irq.irqs_off("drv:handler"):
        with lk.guard("drv:handler"):
            pass
    ld.hardirq_exit()
    with lk.guard("drv:process"):    # missing irqs_off: inversion
        pass
    assert ld.reports_of(IRQ_INVERSION)
