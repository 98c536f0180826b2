"""Lockdep and the §3.3 lock monitors attached simultaneously.

The validator hooks locks directly (zero-cycle, always-on when enabled);
the LockProfiler rides the instrumented event-dispatcher path (charged,
opt-in).  Both observe the same acquisitions, so with both attached the
event stream must be unchanged and every observer must agree on counts.
"""

import pytest

from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.vfs.file import O_CREAT, O_WRONLY
from repro.safety.monitor import EventDispatcher, LockProfiler


def _boot(monkeypatch, *, lockdep):
    monkeypatch.delenv("REPRO_LOCKDEP", raising=False)
    kern = Kernel(lockdep=lockdep)
    kern.mount_root(RamfsSuperBlock(kern))
    kern.spawn("t")
    return kern


def _profiled_workload(kern):
    dispatcher = EventDispatcher(kern).attach()
    prof = LockProfiler(kern.metrics)
    dispatcher.register_callback(prof)
    kern.vfs.dcache_lock.instrumented = True
    for i in range(10):
        kern.sys.close(kern.sys.open(f"/f{i}", O_CREAT | O_WRONLY))
    return prof


def test_profiler_and_validator_agree_on_acquisitions(monkeypatch):
    kern = _boot(monkeypatch, lockdep=True)
    prof = _profiled_workload(kern)
    hits = kern.vfs.dcache_lock.acquisitions
    (_, stats), = prof.hottest_locks(1)
    assert stats.acquisitions == hits
    assert kern.lockdep.classes["dcache_lock"].acquisitions == hits
    assert not kern.lockdep.reports


def test_event_stream_identical_with_lockdep_attached(monkeypatch):
    """Lockdep must not perturb what the dispatcher path observes."""
    streams = []
    for lockdep in (False, True):
        kern = _boot(monkeypatch, lockdep=lockdep)
        events = []
        kern.attach_event_dispatcher(
            lambda obj, et, site: events.append((obj.name, et, site)))
        kern.vfs.dcache_lock.instrumented = True
        for i in range(5):
            kern.sys.close(kern.sys.open(f"/f{i}", O_CREAT | O_WRONLY))
        streams.append((events, kern.clock.now))
    assert streams[0] == streams[1]


def test_contention_counts_agree_across_observers(monkeypatch):
    """sem.contended metric, Semaphore.contended, and lockdep's view of
    the semaphore class all count the same blocked down()."""
    kern = _boot(monkeypatch, lockdep=True)
    sem = kern.vfs.rename_sem         # a real substrate binary semaphore
    holder = kern.spawn("holder")
    waiter = kern.spawn("waiter")
    kern.sched.switch_to(holder)
    sem.down("ia:holder")
    kern.sched.switch_to(waiter)
    sem.down("ia:waiter")             # blocks, then transfers
    sem.up("ia:waiter")
    assert sem.contended == 1
    assert kern.metrics.counter("sem.contended").value == 1
    cls = kern.lockdep.classes["s_vfs_rename_sem"]
    assert cls.acquisitions == sem.downs == 2
    assert not kern.lockdep.reports


def test_strict_validator_under_profiler_still_raises(monkeypatch):
    from repro.kernel.locks import SpinLock
    from repro.safety.lockdep import LockdepError

    monkeypatch.setenv("REPRO_LOCKDEP", "1")
    kern = Kernel()
    kern.mount_root(RamfsSuperBlock(kern))
    kern.spawn("t")
    dispatcher = EventDispatcher(kern).attach()
    dispatcher.register_callback(LockProfiler(kern.metrics))
    a = SpinLock(kern, "ia_a", instrumented=True)
    b = SpinLock(kern, "ia_b", instrumented=True)
    with a.guard("ia:ab"):
        with b.guard("ia:ab"):
            pass
    b.lock("ia:ba")
    with pytest.raises(LockdepError):
        a.lock("ia:ba")
