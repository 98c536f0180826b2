"""Lock profiler (§3.5 analysis tools) and checked string/memory externs."""

import pytest

from repro.cminus import Interpreter, UserMemAccess, parse
from repro.errors import BoundsError, InvalidPointer
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.locks import EV_LOCK, EV_UNLOCK
from repro.kernel.vfs import O_CREAT, O_WRONLY
from repro.safety.kgcc import KgccRuntime, instrument
from repro.safety.monitor import EventDispatcher, LockProfiler
from repro.safety.monitor.events import Event


@pytest.fixture
def k():
    kern = Kernel()
    kern.mount_root(RamfsSuperBlock(kern))
    kern.spawn("t")
    return kern


# -------------------------------------------------------------- lock profiler

def _ev(etype, obj=1, site="s", cycles=0):
    return Event(obj_id=obj, event_type=etype, site=site, value=0,
                 cycles=cycles)


def test_hold_time_statistics():
    prof = LockProfiler()
    prof(_ev(EV_LOCK, cycles=100, site="a"))
    prof(_ev(EV_UNLOCK, cycles=150))
    prof(_ev(EV_LOCK, cycles=200, site="a"))
    prof(_ev(EV_UNLOCK, cycles=500))
    s = prof.stats[1]
    assert s.acquisitions == 2
    assert s.total_hold_cycles == 50 + 300
    assert s.max_hold_cycles == 300
    assert s.min_hold_cycles == 50
    assert s.mean_hold_cycles == 175
    assert s.top_sites() == [("a", 2)]


def test_hit_rate_over_window():
    prof = LockProfiler()
    for i in range(10):
        prof(_ev(EV_LOCK, cycles=i * 1000))
        prof(_ev(EV_UNLOCK, cycles=i * 1000 + 100))
    rate = prof.stats[1].hit_rate(hz=1000.0)  # window = 9100 cycles = 9.1 s
    assert rate == pytest.approx(10 / 9.1, rel=0.01)


def test_hottest_locks_ordering():
    prof = LockProfiler()
    prof(_ev(EV_LOCK, obj=1, cycles=0))
    prof(_ev(EV_UNLOCK, obj=1, cycles=10))
    prof(_ev(EV_LOCK, obj=2, cycles=0))
    prof(_ev(EV_UNLOCK, obj=2, cycles=10_000))
    assert [obj for obj, _ in prof.hottest_locks(2)] == [2, 1]
    assert "lock profile" in prof.report(n=2)


def test_profiles_live_dcache_lock(k):
    d = EventDispatcher(k).attach()
    prof = LockProfiler()
    d.register_callback(prof)
    k.vfs.dcache_lock.instrumented = True
    for i in range(10):
        k.sys.close(k.sys.open(f"/f{i}", O_CREAT | O_WRONLY))
    assert prof.events_seen > 20
    (obj, stats), = prof.hottest_locks(1)
    assert stats.acquisitions == k.vfs.dcache_lock.acquisitions
    assert any("namei" in site for site, _ in stats.top_sites())


def test_unmatched_unlock_ignored():
    prof = LockProfiler()
    prof(_ev(EV_UNLOCK, cycles=5))
    assert prof.stats[1].total_hold_cycles == 0


# ---------------------------------------------------- checked string externs

@pytest.fixture
def checked_run(k):
    task = k.current
    mem = UserMemAccess(k, task)

    def _run(source: str, fn: str = "main", *args):
        program = parse(source)
        instrument(program)
        runtime = KgccRuntime(k)
        interp = Interpreter(program, mem,
                             externs=runtime.make_externs(mem),
                             check_runtime=runtime, var_hooks=runtime)
        return interp.call(fn, *args)

    return _run


def test_checked_memcpy_ok(checked_run):
    src = """
    int main() {
        char *a = malloc(16);
        char *b = malloc(16);
        for (int i = 0; i < 16; i++) a[i] = i;
        memcpy(b, a, 16);
        int ok = 1;
        for (int i = 0; i < 16; i++) if (b[i] != i) ok = 0;
        free(a); free(b);
        return ok;
    }
    """
    assert checked_run(src) == 1


def test_checked_memcpy_overflow_caught(checked_run):
    src = """
    int main() {
        char *a = malloc(16);
        char *b = malloc(8);
        memcpy(b, a, 16);
        return 0;
    }
    """
    with pytest.raises(BoundsError):
        checked_run(src)


def test_checked_memcpy_unknown_pointer_caught(checked_run):
    src = """
    int main() {
        char *a = malloc(16);
        memcpy(a, 12345678, 4);
        return 0;
    }
    """
    with pytest.raises(InvalidPointer):
        checked_run(src)


def test_checked_memset_and_strlen(checked_run):
    src = """
    int main() {
        char *s = malloc(8);
        memset(s, 0, 8);
        s[0] = 104; s[1] = 105;
        return strlen(s);
    }
    """
    assert checked_run(src) == 2


def test_unterminated_strlen_caught(checked_run):
    src = """
    int main() {
        char *s = malloc(4);
        memset(s, 65, 4);
        return strlen(s);
    }
    """
    with pytest.raises(BoundsError):
        checked_run(src)


def test_checked_strcpy_overflow_caught(checked_run):
    src = """
    int main() {
        char *a = malloc(16);
        char *b = malloc(4);
        memset(a, 0, 16);
        for (int i = 0; i < 10; i++) a[i] = 65;
        strcpy(b, a);
        return 0;
    }
    """
    with pytest.raises(BoundsError):
        checked_run(src)


def test_strcpy_ok(checked_run):
    src = """
    int main() {
        char *a = malloc(8);
        char *b = malloc(8);
        memset(a, 0, 8);
        a[0] = 120; a[1] = 121;
        strcpy(b, a);
        return b[0] * 1000 + b[1];
    }
    """
    assert checked_run(src) == 120 * 1000 + 121
