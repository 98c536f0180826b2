"""Unit tests for every fault-injection policy and counter accounting.

These run the registry standalone (no kernel): the policies are pure
deterministic state machines and must behave identically wherever they
are consulted from.
"""

import pytest

from repro.errors import EFAULT, EIO, ENOMEM
from repro.kernel.boot import BootConfig
from repro.kernel.faultinject import (DEFAULT_ERRNOS, FAILPOINTS,
                                      FaultRegistry, arm_schedule)


def hits(reg, n, failpoint="kmalloc", site="?"):
    """Drive the failpoint n times; return the injection decisions."""
    return [reg.should_fail(failpoint, site) for _ in range(n)]


# ------------------------------------------------------------------ every-Nth

def test_every_nth_fires_on_multiples():
    reg = FaultRegistry()
    with reg.inject("kmalloc", every=3):
        decisions = hits(reg, 9)
    assert [d is not None for d in decisions] == [
        False, False, True, False, False, True, False, False, True]
    assert all(d == ENOMEM for d in decisions if d is not None)


def test_every_1_fires_always():
    reg = FaultRegistry()
    with reg.inject("disk.write", every=1):
        assert hits(reg, 4, "disk.write") == [EIO] * 4


# ----------------------------------------------------------- one-shot at K

def test_one_shot_at_call_k():
    reg = FaultRegistry()
    with reg.inject("kmalloc", at_call=5):
        decisions = hits(reg, 10)
    assert [d is not None for d in decisions] == [
        False, False, False, False, True, False, False, False, False, False]


def test_at_call_is_one_based():
    reg = FaultRegistry()
    with reg.inject("kmalloc", at_call=1):
        assert reg.should_fail("kmalloc") == ENOMEM
        assert reg.should_fail("kmalloc") is None


# -------------------------------------------------------- seeded probability

def test_probability_same_seed_same_trace():
    a, b = FaultRegistry(), FaultRegistry()
    for reg in (a, b):
        reg.inject("kmalloc", probability=0.3, seed=1234)
        hits(reg, 200)
    assert a.trace_signature() == b.trace_signature()
    assert a.failpoints["kmalloc"].injected == b.failpoints["kmalloc"].injected
    assert a.failpoints["kmalloc"].injected > 0  # 0.3 * 200 ≈ 60


def test_probability_different_seed_different_trace():
    a, b = FaultRegistry(), FaultRegistry()
    a.inject("kmalloc", probability=0.3, seed=1)
    b.inject("kmalloc", probability=0.3, seed=2)
    hits(a, 200)
    hits(b, 200)
    assert a.trace_signature() != b.trace_signature()


def test_probability_requires_seed():
    reg = FaultRegistry()
    with pytest.raises(ValueError):
        reg.inject("kmalloc", probability=0.5)


def test_probability_bounds_validated():
    reg = FaultRegistry()
    with pytest.raises(ValueError):
        reg.inject("kmalloc", probability=1.5, seed=1)


# --------------------------------------------------------------- site filter

def test_site_glob_filters_hits():
    reg = FaultRegistry()
    with reg.inject("kmalloc", site="wrapfs:*"):
        assert reg.should_fail("kmalloc", "ext2:inode") is None
        assert reg.should_fail("kmalloc", "wrapfs:name") == ENOMEM
        assert reg.should_fail("kmalloc", "wrapfs:page_buffer") == ENOMEM
    fp = reg.failpoints["kmalloc"]
    assert fp.hits == 3          # every consultation while armed counts
    assert fp.injected == 2      # only matching sites fired


def test_site_filter_with_every_counts_only_matches():
    reg = FaultRegistry()
    with reg.inject("disk.write", site="hdb", every=2) as inj:
        # Non-matching device traffic does not advance the policy counter.
        assert reg.should_fail("disk.write", "hda") is None
        assert reg.should_fail("disk.write", "hdb") is None   # match 1
        assert reg.should_fail("disk.write", "hda") is None
        assert reg.should_fail("disk.write", "hdb") == EIO    # match 2
        assert inj.hits == 2


# ------------------------------------------------------------ times cap

def test_times_caps_total_injections():
    reg = FaultRegistry()
    with reg.inject("kmalloc", every=1, times=2):
        decisions = hits(reg, 5)
    assert [d is not None for d in decisions] == [True, True, False, False, False]
    assert reg.failpoints["kmalloc"].injected == 2


# ------------------------------------------------------- counters/lifecycle

def test_counters_and_disarm():
    reg = FaultRegistry()
    assert not reg.enabled
    inj = reg.inject("kmalloc", every=2)
    assert reg.enabled
    hits(reg, 4)
    fp = reg.failpoints["kmalloc"]
    assert (fp.hits, fp.injected) == (4, 2)
    inj.remove()
    assert not reg.enabled
    # Unarmed consultation is free: counters do not move.
    hits(reg, 10)
    assert fp.hits == 4
    reg.reset_counters()
    assert fp.hits == 0 and not reg.trace


def test_context_manager_disarms():
    reg = FaultRegistry()
    with reg.inject("kmalloc"):
        assert reg.enabled
    assert not reg.enabled
    assert reg.should_fail("kmalloc") is None


def test_clear_disarms_everything():
    reg = FaultRegistry()
    reg.inject("kmalloc")
    reg.inject("disk.read")
    assert len(list(reg.active_injections())) == 2
    reg.clear()
    assert not reg.enabled
    assert reg.should_fail("kmalloc") is None


def test_stacked_injections_first_match_wins():
    reg = FaultRegistry()
    reg.inject("kmalloc", errno=ENOMEM, site="a:*")
    reg.inject("kmalloc", errno=EFAULT, site="b:*")
    assert reg.should_fail("kmalloc", "b:x") == EFAULT
    assert reg.should_fail("kmalloc", "a:x") == ENOMEM
    reg.clear()


# -------------------------------------------------------- defaults/validation

def test_default_errnos_cover_all_failpoints():
    reg = FaultRegistry()
    for name in FAILPOINTS:
        assert name in DEFAULT_ERRNOS
        with reg.inject(name, every=1):
            assert reg.should_fail(name) == DEFAULT_ERRNOS[name]


def test_unknown_failpoint_rejected_but_registrable():
    reg = FaultRegistry()
    with pytest.raises(ValueError):
        reg.inject("no.such.failpoint")
    reg.register("module.private")
    with reg.inject("module.private", errno=EIO):
        assert reg.should_fail("module.private") == EIO


def test_conflicting_policies_rejected():
    reg = FaultRegistry()
    with pytest.raises(ValueError):
        reg.inject("kmalloc", every=2, at_call=3)
    with pytest.raises(ValueError):
        reg.inject("kmalloc", every=1, times=0)


# --------------------------------------------------------------- observe mode

def test_observe_mode_counts_without_failing():
    reg = FaultRegistry()
    with reg.inject("kmalloc", every=2, observe=True):
        assert hits(reg, 4) == [None] * 4
    fp = reg.failpoints["kmalloc"]
    assert (fp.hits, fp.injected, fp.observed) == (4, 0, 2)
    assert len(reg.trace) == 2 and all(r.observed for r in reg.trace)


# ------------------------------------------------------------ boot schedule

def test_boot_fault_seed_defaults_to_unset():
    assert BootConfig.resolve(environ={}).fault_seed is None
    assert BootConfig.resolve(environ={"REPRO_FAULT_SEED": ""}).fault_seed is None
    assert BootConfig.resolve(environ={"REPRO_FAULT_SEED": "0"}).fault_seed == 0


def test_arm_schedule_observes_deterministically():
    a, b = FaultRegistry(), FaultRegistry()
    for reg in (a, b):
        arm_schedule(reg, 42)
        injections = list(reg.active_injections())
        assert len(injections) == 6 and all(i.observe for i in injections)
        assert hits(reg, 2000, "kmalloc", "x") == [None] * 2000
        assert hits(reg, 2000, "disk.write", "hda") == [None] * 2000
    assert a.trace_signature() == b.trace_signature()
    assert a.trace  # the fixed 0.002 rate fired within 4,000 hits


def test_boot_fault_seed_rejects_bad_values():
    with pytest.raises(ValueError, match="REPRO_FAULT_SEED"):
        BootConfig.resolve(environ={"REPRO_FAULT_SEED": "not-an-int"})
