"""KGCC selective instrumentation rules (§3.5)."""

import pytest

from repro.cminus import Interpreter, UserMemAccess, parse
from repro.errors import BoundsError
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.safety.kgcc import KgccRuntime, Rule, apply_rules, instrument

SRC = """
int touch_refcount(int *refcount_buf, int i) {
    refcount_buf[i] = refcount_buf[i] + 1;
    return refcount_buf[i];
}
int touch_data(char *data, int i) {
    data[i] = 1;
    return data[i];
}
int main() { return 0; }
"""


def _checked_interp(program, report):
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("sel")
    mem = UserMemAccess(k, task)
    runtime = KgccRuntime(k)
    interp = Interpreter(program, mem, check_runtime=runtime,
                         var_hooks=runtime)
    # two registered heap buffers to aim at
    ref_buf = mem.malloc(4 * 8)
    data_buf = mem.malloc(4)
    runtime.map.register(ref_buf, 4 * 8, "heap", "t")
    runtime.map.register(data_buf, 4, "heap", "t")
    return interp, runtime, ref_buf, data_buf


def test_no_rules_keeps_everything():
    program = parse(SRC)
    report = instrument(program)
    sel = apply_rules(program, report, [])
    assert sel.checks_kept == sel.checks_total == report.checks_inserted


def test_variable_pattern_selects_sites():
    program = parse(SRC)
    report = instrument(program)
    sel = apply_rules(program, report,
                      [Rule(variables="*refcount*")])
    assert 0 < sel.checks_kept < sel.checks_total
    interp, runtime, ref_buf, data_buf = _checked_interp(program, report)
    # refcount accesses are still checked: overflow caught
    with pytest.raises(BoundsError):
        interp.call("touch_refcount", ref_buf, 10)
    # data accesses are no longer checked: overflow sails through
    interp.call("touch_data", data_buf, 100)


def test_function_pattern_selects_sites():
    program = parse(SRC)
    report = instrument(program)
    apply_rules(program, report, [Rule(functions="touch_data")])
    interp, runtime, ref_buf, data_buf = _checked_interp(program, report)
    with pytest.raises(BoundsError):
        interp.call("touch_data", data_buf, 100)
    interp.call("touch_refcount", ref_buf, 10)  # unchecked now


def test_kind_filter():
    program = parse(SRC)
    report = instrument(program)
    sel = apply_rules(program, report,
                      [Rule(kinds=frozenset({"arith"}))])
    # this corpus has only deref checks on indexes, so nothing survives
    assert sel.checks_kept <= report.arith_checks


def test_rules_compose_as_whitelist():
    program = parse(SRC)
    report = instrument(program)
    sel = apply_rules(program, report, [
        Rule(variables="*refcount*"),
        Rule(functions="touch_data"),
    ])
    assert sel.checks_kept == sel.checks_total  # union covers everything


def test_unmatched_rule_is_reported():
    program = parse(SRC)
    report = instrument(program)
    dead = Rule(variables="refcont*")  # typo: matches nothing
    live = Rule(functions="touch_data")
    sel = apply_rules(program, report, [dead, live])
    assert sel.unmatched_rules == [dead]


def test_unmatched_rule_warns_via_syslog():
    from repro.kernel.syslog import KERN_WARNING, Syslog
    program = parse(SRC)
    report = instrument(program)
    log = Syslog()
    apply_rules(program, report,
                [Rule(variables="refcont*"), Rule(functions="touch_*")],
                syslog=log)
    warnings = log.at_or_above(KERN_WARNING)
    assert len(log.grep("matched no check sites")) == 1
    assert any("refcont*" in r.message for r in warnings)
    # the matching rule is not warned about
    assert not log.grep("touch_*")


def test_all_rules_matching_logs_nothing():
    from repro.kernel.syslog import Syslog
    program = parse(SRC)
    report = instrument(program)
    log = Syslog()
    sel = apply_rules(program, report, [Rule(functions="touch_data")],
                      syslog=log)
    assert sel.unmatched_rules == []
    assert len(log) == 0
