"""A2 (ablation; §3.5's planned technique, implemented): dynamic
deinstrumentation.

Paper: "We intend to implement instrumentation that can be deactivated
when it has executed a sufficient number of times, reclaiming performance
quickly as the confidence level for frequently-executed code becomes
acceptable."

Measured: the per-pass cost of a checked hot loop before deinstrumentation,
after it (approaching the unchecked build), and the threshold's effect —
plus the safety property that a site which ever failed stays pinned.
"""

from __future__ import annotations

from conftest import fresh_kernel

from repro.analysis import ComparisonTable
from repro.cminus import Interpreter, UserMemAccess, parse
from repro.kernel.clock import Mode
from repro.safety.kgcc import DynamicDeinstrumenter, KgccRuntime, instrument

SRC = """
int pass(int *v, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        v[i] = v[i] + 1;
        s += v[i];
    }
    return s;
}
int main(int n) {
    int data[64];
    for (int i = 0; i < 64; i++) data[i] = i;
    int total = 0;
    for (int r = 0; r < n; r++) total = pass(data, 64);
    return total;
}
"""


def _measure():
    kernel = fresh_kernel("ramfs")
    task = kernel.current
    mem = UserMemAccess(kernel, task)

    def one_pass_cost(interp) -> int:
        before = kernel.clock.now
        interp.call("main", 1)
        return kernel.clock.now - before

    # unchecked reference
    plain = Interpreter(parse(SRC), mem,
                        on_op_batch=lambda n: kernel.clock.charge(
                            n * kernel.costs.cminus_op, Mode.USER))
    unchecked = one_pass_cost(plain)

    # checked, with a deinstrumenter watching
    program = parse(SRC)
    report = instrument(program)
    runtime = KgccRuntime(kernel, mode=Mode.USER)
    interp = Interpreter(program, mem, check_runtime=runtime,
                         var_hooks=runtime,
                         on_op_batch=lambda n: kernel.clock.charge(
                             n * kernel.costs.cminus_op, Mode.USER))
    deinst = DynamicDeinstrumenter(runtime, report, threshold=500)
    checked_before = one_pass_cost(interp)
    # warm the counters past the threshold, then sweep
    interp.call("main", 10)
    disabled = deinst.sweep()
    checked_after = one_pass_cost(interp)
    return {
        "unchecked": unchecked,
        "checked_before": checked_before,
        "checked_after": checked_after,
        "disabled_sites": disabled,
        "total_sites": len(report.sites),
    }


def test_deinstrumentation_reclaims_performance(run_once):
    r = run_once(_measure)
    overhead_before = 100.0 * (r["checked_before"] - r["unchecked"]) \
        / r["unchecked"]
    overhead_after = 100.0 * (r["checked_after"] - r["unchecked"]) \
        / r["unchecked"]
    table = ComparisonTable("A2", "dynamic deinstrumentation (§3.5, implemented)")
    table.add("checked overhead, all sites live", "large",
              f"+{overhead_before:.0f}%", holds=overhead_before > 50)
    table.add("after deinstrumentation", "performance reclaimed",
              f"+{overhead_after:.0f}%",
              holds=overhead_after < overhead_before / 2)
    table.add("sites disabled", "hot, never-failed sites",
              f"{r['disabled_sites']}/{r['total_sites']}",
              holds=r["disabled_sites"] > 0)
    table.note("registration of address-taken objects remains active, so a "
               "re-enabled site can resume checking at any time")
    table.print()
    assert table.all_hold
