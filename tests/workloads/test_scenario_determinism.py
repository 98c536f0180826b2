"""Invariant: a scenario is a pure function of its config + fault seed.

Extends the ``tests/trace/test_clock_identity.py`` pattern from single
workloads to the full multi-tenant overload runner: identical
:class:`ScenarioConfig` (plus identical ``REPRO_FAULT_SEED``
environment) must produce bit-identical final simulated clocks, metrics
snapshots, SLO reports, and fault trace signatures — across fresh
kernels in the same process, with and without tracing.
"""

from repro.kernel.core import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.workloads.scenario import (FaultStorm, ScenarioConfig,
                                      ScenarioRunner, run_scenario)

_CFG = ScenarioConfig(seed=424, events=40, churn=0.4, abort_prob=0.3,
                      backlog=4, max_conns=6)
_STORM_CFG = ScenarioConfig(
    seed=425, events=35, churn=0.3, backlog=8,
    storms=(FaultStorm("net.tx", rate=0.1, start_frac=0.2, stop_frac=0.7),))


def _fingerprint(result):
    return (result.clock, result.report.to_dict(), result.metrics,
            result.fault_signature, result.monitor_counts,
            result.sockfs_inodes, result.trust)


def test_same_seed_same_everything():
    a = _fingerprint(run_scenario(_CFG))
    b = _fingerprint(run_scenario(_CFG))
    assert a == b


def test_same_seed_same_everything_under_fault_storm():
    a = _fingerprint(run_scenario(_STORM_CFG))
    b = _fingerprint(run_scenario(_STORM_CFG))
    assert a == b


def test_different_seed_diverges():
    """The generator actually consumes the seed (no accidental constants)."""
    a = run_scenario(_CFG)
    b = run_scenario(ScenarioConfig(seed=_CFG.seed + 1, events=_CFG.events,
                                    churn=_CFG.churn,
                                    abort_prob=_CFG.abort_prob,
                                    backlog=_CFG.backlog,
                                    max_conns=_CFG.max_conns))
    assert a.clock != b.clock or a.report.to_dict() != b.report.to_dict()


def test_env_fault_seed_is_part_of_the_identity(monkeypatch):
    """With REPRO_FAULT_SEED set at boot, two runs still agree bit-for-bit
    (the env schedule is seeded), and the armed schedule actually traced."""
    monkeypatch.setenv("REPRO_FAULT_SEED", "7")
    results = []
    for _ in range(2):
        kernel = Kernel()
        kernel.mount_root(RamfsSuperBlock(kernel))
        kernel.spawn("driver")
        results.append(ScenarioRunner(_CFG, kernel=kernel).run())
    assert _fingerprint(results[0]) == _fingerprint(results[1])
    assert results[0].fault_signature, \
        "env-armed observe schedule produced no fault trace"


def test_tracing_has_zero_simulated_cost_on_scenarios():
    runs = []
    for traced in (False, True):
        kernel = Kernel()
        kernel.mount_root(RamfsSuperBlock(kernel))
        kernel.spawn("driver")
        if traced:
            kernel.trace.enable()
        result = ScenarioRunner(_CFG, kernel=kernel).run()
        runs.append((result.clock, result.report.to_dict()))
    assert runs[0] == runs[1]
