"""Functional coverage for the overload scenario generator and runner."""

from dataclasses import replace

import pytest

from repro.analysis.slo import (SloReport, TenantSlo, histogram_percentile,
                                jain_fairness, latency_summary)
from repro.core.cosy import CosyProtection
from repro.trace.metrics import Histogram
from repro.workloads.scenario import (BATCH_KINDS, HTTP_KINDS, FaultStorm,
                                      ScenarioConfig, ScenarioRunner,
                                      TenantSpec, TrustTier, default_tenants,
                                      generate_schedule, run_scenario, scaled)


# ------------------------------------------------------------- generator

def test_schedule_pairs_every_open_with_one_close_or_abort():
    cfg = ScenarioConfig(seed=9, events=200, churn=0.5, abort_prob=0.5)
    opens, ends = {}, {}
    for ev in generate_schedule(cfg):
        key = (ev.tenant, ev.conn)
        if ev.kind == "open":
            opens[key] = opens.get(key, 0) + 1
        elif ev.kind in ("close", "abort"):
            ends[key] = ends.get(key, 0) + 1
    assert opens and opens.keys() == ends.keys()
    assert all(n == 1 for n in opens.values())
    assert all(n == 1 for n in ends.values())


def test_schedule_timestamps_monotone_nonnegative():
    sched = generate_schedule(ScenarioConfig(seed=10, events=150))
    ats = [ev.at for ev in sched]
    assert all(a >= 0 for a in ats)
    assert all(b >= a for a, b in zip(ats, ats[1:]))


def test_schedule_storms_are_paired_and_ordered():
    cfg = ScenarioConfig(
        seed=11, events=80,
        storms=(FaultStorm("kmalloc", start_frac=0.1, stop_frac=0.5),
                FaultStorm("net.tx", start_frac=0.4, stop_frac=0.9)))
    sched = generate_schedule(cfg)
    for i in range(len(cfg.storms)):
        on = [j for j, ev in enumerate(sched)
              if ev.kind == "storm_on" and ev.storm == i]
        off = [j for j, ev in enumerate(sched)
               if ev.kind == "storm_off" and ev.storm == i]
        assert len(on) == 1 and len(off) == 1 and on[0] < off[0]


def test_unknown_tenant_kind_rejected():
    with pytest.raises(ValueError):
        TenantSpec("bad", "http-quic")


def test_default_tenants_cover_all_kinds_and_tiers():
    specs = default_tenants()
    kinds = {t.kind for t in specs}
    tiers = {t.tier for t in specs}
    assert kinds == set(HTTP_KINDS) | set(BATCH_KINDS)
    assert tiers == set(TrustTier)


def test_scaled_shrinks_event_budget():
    cfg = ScenarioConfig(events=300)
    assert scaled(cfg, 0.1).events == 30
    assert scaled(cfg, 0.0001).events == 10  # floor


# --------------------------------------------------------------- runner

def test_scenario_runs_clean_and_leak_free():
    result = run_scenario(ScenarioConfig(seed=30, events=40))
    report = result.report
    assert sum(t.completed for t in report.tenants.values()) > 0
    assert report.leaked_sockets == 0
    assert result.monitor_counts["leaks"] == 0
    # the churn-leak fix: closed sockets leave the sockfs registry
    assert result.sockfs_inodes == 0
    assert result.monitor_counts["closes"] >= result.monitor_counts["accepts"]


def test_trust_tiers_share_one_kernel():
    runner = ScenarioRunner(ScenarioConfig(seed=31, events=60))
    result = runner.run()
    proven = runner.tenants["db-proven"]
    warmup = runner.tenants["db-warmup"]
    untrusted = runner.tenants["db-untrusted"]
    # PROVEN: load-time verifier granted DATA_ONLY with no warmup
    assert result.trust["db-proven"]["statically_proven"] >= 1
    assert proven.trust is not None and proven.trust.statically_proven
    # WARMUP: promotion happens through clean runs (threshold=3)
    if warmup.slo.completed >= 3:
        assert result.trust["db-warmup"]["promoted"] >= 1
    # UNTRUSTED: no trust manager, extension pinned to FULL_ISOLATION
    assert untrusted.trust is None
    assert untrusted.app.ext.protection is CosyProtection.FULL_ISOLATION
    assert "db-untrusted" not in result.trust


def test_backlog_overflow_surfaces_as_refusals():
    cfg = ScenarioConfig(seed=32, events=150, churn=0.5, abort_prob=0.3,
                         backlog=1, max_conns=10)
    result = run_scenario(cfg)
    net = result.report.net
    assert net["backlog_overflows"] > 0
    assert net["rst_tx"] >= net["backlog_overflows"]
    assert net["refused"] >= net["backlog_overflows"]
    slo_refused = sum(t.refused for t in result.report.tenants.values())
    assert slo_refused >= net["backlog_overflows"]
    assert result.report.leaked_sockets == 0 and result.sockfs_inodes == 0


def test_fault_storm_survival():
    cfg = ScenarioConfig(
        seed=33, events=60, churn=0.3,
        storms=(FaultStorm("net.tx", rate=0.15, start_frac=0.1,
                           stop_frac=0.8),))
    result = run_scenario(cfg)
    assert result.fault_signature, "storm never fired"
    report = result.report
    # survival: some work still completes, every failure is accounted
    assert sum(t.completed for t in report.tenants.values()) > 0
    assert sum(t.resets for t in report.tenants.values()) > 0
    assert report.leaked_sockets == 0 and result.sockfs_inodes == 0


def test_io_model_changes_the_cost_not_the_outcome():
    """One schedule served by every keep-alive I/O model: each web tenant
    sees the same outcome, and only the simulated cost differs.  The
    roomy backlog matters: uring's armed multishot accept drains SYNs as
    they arrive, so under a small backlog its refusals legitimately
    differ."""
    cfg = ScenarioConfig(seed=2026, events=60, churn=0.1, abort_prob=0.2,
                         backlog=64, max_conns=12)
    outcomes, clocks = [], set()
    for io_model in (None, "select", "epoll", "uring"):
        result = run_scenario(replace(cfg, io_model=io_model))
        assert result.report.leaked_sockets == 0
        assert result.sockfs_inodes == 0
        clocks.add(result.clock)
        outcomes.append({
            name: (t.requests, t.completed, t.refused, t.resets, t.aborted,
                   t.goodput_bytes)
            for name, t in result.report.tenants.items()
            if name in ("web-select", "web-epoll", "web-uring")})
    assert all(o == outcomes[0] for o in outcomes[1:])
    assert all(o[1] > 0 for o in outcomes[0].values())
    assert len(clocks) == 4, "io_model did not change the serving"


def test_slo_histograms_live_in_kernel_metrics():
    runner = ScenarioRunner(ScenarioConfig(seed=34, events=30))
    result = runner.run()
    for name, tenant in runner.tenants.items():
        assert f"slo.{name}.latency_cycles" in result.metrics
        if tenant.slo.completed:
            assert tenant.slo.latency.count > 0


# ------------------------------------------------------------ SLO maths

def test_histogram_percentile_exact_on_single_bucket():
    h = Histogram("t")
    for _ in range(10):
        h.observe(100)
    assert histogram_percentile(h, 50) == 100.0
    assert histogram_percentile(h, 99) == 100.0


def test_histogram_percentile_orders_buckets():
    h = Histogram("t")
    for v in [1] * 90 + [1000] * 10:
        h.observe(v)
    assert histogram_percentile(h, 50) == 1.0
    assert histogram_percentile(h, 99) > 500


def test_histogram_percentile_empty_is_zero():
    assert histogram_percentile(Histogram("t"), 99) == 0.0


def test_latency_summary_keys():
    h = Histogram("t")
    h.observe(7)
    s = latency_summary(h)
    for key in ("count", "mean", "min", "max", "p50", "p90", "p99"):
        assert key in s
    assert s["count"] == 1 and s["min"] == 7 and s["max"] == 7


def test_jain_fairness_bounds():
    assert jain_fairness([]) == 1.0
    assert jain_fairness([0, 0]) == 1.0
    assert jain_fairness([5, 5, 5]) == pytest.approx(1.0)
    skewed = jain_fairness([100, 1, 1, 1])
    assert 0 < skewed < 0.5


def test_slo_report_to_dict_shape():
    t = TenantSlo("a", "http-epoll", "untrusted")
    t.requests = 3
    t.completed = 2
    t.latency.observe(10)
    report = SloReport(tenants={"a": t}, clock=(1, 2, 3),
                       net={"drops": 0}, leaked_sockets=0)
    d = report.to_dict()
    assert d["clock"]["total"] == 6
    assert d["tenants"]["a"]["latency_cycles"]["count"] == 1
    assert "fairness_jain" in d and "goodput_total_bytes" in d
    assert "a" in report.render()
