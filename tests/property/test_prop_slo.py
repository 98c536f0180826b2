"""Property tests: ``histogram_percentile`` is a sane estimator.

The SLO layer (and now the profiler's latency tracers) report every
percentile through one function over power-of-two bucketed histograms.
Whatever the observation stream, the estimate must be monotone in the
requested percentile, bracketed by the exact min/max the histogram
tracked, and *exact* when the distribution is degenerate (one distinct
value) — those three properties are what make sched-delay p50/p99
comparisons across tenants meaningful.  Underneath, the histogram's
own summary must equal one computed from the raw observations.
"""

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import histogram_percentile, latency_summary
from repro.trace.metrics import Histogram

observations = st.lists(
    st.integers(min_value=0, max_value=1 << 40), min_size=1, max_size=300)


def filled(values) -> Histogram:
    h = Histogram("prop.test")
    for v in values:
        h.observe(v)
    return h


@given(st.lists(st.integers(min_value=0, max_value=1 << 40), max_size=300))
def test_snapshot_matches_raw_values(values):
    n = len(values)
    assert filled(values).snapshot() == {
        "count": n, "sum": sum(values),
        "min": min(values) if values else None,
        "max": max(values, default=0),
        "mean": sum(values) / n if n else 0.0,
        "buckets": dict(sorted(Counter(v.bit_length()
                                       for v in values).items()))}


@given(observations,
       st.lists(st.floats(min_value=0.0, max_value=100.0),
                min_size=2, max_size=10))
def test_percentile_is_monotone_in_pct(values, pcts):
    h = filled(values)
    estimates = [histogram_percentile(h, p) for p in sorted(pcts)]
    assert all(a <= b for a, b in zip(estimates, estimates[1:]))


@given(observations, st.floats(min_value=0.0, max_value=100.0))
def test_percentile_is_bracketed_by_observed_range(values, pct):
    h = filled(values)
    est = histogram_percentile(h, pct)
    assert min(values) <= est <= max(values)


@given(st.integers(min_value=0, max_value=1 << 40),
       st.integers(min_value=1, max_value=200),
       st.floats(min_value=0.0, max_value=100.0))
def test_percentile_is_exact_on_degenerate_distributions(value, n, pct):
    h = filled([value] * n)
    assert histogram_percentile(h, pct) == float(value)


@given(observations)
def test_latency_summary_is_internally_consistent(values):
    s = latency_summary(filled(values))
    assert s["count"] == len(values)
    assert s["min"] == min(values) and s["max"] == max(values)
    assert s["p50"] <= s["p90"] <= s["p99"] <= s["max"]


def test_empty_histogram_percentile_is_zero():
    assert histogram_percentile(Histogram("empty"), 99) == 0.0
