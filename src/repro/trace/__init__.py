"""repro.trace — kernel-wide tracepoints, metrics, and cycle attribution.

The simulator's observability layer (cf. ftrace/eBPF in docs/OBSERVABILITY.md):

* :class:`Tracer` — static tracepoints emitting begin/end spans, complete
  events, and instants into a bounded drop-oldest ring buffer, stamped
  with the simulated clock;
* :class:`Attribution` — exact self/total cycle decomposition of a traced
  window per span stack (``folded()`` feeds flamegraphs), summing exactly
  to the clock's elapsed cycles, diffable between runs;
* :class:`LatencyTracers` — ftrace-style wakeup/irqsoff/preemptoff and
  per-syscall latency tracers with max-latency witnesses;
* :class:`MetricsRegistry` — named counters/gauges/histograms the
  previously scattered subsystem counters register on;
* :func:`chrome_trace` / :func:`write_chrome_trace` — Perfetto-loadable
  Trace Event Format export.

Tracing never charges the simulated clock (bit-identity with tracing on
vs. off is asserted in ``tests/trace/``), and a disabled tracer costs one
attribute check per tracepoint.  ``BootConfig.trace``
(:mod:`repro.kernel.boot`) boots every kernel with tracing enabled.
"""

from repro.trace.attribution import UNTRACED, Attribution, SpanStat, render_diff
from repro.trace.flamegraph import flamegraph_svg, write_flamegraph, write_folded
from repro.trace.metrics import (Counter, Gauge, Histogram, Metric,
                                 MetricsRegistry, PercpuCounter)
from repro.trace.perfetto import chrome_trace, write_chrome_trace
from repro.trace.prof import LatencyTracers, MaxWitness
from repro.trace.tracepoints import (DEFAULT_CAPACITY, PH_BEGIN, PH_COMPLETE,
                                     PH_COUNTER, PH_END, PH_INSTANT,
                                     TraceEvent, Tracer)

#: environment knob: benchmark trace/attribution output directory.
ENV_TRACE_OUT = "REPRO_TRACE_OUT"

__all__ = [
    "Attribution", "SpanStat", "UNTRACED", "render_diff",
    "Counter", "Gauge", "Histogram", "Metric", "MetricsRegistry",
    "PercpuCounter",
    "chrome_trace", "write_chrome_trace",
    "flamegraph_svg", "write_flamegraph", "write_folded",
    "LatencyTracers", "MaxWitness",
    "Tracer", "TraceEvent", "DEFAULT_CAPACITY",
    "PH_BEGIN", "PH_END", "PH_COMPLETE", "PH_INSTANT", "PH_COUNTER",
    "ENV_TRACE_OUT",
]
