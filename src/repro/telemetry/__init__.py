"""Card-wide telemetry: metrics, spans and a simulation profiler.

The observability spine of the reproduction, mirroring the per-vFPGA
statistics and debug registers the Coyote v2 shell exposes to operators:

* :class:`MetricsRegistry` — counters / gauges / mergeable fixed-bucket
  histograms under dot-separated ``domain.metric`` names,
* :class:`SpanRecorder` — sim-time spans with parent/child links,
  layered on :class:`repro.sim.tracing.Tracer`,
* :class:`SimProfiler` — events / wall-time / sim-time per simulated
  component, for finding hot paths in the DES engine,
* :func:`collect_card_metrics` — fold one card's live hardware counters
  into a registry (what ``card_report()['telemetry']`` shows), and
  :func:`collect_cluster_metrics` — the one fabric-wide roll-up.
"""

from .collect import collect_card_metrics, collect_cluster_metrics
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profiler import SimProfiler
from .spans import Span, SpanRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "SimProfiler",
    "collect_card_metrics",
    "collect_cluster_metrics",
]
