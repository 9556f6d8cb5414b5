"""repro.telemetry — the cluster-wide observability plane.

Three layers, mirroring what Ray ships as a first-class subsystem and
what Dask's overhead studies show is needed to turn anecdotes into
optimization targets:

* :mod:`repro.telemetry.metrics` — sim-time-stamped counters, gauges, and
  histograms (exact p50/p95/p99, label sets), instrumented into the
  scheduler, raylets, object stores, fabric links, and the health layer;
* :mod:`repro.telemetry.spans`   — causal span tracing: every task, actor
  call, transfer, and lineage replay carries a propagated trace/parent
  id, so one user call yields a linked tree across nodes;
* analysis on top — :mod:`repro.telemetry.critical_path` attributes
  end-to-end latency to compute/transfer/queue/recovery,
  :mod:`repro.telemetry.prometheus` round-trips the registry through the
  standard text format, and :mod:`repro.telemetry.chrome` turns spans
  (with their phases and flow arrows) and gauge samples into the Chrome
  trace events that ``repro.runtime.trace`` writes.

Everything is deterministic under a fixed seed: timestamps come from the
simulator clock, ids are sequential, and exports are sorted — telemetry
output itself is assertable in tests.
"""

from __future__ import annotations

from typing import Callable, Optional

from .chrome import counters_to_chrome_events, spans_to_chrome_events
from .critical_path import (
    ATTRIBUTION_BUCKETS,
    CriticalPathResult,
    PathSegment,
    critical_path,
)
from .metrics import Counter, Gauge, Histogram, MetricFamily, MetricsRegistry
from .prometheus import ParsedMetrics, parse_prometheus_text, to_prometheus_text
from .spans import SPAN_CATEGORIES, Span, Tracer

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "Tracer",
    "SPAN_CATEGORIES",
    "critical_path",
    "CriticalPathResult",
    "PathSegment",
    "ATTRIBUTION_BUCKETS",
    "to_prometheus_text",
    "parse_prometheus_text",
    "ParsedMetrics",
    "spans_to_chrome_events",
    "counters_to_chrome_events",
]


class Telemetry:
    """One runtime's telemetry bundle: a registry plus a tracer, sharing
    the simulator clock so every datum is stamped in virtual time."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.registry = MetricsRegistry(clock=clock)
        self.tracer = Tracer(clock=clock)

