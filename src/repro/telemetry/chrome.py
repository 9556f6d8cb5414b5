"""Chrome-trace event generation from spans and metric time series.

``repro.runtime.trace`` writes these next to the runtime's incident instants:

* **span slices** — every finished span (task, transfer, actor call,
  replay) is a complete ("X") event on its node's row;
* **phase slices** — a finished task span is drawn with its non-empty
  phases (``<task>:schedule``, ``:resolve-inputs``, ``:wait-device``,
  ``:execute``) nested under it, read from its milestone attrs through
  :func:`~repro.telemetry.spans.task_phases`;
* **flow arrows** — every causal link between task spans becomes a paired
  ``"s"`` (start, at the producer's finish) / ``"f"`` (finish, at the
  consumer's resume) flow event, so Perfetto draws the arrows that make a
  distributed DAG legible;
* **counter events** — every gauge sample becomes a ``"C"`` event, so
  queue depths, bytes resident, and outstanding tasks render as stacked
  area charts under the span rows.
"""

from __future__ import annotations

from typing import List, Sequence

from .metrics import MetricsRegistry
from .spans import Span, task_phases

__all__ = ["spans_to_chrome_events", "counters_to_chrome_events"]


def _pid(span: Span) -> str:
    return span.node or "driver"


def _tid(span: Span) -> str:
    return span.device or span.category


def spans_to_chrome_events(spans: Sequence[Span]) -> List[dict]:
    """Finished spans as complete ("X") events plus causal flow arrows."""
    events: List[dict] = []
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        if span.is_open:
            continue
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": max(span.duration * 1e6, 0.01),
                "pid": _pid(span),
                "tid": _tid(span),
                "args": {
                    "span_id": span.span_id,
                    "trace_id": span.trace_id,
                    "parent_id": span.parent_id or "",
                    **{k: repr(v) for k, v in sorted(span.attrs.items())},
                },
            }
        )
        # milestones are set only when an attempt wins; a failed task has none
        if span.category == "task" and "started" in span.attrs:
            events.extend(
                {
                    "name": f"{span.name}:{phase}",
                    "cat": bucket,
                    "ph": "X",
                    "ts": lo * 1e6,
                    "dur": max((hi - lo) * 1e6, 0.01),
                    "pid": _pid(span),
                    "tid": span.device or bucket,
                    "args": {"trace_id": span.trace_id, "parent_id": span.span_id},
                }
                for phase, bucket, lo, hi in task_phases(span)
                if hi - lo > 0
            )
    flow_id = 0
    for span in spans:
        if span.is_open:
            continue
        for link_id in span.links:
            producer = by_id.get(link_id)
            if producer is None or producer.is_open:
                continue
            flow_id += 1
            common = {"name": "causal", "cat": "flow", "id": flow_id}
            events.append(
                {
                    **common,
                    "ph": "s",
                    "ts": producer.end * 1e6,
                    "pid": _pid(producer),
                    "tid": _tid(producer),
                }
            )
            events.append(
                {
                    **common,
                    "ph": "f",
                    "bp": "e",  # bind to the enclosing slice
                    "ts": max(span.start, producer.end) * 1e6,
                    "pid": _pid(span),
                    "tid": _tid(span),
                }
            )
    return events


def counters_to_chrome_events(registry: MetricsRegistry) -> List[dict]:
    """Every gauge sample as a counter ("C") event on a metrics process."""
    events: List[dict] = []
    for family in registry.families():
        if family.kind != "gauge":
            continue
        for inst in family.instruments():
            labels = inst.labels_dict
            suffix = (
                "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            series = family.name + suffix
            events.extend(
                {
                    "name": series,
                    "cat": "metric",
                    "ph": "C",
                    "ts": t * 1e6,
                    "pid": "metrics",
                    "args": {"value": value},
                }
                for t, value in inst.samples
            )
    return events
