"""Causal span tracing: one user call yields a linked tree across nodes.

Every task, actor call, object transfer, and lineage replay opens a
:class:`Span` carrying a propagated trace id and parent/link span ids, so
the finished span graph records *why* each piece of work ran, not just
when.  The critical-path extractor and the Chrome-trace flow arrows are
both built on this graph.

Ids are sequential (``trace-0001``, ``span-000001``) and timestamps come
from the simulator clock, so traces are deterministic under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = ["Span", "Tracer", "SPAN_CATEGORIES", "task_phases"]

# the attribution buckets critical-path analysis resolves spans into
SPAN_CATEGORIES = ("task", "compute", "transfer", "queue", "recovery", "control")


@dataclass(slots=True)
class Span:
    """One timed, causally-linked unit of work."""

    trace_id: str
    span_id: str
    name: str
    category: str
    start: float
    end: float = math.nan  # NaN while open
    parent_id: Optional[str] = None
    links: Tuple[str, ...] = ()  # extra causal parents (multi-input tasks)
    node: str = ""
    device: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_open(self) -> bool:
        return math.isnan(self.end)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def finish(self, end: float) -> "Span":
        if not self.is_open:
            raise RuntimeError(f"span {self.span_id} ({self.name}) already finished")
        if end < self.start:
            raise ValueError(f"span {self.span_id} ends before it starts")
        self.end = end
        return self


def task_phases(span: Span) -> List[Tuple[str, str, float, float]]:
    """A task span's milestones as ``(phase, bucket, start, end)`` windows,
    read from the attrs the runtime sets when it closes the span.  The one
    table behind the critical path's attribution and the Chrome export's
    phase slices."""
    dispatched = span.attrs.get("dispatched", span.start)
    inputs_ready = span.attrs.get("inputs_ready", dispatched)
    started = span.attrs.get("started", inputs_ready)
    return [
        ("schedule", "queue", span.start, dispatched),  # scheduling + lease + retry backoff
        ("resolve-inputs", "transfer", dispatched, inputs_ready),  # argument resolution
        ("wait-device", "queue", inputs_ready, started),  # device slot / actor lock wait
        ("execute", "compute", started, span.end),
    ]


class Tracer:
    """Records spans; hands out deterministic trace/span ids."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self.spans: List[Span] = []
        self._n_traces = 0
        self._n_spans = 0

    # -- id minting ----------------------------------------------------------

    def new_trace_id(self) -> str:
        self._n_traces += 1
        return f"trace-{self._n_traces:04d}"

    def _new_span_id(self) -> str:
        self._n_spans += 1
        return f"span-{self._n_spans:06d}"

    # -- span lifecycle ------------------------------------------------------

    def start_span(
        self,
        name: str,
        category: str,
        *,
        parent: Union[Span, str, None] = None,
        trace_id: Optional[str] = None,
        links: Tuple[str, ...] = (),
        node: str = "",
        device: str = "",
        start: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span.  Trace id propagates parent → child unless given."""
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        if trace_id is None:
            if isinstance(parent, Span):
                trace_id = parent.trace_id
            else:
                trace_id = self.new_trace_id()
        span = Span(
            trace_id=trace_id,
            span_id=self._new_span_id(),
            name=name,
            category=category,
            start=self._clock() if start is None else start,
            parent_id=parent_id,
            links=tuple(links),
            node=node,
            device=device,
            attrs=dict(attrs),
        )
        self.spans.append(span)
        return span

    def emit(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        *,
        parent: Union[Span, str, None] = None,
        trace_id: Optional[str] = None,
        links: Tuple[str, ...] = (),
        node: str = "",
        device: str = "",
        **attrs: Any,
    ) -> Span:
        """Record an already-finished span in one call."""
        span = self.start_span(
            name,
            category,
            parent=parent,
            trace_id=trace_id,
            links=links,
            node=node,
            device=device,
            start=start,
            **attrs,
        )
        return span.finish(end)

    # -- queries -------------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        return [s for s in self.spans if not s.is_open]

    def children_of(self, span_id: str) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def __len__(self) -> int:
        return len(self.spans)
