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

__all__ = ["Span", "TaskSpan", "Tracer", "SPAN_CATEGORIES", "task_phases", "exported_attrs"]

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


@dataclass(slots=True)
class TaskSpan(Span):
    """A task's span: the one record of its milestones.  Submitted at
    ``start``, finished at ``end`` on ``device``; the winning attempt's
    milestones are None until an attempt wins (a failed or cancelled task
    has none)."""

    dispatched: Optional[float] = None  # lease reached the raylet
    inputs_ready: Optional[float] = None  # all arguments local
    started: Optional[float] = None  # device slot acquired

    @property
    def latency(self) -> float:
        return self.end - self.start

    @property
    def input_stall(self) -> float:
        """Time spent waiting for arguments — pull vs push attacks this."""
        return self.inputs_ready - self.dispatched


def task_phases(span: TaskSpan) -> List[Tuple[str, str, float, float]]:
    """A task span's milestones as ``(phase, bucket, start, end)`` windows.
    The one table behind the critical path's attribution and the Chrome
    export's phase slices.  A task no attempt won (failed or cancelled) is one
    ``recovery`` window: its time went to queueing, retries or a run that
    never committed, and none of it was a result's compute."""
    if span.started is None:
        return [("unwon", "recovery", span.start, span.end)]
    dispatched, inputs_ready, started = span.dispatched, span.inputs_ready, span.started
    return [
        ("schedule", "queue", span.start, dispatched),  # scheduling + lease + retry backoff
        ("resolve-inputs", "transfer", dispatched, inputs_ready),  # argument resolution
        ("wait-device", "queue", inputs_ready, started),  # device slot / actor lock wait
        ("execute", "compute", started, span.end),
    ]


def exported_attrs(span: Span) -> Dict[str, Any]:
    """A span's attrs as exports write them: a task's milestones among them
    once an attempt won."""
    if not isinstance(span, TaskSpan) or span.started is None:
        return span.attrs
    return {
        **span.attrs,
        "dispatched": span.dispatched,
        "inputs_ready": span.inputs_ready,
        "started": span.started,
    }


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
        """Open a span (a :class:`TaskSpan` for category ``task``).  Trace id
        propagates parent → child unless given."""
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        if trace_id is None:
            if isinstance(parent, Span):
                trace_id = parent.trace_id
            else:
                trace_id = self.new_trace_id()
        span = (TaskSpan if category == "task" else Span)(
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
