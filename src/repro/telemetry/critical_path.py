"""Critical-path extraction over the finished span graph.

Walks backward from a target task span through the causal links (each task
span links to the spans of its input producers), always following the
gating producer — the one whose output arrived last.  The walk yields a
contiguous chain of time segments from the first submission to the final
result, and each segment is attributed to one of four buckets:

* **compute**  — device-seconds actually executing the payload;
* **transfer** — argument resolution: pull round-trips / push arrivals
  plus the bulk bytes on the fabric;
* **queue**    — waiting for dispatch, device slots, or actor serialization;
* **recovery** — lineage replays and retry backoff: any time on the path
  that exists only because something failed.

This attribution is what turns "the pipeline is slow" into "62% of the
end-to-end latency is transfer, switch resolution to push" — the E18
benchmark asserts exactly that shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from .spans import Span, task_phases

__all__ = ["PathSegment", "CriticalPathResult", "critical_path"]

ATTRIBUTION_BUCKETS = ("compute", "transfer", "queue", "recovery")

_EPS = 1e-15  # segments shorter than this are dropped (float noise)


@dataclass(frozen=True)
class PathSegment:
    """One attributed slice of the end-to-end latency."""

    task_id: str
    name: str
    category: str  # one of ATTRIBUTION_BUCKETS
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPathResult:
    """The extracted path plus its latency attribution."""

    target_span_id: str
    segments: List[PathSegment]
    total: float
    breakdown: Dict[str, float]

    @property
    def fractions(self) -> Dict[str, float]:
        if self.total <= 0:
            return {k: 0.0 for k in self.breakdown}
        return {k: v / self.total for k, v in self.breakdown.items()}

    def task_ids(self) -> List[str]:
        """Tasks on the path, in execution order (deduplicated)."""
        seen: List[str] = []
        for seg in self.segments:
            if not seen or seen[-1] != seg.task_id:
                seen.append(seg.task_id)
        return seen


def _bucket(span: Span, phase_bucket: str) -> str:
    """Map a phase to its attribution bucket, folding in failure history.

    Replayed tasks exist only because an object was lost: everything they
    spend is recovery.  A task that needed retries spent its pre-dispatch
    window on failed attempts and backoff, so its queue share is recovery
    too (the final attempt's transfer and compute remain genuinely that).
    """
    if span.attrs.get("replayed"):
        return "recovery"
    if phase_bucket == "queue" and span.attrs.get("retries", 0):
        return "recovery"
    return phase_bucket


def critical_path(
    spans: Sequence[Span],
    target: Union[Span, str],
) -> CriticalPathResult:
    """Extract the critical path ending at ``target`` (a task span or id).

    Only finished ``category == "task"`` spans participate; the chain
    follows, at each task, the producer link whose span finished last (the
    input that actually gated readiness).  Each task contributes the
    window between that gate and its own finish, split by milestone.
    """
    index: Dict[str, Span] = {s.span_id: s for s in spans}
    if isinstance(target, str):
        if target not in index:
            raise KeyError(f"unknown span {target!r}")
        target = index[target]
    if target.category != "task":
        raise ValueError(f"critical path target must be a task span, got {target.category!r}")
    if target.is_open:
        raise ValueError(f"span {target.span_id} ({target.name}) is still open")

    chain: List[List[PathSegment]] = []  # one group per task, newest first
    cur: Optional[Span] = target
    visited = set()
    while cur is not None:
        if cur.span_id in visited:  # defensive: malformed link cycles
            break
        visited.add(cur.span_id)
        gate_span: Optional[Span] = None
        for link_id in cur.links:
            producer = index.get(link_id)
            if producer is None or producer.is_open or producer.category != "task":
                continue
            if gate_span is None or producer.end > gate_span.end:
                gate_span = producer
        lo = max(cur.start, gate_span.end) if gate_span is not None else cur.start
        task_id = str(cur.attrs.get("task_id", cur.span_id))
        group: List[PathSegment] = []
        for _phase, bucket, a, b in task_phases(cur):
            a = max(a, lo)
            if b - a <= _EPS:
                continue
            group.append(PathSegment(task_id, cur.name, _bucket(cur, bucket), a, b))
        chain.append(group)
        cur = gate_span
    # reverse the task order only — phases within a task are already forward
    segments: List[PathSegment] = [seg for group in reversed(chain) for seg in group]

    breakdown = {k: 0.0 for k in ATTRIBUTION_BUCKETS}
    for seg in segments:
        breakdown[seg.category] += seg.duration
    total = (target.end - segments[0].start) if segments else 0.0
    return CriticalPathResult(
        target_span_id=target.span_id,
        segments=segments,
        total=total,
        breakdown=breakdown,
    )
