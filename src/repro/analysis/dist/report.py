"""Sanitizer reports: one structured answer to "was this run clean?"."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .events import DistTrace
from .hb import HBResult, Race, build_hb
from .invariants import InvariantEngine, Violation

__all__ = ["SanitizerReport", "sanitize_trace"]


@dataclass
class SanitizerReport:
    """The combined verdict of the invariant monitors and the race detector."""

    events: int = 0
    sites: int = 0
    violations: List[Violation] = field(default_factory=list)
    races: List[Race] = field(default_factory=list)
    dangling_recvs: int = 0
    partial: bool = False
    source: Optional[str] = None

    @property
    def clean(self) -> bool:
        return not self.violations and not self.races

    def to_dict(self) -> Dict[str, Any]:
        return {
            "clean": self.clean,
            "events": self.events,
            "sites": self.sites,
            "partial": self.partial,
            "source": self.source,
            "violations": [
                {
                    "monitor": v.monitor,
                    "message": v.message,
                    "seq": v.seq,
                    "subject": v.subject,
                }
                for v in self.violations
            ],
            "races": [
                {
                    "var": r.var,
                    "first": {
                        "seq": r.first.seq,
                        "site": r.first.site,
                        "kind": r.first.kind,
                        "cls": r.first.cls,
                    },
                    "second": {
                        "seq": r.second.seq,
                        "site": r.second.site,
                        "kind": r.second.kind,
                        "cls": r.second.cls,
                    },
                }
                for r in self.races
            ],
            "dangling_recvs": self.dangling_recvs,
        }

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"dist-sanitizer: {self.events} events over {self.sites} site(s)"
            + (f" from {self.source}" if self.source else "")
            + (" (partial trace)" if self.partial else "")
        ]
        if self.clean:
            lines.append("  clean: no invariant violations, no races")
            return "\n".join(lines)
        if self.violations:
            lines.append(f"  {len(self.violations)} invariant violation(s):")
            lines.extend(f"    {v.describe()}" for v in self.violations[:50])
            if len(self.violations) > 50:
                lines.append(f"    ... and {len(self.violations) - 50} more")
        if self.races:
            lines.append(f"  {len(self.races)} race class(es):")
            lines.extend(f"    {r.describe()}" for r in self.races[:50])
            if len(self.races) > 50:
                lines.append(f"    ... and {len(self.races) - 50} more")
        return "\n".join(lines)


def sanitize_trace(
    trace: DistTrace,
    hb: bool = True,
    partial: bool = False,
    source: Optional[str] = None,
    engine: Optional[InvariantEngine] = None,
    dedup_races: bool = True,
) -> SanitizerReport:
    """Run the monitors (and optionally the race detector) over a trace.

    ``engine`` lets an online run hand over its already-fed monitors so
    events are not replayed twice; by default a fresh
    :class:`InvariantEngine` replays the stored trace.
    """
    if engine is None:
        engine = InvariantEngine.run(trace, partial=partial)
    else:
        engine.finish(partial=partial)
    hb_result: Optional[HBResult] = build_hb(trace) if hb else None
    races: List[Race] = []
    dangling = 0
    if hb_result is not None:
        races = hb_result.deduped_races() if dedup_races else hb_result.races
        dangling = len(hb_result.dangling_recvs)
    return SanitizerReport(
        events=len(trace),
        sites=len(trace.sites()),
        violations=engine.violations(),
        races=races,
        dangling_recvs=dangling,
        partial=partial,
        source=source,
    )
