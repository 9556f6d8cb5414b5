"""The runtime's failure/recovery event log.

Every control-plane incident — a node death, a heartbeat suspicion, a
lineage replay, a retry, an actor restart, a chaos injection — is recorded
as a :class:`RuntimeEvent`.  The log serves three masters:

* the Chrome trace exporter renders these as instant events, so recovery
  storms are visible in Perfetto next to the task spans they perturb;
* chaos tests assert that a seeded fault schedule reproduces the
  *identical* event sequence (the determinism contract);
* benchmarks count suspicions/retries/replays to attribute recovery cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple

__all__ = ["RuntimeEvent", "EventLog"]


@dataclass(frozen=True)
class RuntimeEvent:
    """One timestamped control-plane incident."""

    time: float
    kind: str  # e.g. "node_suspected", "task_retry", "actor_restart"
    detail: Tuple[Tuple[str, Any], ...] = ()

    def __getitem__(self, key: str) -> Any:
        for k, v in self.detail:
            if k == key:
                return v
        raise KeyError(key)

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.detail:
            if k == key:
                return v
        return default

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.detail)


class EventLog:
    """An append-only event list with counting helpers."""

    def __init__(self) -> None:
        self.events: List[RuntimeEvent] = []
        # poked, in registration order, on every record: the telemetry plane
        # mirrors the log into incident counters (one source of truth) and
        # the dist-sanitizer probe mirrors chaos injections
        self._observers: List[Callable[[RuntimeEvent], None]] = []

    def add_observer(self, observer: Callable[[RuntimeEvent], None]) -> None:
        self._observers.append(observer)

    def record(self, time: float, kind: str, **detail: Any) -> RuntimeEvent:
        ev = RuntimeEvent(time, kind, tuple(sorted(detail.items())))
        self.events.append(ev)
        for observer in self._observers:
            observer(ev)
        return ev

    def of_kind(self, kind: str) -> List[RuntimeEvent]:
        return [e for e in self.events if e.kind == kind]

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def counts(self) -> Dict[str, int]:
        """Occurrences per kind, sorted by kind (comparable to telemetry)."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return dict(sorted(out.items()))

    def signature(self) -> List[Tuple[float, str, Tuple[Tuple[str, Any], ...]]]:
        """A comparable fingerprint: two seeded runs must produce equal
        signatures (the chaos determinism contract)."""
        return [(round(e.time, 12), e.kind, e.detail) for e in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[RuntimeEvent]:
        return iter(self.events)
