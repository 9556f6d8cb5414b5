"""Protocol-event trace: the substrate Skadi-TSan reasons over.

The runtime's :class:`~repro.runtime.events.EventLog` is the *observable*
record — its signature is the determinism contract benchmarks replay
bit-for-bit.  The sanitizer needs strictly more: which logical *site*
performed an action, which message keys causally link two actions, and
which shared control-plane variables were touched and how.  Rather than
widen ``RuntimeEvent`` (and silently change every signature), the probe
emits a parallel stream of :class:`ProtoEvent` records into a
:class:`DistTrace`.  The trace is JSON-serializable so CI can sanitize
benchmark artifacts offline.

Sites
-----
``driver``
    the user-facing API surface (submit/put/get, replay orchestration).
``gcs``
    the logically-centralized control plane: scheduler, failure detector,
    admission gate, retry budgets.  One site — these
    components share state and run interleaved on the head node today
    (ROADMAP item 2 is precisely about splitting this site; the sanitizer
    exists so that split can be checked).
``attempt:<task>#<n>``
    one execution attempt of one task — a fresh site per attempt, since
    attempts of the same task may overlap under speculation.
``push:<oid>`` / ``raylet@<endpoint>``
    data-plane push waves (one site per object) and per-raylet local state
    (fetch-dedup registry, heartbeat sender).
``chaos``
    the external adversary.  Chaos events have no causal ancestry: a
    fault races with everything not ordered after its effects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, NamedTuple, Tuple

__all__ = ["ProtoEvent", "DistTrace", "ACCESS_CLASSES", "CONFLICTS"]

# Access classes for shared control-plane variables:
#   'w'   exclusive write   (create, mark_ready, drops, state flips)
#   'acc' commutative update (add_location: any interleaving converges)
#   'r'   stability-assuming read (fetch path acting on directory state)
ACCESS_CLASSES = ("w", "acc", "r")

# Unordered pairs of access classes that constitute a data race when the
# accesses are causally concurrent.  r-r, r-acc and acc-acc commute.
CONFLICTS = frozenset({("w", "w"), ("w", "acc"), ("w", "r")})


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


class ProtoEvent(NamedTuple):
    """One protocol-level action at one site.

    ``sends``/``recvs`` carry message keys: a recv of key ``k`` joins the
    vector clock of the latest prior send of ``k`` (a recv with no prior
    send contributes no edge — the monitors, not the HB builder, decide
    whether that is a protocol violation).  ``accesses`` lists
    ``(variable, access_class)`` pairs touched by this action.

    A ``NamedTuple`` rather than a dataclass: the online probe constructs
    one per protocol event on the runtime's hot path, and tuple
    construction is measurably cheaper than frozen-dataclass ``__init__``.
    """

    seq: int
    time: float
    site: str
    kind: str
    detail: Tuple[Tuple[str, Any], ...] = ()
    sends: Tuple[str, ...] = ()
    recvs: Tuple[str, ...] = ()
    accesses: Tuple[Tuple[str, str], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.detail:
            if k == key:
                return v
        return default

    def describe(self) -> str:
        parts = [f"#{self.seq} t={self.time:.6f} [{self.site}] {self.kind}"]
        if self.detail:
            parts.append(" ".join(f"{k}={v}" for k, v in self.detail))
        return " ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "time": self.time,
            "site": self.site,
            "kind": self.kind,
            "detail": [[k, _json_safe(v)] for k, v in self.detail],
            "sends": list(self.sends),
            "recvs": list(self.recvs),
            "accesses": [list(a) for a in self.accesses],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProtoEvent":
        return cls(
            seq=int(data["seq"]),
            time=float(data["time"]),
            site=str(data["site"]),
            kind=str(data["kind"]),
            detail=tuple((str(k), v) for k, v in data.get("detail", ())),
            sends=tuple(data.get("sends", ())),
            recvs=tuple(data.get("recvs", ())),
            accesses=tuple(
                (str(var), str(cls_)) for var, cls_ in data.get("accesses", ())
            ),
        )


@dataclass
class DistTrace:
    """An append-only, JSON-round-trippable sequence of protocol events."""

    events: List[ProtoEvent] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def record(
        self,
        time: float,
        site: str,
        kind: str,
        detail: Tuple[Tuple[str, Any], ...] = (),
        sends: Tuple[str, ...] = (),
        recvs: Tuple[str, ...] = (),
        accesses: Tuple[Tuple[str, str], ...] = (),
    ) -> ProtoEvent:
        event = ProtoEvent(
            seq=len(self.events),
            time=time,
            site=site,
            kind=kind,
            detail=detail,
            sends=sends,
            recvs=recvs,
            accesses=accesses,
        )
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ProtoEvent]:
        return iter(self.events)

    def __getitem__(self, index: int) -> ProtoEvent:
        return self.events[index]

    def sites(self) -> List[str]:
        seen: Dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.site, None)
        return list(seen)

    def signature(self) -> List[Tuple[float, str, str, str]]:
        """A comparable fingerprint (time, site, kind, detail-repr)."""
        return [
            (round(e.time, 12), e.site, e.kind, repr(e.detail))
            for e in self.events
        ]

    # ------------------------------------------------------------------
    # JSON round-trip (CI sanitizes dumped benchmark traces offline)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": "repro.dist-trace/v1",
            "meta": {k: _json_safe(v) for k, v in self.meta.items()},
            "events": [e.to_dict() for e in self.events],
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DistTrace":
        if data.get("format") != "repro.dist-trace/v1":
            raise ValueError(
                f"not a dist-trace payload (format={data.get('format')!r})"
            )
        trace = cls(meta=dict(data.get("meta", {})))
        trace.events = [ProtoEvent.from_dict(e) for e in data.get("events", ())]
        return trace

    @classmethod
    def load(cls, path: str) -> "DistTrace":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    @staticmethod
    def is_trace_file(path: str) -> bool:
        """Cheap sniff: does ``path`` look like a dumped dist trace?"""
        try:
            with open(path) as fh:
                head = fh.read(256)
        except OSError:
            return False
        return "repro.dist-trace/v1" in head
