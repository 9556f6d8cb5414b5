"""The runtime's failure/recovery event log, and what is derived from it.

Every control-plane incident — a node death, a heartbeat suspicion, a
lineage replay, a retry, an actor restart, a chaos injection — is recorded
as a :class:`RuntimeEvent`, and recording it is all an incident site does.
Subscribers derive the rest: the metrics plane counts each record
(:func:`incident_counter`), the dist-sanitizer probe mirrors the ones that
stand for a protocol event (``DistProbe.incident``), and the Chrome trace
exporter marks recovery storms as instants (:func:`instant_category`).
:data:`INCIDENTS` says what each kind feeds.  Chaos tests assert that a
seeded fault schedule reproduces the *identical* log (the determinism
contract).

The protocol events the log does not state go to the runtime's probe, whose
off state is :class:`NoProbe`: every hook the runtime calls, doing nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple,
)

__all__ = [
    "RuntimeEvent", "EventLog", "Series", "Incident", "INCIDENTS",
    "instant_category", "incident_counter", "declare_series", "NoProbe",
]


@dataclass(frozen=True, slots=True)
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
    """An append-only event list with per-kind counts."""

    def __init__(self) -> None:
        self.events: List[RuntimeEvent] = []
        self._counts: Dict[str, int] = {}
        # poked, in registration order, on every record
        self._observers: List[Callable[[RuntimeEvent], None]] = []

    def add_observer(self, observer: Callable[[RuntimeEvent], None]) -> None:
        self._observers.append(observer)

    def record(self, time: float, kind: str, **detail: Any) -> RuntimeEvent:
        ev = RuntimeEvent(time, kind, tuple(sorted(detail.items())))
        self.events.append(ev)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        for observer in self._observers:
            observer(ev)
        return ev

    def of_kind(self, kind: str) -> List[RuntimeEvent]:
        return [e for e in self.events if e.kind == kind]

    def count(self, kind: str) -> int:
        return self._counts.get(kind, 0)

    def counts(self) -> Dict[str, int]:
        """Occurrences per kind, sorted by kind (comparable to telemetry)."""
        return dict(sorted(self._counts.items()))

    def signature(self) -> List[Tuple[float, str, Tuple[Tuple[str, Any], ...]]]:
        """A comparable fingerprint: two seeded runs must produce equal
        signatures (the chaos determinism contract)."""
        return [(round(e.time, 12), e.kind, e.detail) for e in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[RuntimeEvent]:
        return iter(self.events)


# -- what each incident kind feeds ---------------------------------------------


class Series(NamedTuple):
    """A Prometheus counter of one incident kind: ``labels`` are detail keys
    (a label wherever the record has the key), ``amount`` the detail keys of
    the increment (the first present; else 1)."""

    name: str
    help: str
    labels: Tuple[str, ...] = ()
    amount: Tuple[str, ...] = ()


class Incident(NamedTuple):
    """What one kind feeds: the category of its Chrome-trace instant (None:
    no instant) and the series that count it."""

    chrome: Optional[str] = None
    series: Tuple[Series, ...] = ()


def _counted(chrome: Optional[str], name: str, help: str, **keys: Any) -> Incident:
    return Incident(chrome, (Series(name, help, **keys),))


_FAILURE, _RECOVERY = Incident("failure"), Incident("recovery")

# skadi_device_failures_total{kind} and skadi_shed_tasks_total{reason} stay at
# their sites: no record carries the device kind or the shed reason
INCIDENTS: Dict[str, Incident] = {
    "task_failed": _counted("failure", "skadi_tasks_failed_total", "tasks that permanently failed"),
    "task_cancelled": _counted(
        None, "skadi_tasks_cancelled_total", "tasks cancelled before completion, by reason",
        labels=("reason", "tenant"),
    ),
    "task_retry": _counted(
        "recovery", "skadi_tasks_retried_total", "transient-failure retries consumed"
    ),
    "speculate": _counted(
        "recovery", "skadi_speculations_total", "speculative backup copies launched"
    ),
    "lineage_replay": _counted(
        "recovery", "skadi_lineage_replays_total", "tasks re-executed to rebuild lost objects",
        amount=("tasks",),
    ),
    "object_recovered": Incident(series=(
        Series(
            "skadi_recovered_objects_total", "objects recovered after a failure, by mechanism",
            labels=("source",),
        ),
        Series(
            "skadi_recovered_bytes_total",
            "bytes recovered after a failure, by mechanism "
            "(lineage counts recomputed bytes, caches count re-fetched bytes)",
            labels=("source",), amount=("recomputed_bytes", "nbytes"),
        ),
    )),
    "actor_restart": _counted(
        "recovery", "skadi_actor_restarts_total", "actors reconstructed from checkpoints"
    ),
    "blade_dead": _counted(
        "failure", "skadi_blade_failures_total", "memory-blade deaths the control plane acted on"
    ),
    "raylet_takeover": _counted(
        "recovery", "skadi_raylet_takeovers_total",
        "orphaned-device adoptions by a surviving raylet",
    ),
    **dict.fromkeys(
        ("task_timeout", "actor_dead", "node_dead", "node_suspected", "detector_stalled",
         "device_dead", "gcs_lost"),
        _FAILURE,
    ),
    **dict.fromkeys(("node_alive", "node_unsuspected"), _RECOVERY),
    "admission_rejected": _counted(
        None, "skadi_admission_rejected_total",
        "submissions refused by the bounded admission queue", labels=("tenant",),
    ),
    "retry_budget_exhausted": _counted(
        None, "skadi_retry_budget_exhausted_total",
        "retries refused because the node's budget ran dry", labels=("node",),
    ),
    "ha_election_started": _counted(None, "skadi_ha_elections_total", "leader elections started"),
    "ha_failover_complete": _counted(None, "skadi_ha_failovers_total", "failovers completed"),
    "ha_stale_lease_rejected": _counted(
        None, "skadi_ha_stale_leases_rejected_total", "deposed-leader leases fenced at raylets"
    ),
}

_NOTHING = Incident()


def instant_category(kind: str) -> Optional[str]:
    """The Chrome-trace category that marks ``kind`` (every chaos injection
    is marked), or None for no mark."""
    if kind.startswith("chaos_"):
        return "chaos"
    return INCIDENTS.get(kind, _NOTHING).chrome


def incident_counter(registry: Any) -> Callable[[RuntimeEvent], None]:
    """The metrics plane's one subscriber to an event log: it counts every
    record in ``skadi_incidents_total`` by kind, then in every series
    :data:`INCIDENTS` names for the kind."""
    totals: Dict[str, Any] = {}  # kind -> its skadi_incidents_total counter, bound once

    def count(ev: RuntimeEvent) -> None:
        total = totals.get(ev.kind)
        if total is None:
            total = totals[ev.kind] = registry.counter(
                "skadi_incidents_total", "control-plane incidents by event-log kind",
                kind=ev.kind,
            )
        total.inc()
        series = INCIDENTS.get(ev.kind, _NOTHING).series
        if not series:
            return
        detail = ev.as_dict()
        for s in series:
            labels = {key: detail[key] for key in s.labels if key in detail}
            amount = next((detail[key] for key in s.amount if key in detail), 1)
            registry.counter(s.name, s.help, **labels).inc(amount)

    return count


def declare_series(registry: Any, kinds: Iterable[str]) -> None:
    """Make the unlabelled series of ``kinds`` read 0 before their first incident."""
    for kind in kinds:
        for s in INCIDENTS[kind].series:
            registry.counter(s.name, s.help)


# -- the sanitizer's off state -------------------------------------------------


class NoProbe:
    """The probe of a runtime with no sanitizer: each hook the runtime calls,
    doing nothing, so a hook site is a plain call.  ``ServerlessRuntime.probe``
    is one, and every raylet is built with it; a ``DistProbe``
    (``repro.analysis.dist``), which defines the same hooks and says what each
    one takes, takes its place when ``RuntimeConfig.sanitizers`` is non-empty."""

    def attempt_site(self, task_id: str, attempt: int, clone: bool = False) -> str:
        return ""

    def _nothing(self, *args: Any, **kwargs: Any) -> None:
        """A hook with no sink."""

    submit = dispatch = attempt_start = attempt_commit = attempt_fail = retry = _nothing
    object_ready = task_finish = task_fail = get_resolve = replay = dir_read = _nothing
    fetch_begin = fetch_end = fetch_abort = fetch_dedup = fetch_join = _nothing
    push_start = land = arrived = hb_send = hb_recv = ha_fence = _nothing
