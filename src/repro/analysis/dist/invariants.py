"""Declarative protocol invariant monitors.

Each monitor owns one protocol's correctness story and consumes the
probe's :class:`~repro.analysis.dist.events.ProtoEvent` stream — the same
code path runs *online* (events fed as the runtime emits them, behind
``RuntimeConfig(sanitizers=("invariants",))``) and *offline* (replayed
over a dumped trace in CI).  Monitors are incremental: ``on_event`` does
O(1)-ish bookkeeping, and ``finish`` checks end-of-trace obligations
(e.g. no dedup follower left parked).  Offline sanitization of a trace
cut mid-run passes ``partial=True`` to skip the end-of-trace checks.

The monitors:

============================  =======================================================
SingleOwnerMonitor            at most one live owner record per object id
DirectoryStateMonitor         object-directory transitions follow the legal FSM
LineageAcyclicityMonitor      lineage edges never form a cycle
DeadlineMonotonicityMonitor   effective deadline == min(own, inherited-from-producers)
FetchRegistryMonitor          dedup begin/end pairing; cancelled leaders release followers
TaskLifecycleMonitor          submit once; at most one terminal per incarnation
LeaderPerEpochMonitor         at most one GCS leader installed per fencing epoch
EpochMonotonicityMonitor      leader epochs strictly increase; fencing is consistent
============================  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .events import DistTrace, ProtoEvent

__all__ = [
    "Violation",
    "Monitor",
    "InvariantEngine",
    "default_monitors",
    "SingleOwnerMonitor",
    "DirectoryStateMonitor",
    "LineageAcyclicityMonitor",
    "DeadlineMonotonicityMonitor",
    "FetchRegistryMonitor",
    "TaskLifecycleMonitor",
    "LeaderPerEpochMonitor",
    "EpochMonotonicityMonitor",
]


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant violation, anchored to the event that exposed it."""

    monitor: str
    message: str
    seq: Optional[int] = None
    subject: Optional[str] = None

    def describe(self) -> str:
        where = f" @#{self.seq}" if self.seq is not None else " @end"
        subject = f" [{self.subject}]" if self.subject else ""
        return f"{self.monitor}{where}{subject}: {self.message}"


class Monitor:
    """Base class: subclasses override ``on_event`` and/or ``finish``.

    ``kinds`` declares the event kinds the monitor reacts to so the
    engine can route events instead of broadcasting: the online probe
    sits on the runtime's hot path, and most protocol events interest no
    monitor at all.  An empty ``kinds`` means "subscribe to everything"
    (the safe default for ad-hoc subclasses).
    """

    name = "monitor"
    kinds: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.violations: List[Violation] = []

    def flag(
        self,
        message: str,
        seq: Optional[int] = None,
        subject: Optional[str] = None,
    ) -> None:
        self.violations.append(
            Violation(monitor=self.name, message=message, seq=seq, subject=subject)
        )

    def on_event(self, event: ProtoEvent) -> None:  # pragma: no cover - interface
        pass

    def finish(self, partial: bool = False) -> None:  # pragma: no cover - interface
        pass


class SingleOwnerMonitor(Monitor):
    """Every object id is created at most once per incarnation.

    ``own_replay_reset`` is the sanctioned reincarnation path (lineage
    replay resets the entry in place); a second ``own_create`` for a live
    id means two owners both believe they minted the object.
    """

    name = "single-owner"
    kinds = ("own_create",)

    def __init__(self) -> None:
        super().__init__()
        self._live: Set[str] = set()

    def on_event(self, event: ProtoEvent) -> None:
        if event.kind != "own_create":
            return
        obj = event.get("object")
        if obj in self._live:
            self.flag(f"duplicate owner record created for {obj}", event.seq, obj)
        else:
            self._live.add(obj)


class DirectoryStateMonitor(Monitor):
    """Object-directory transitions must follow the legal state machine.

    Legal ops per (op, old-state), plus two structural obligations that
    hold after *every* op: READY entries have at least one location and
    LOST entries have none.
    """

    name = "directory-state"
    kinds = (
        "own_create",
        "own_mark_ready",
        "own_add_location",
        "own_drop_location",
        "own_drop_node",
        "own_drop_device",
        "own_replay_reset",
        "own_restore",
    )

    # op -> {legal old states}; None stands for "entry absent".
    # ``own_restore`` is the control-plane HA reset: a failover replays a
    # WAL snapshot (or re-registration re-creates an entry), always with
    # old=None, and re-seeds the tracked state to whatever it installs.
    _LEGAL_OLD: Dict[str, Tuple[Optional[str], ...]] = {
        "own_create": (None,),
        "own_mark_ready": ("PENDING", "READY", "LOST"),
        "own_add_location": ("READY", "LOST"),
        "own_drop_location": ("READY", "LOST"),
        "own_drop_node": ("READY", "LOST"),
        "own_drop_device": ("PENDING", "READY", "LOST"),
        "own_replay_reset": ("READY", "LOST"),
        "own_restore": (None,),
    }
    _LEGAL_NEW: Dict[str, Tuple[str, ...]] = {
        "own_create": ("PENDING",),
        "own_mark_ready": ("READY",),
        "own_add_location": ("READY",),
        "own_drop_location": ("READY", "LOST"),
        "own_drop_node": ("READY", "LOST"),
        "own_drop_device": ("PENDING", "READY", "LOST"),
        "own_replay_reset": ("PENDING",),
        "own_restore": ("PENDING", "READY", "LOST"),
    }

    def __init__(self) -> None:
        super().__init__()
        self._state: Dict[str, str] = {}

    def on_event(self, event: ProtoEvent) -> None:
        legal_old = self._LEGAL_OLD.get(event.kind)
        if legal_old is None:
            return
        obj = event.get("object")
        old = event.get("old")
        new = event.get("new")
        locations = event.get("locations")
        tracked = self._state.get(obj)
        if tracked is not None and old is not None and tracked != old:
            self.flag(
                f"{event.kind}: observed old state {old} but tracked {tracked}",
                event.seq,
                obj,
            )
        if old not in legal_old:
            self.flag(f"{event.kind} illegal from state {old}", event.seq, obj)
        if new not in self._LEGAL_NEW[event.kind]:
            self.flag(f"{event.kind} produced illegal state {new}", event.seq, obj)
        if new == "READY" and isinstance(locations, int) and locations < 1:
            self.flag("READY entry with zero locations", event.seq, obj)
        if new == "LOST" and isinstance(locations, int) and locations != 0:
            self.flag(
                f"LOST entry still lists {locations} location(s)", event.seq, obj
            )
        if new is not None:
            self._state[obj] = new


class LineageAcyclicityMonitor(Monitor):
    """The lineage graph (object -> producing dependencies) stays acyclic."""

    name = "lineage-acyclic"
    kinds = ("lineage_record",)

    def __init__(self) -> None:
        super().__init__()
        self._deps: Dict[str, Tuple[str, ...]] = {}

    def on_event(self, event: ProtoEvent) -> None:
        if event.kind != "lineage_record":
            return
        obj = event.get("object")
        deps = tuple(event.get("deps") or ())
        self._deps[obj] = deps
        # DFS from the new node only: a fresh edge is the only way to
        # close a cycle, and it must pass through ``obj``
        stack = list(deps)
        seen: Set[str] = set()
        while stack:
            node = stack.pop()
            if node == obj:
                self.flag(f"lineage cycle through {obj}", event.seq, obj)
                return
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._deps.get(node, ()))


class DeadlineMonotonicityMonitor(Monitor):
    """Effective deadline == min(own, inherited) — never looser than either."""

    name = "deadline-monotonic"
    kinds = ("deadline_inherit",)

    _EPS = 1e-9

    def on_event(self, event: ProtoEvent) -> None:
        if event.kind != "deadline_inherit":
            return
        task = event.get("task")
        own = event.get("own")
        inherited = event.get("inherited")
        effective = event.get("effective")
        if effective is None:
            if own is not None or inherited is not None:
                self.flag("deadline dropped during inheritance", event.seq, task)
            return
        bounds = [b for b in (own, inherited) if b is not None]
        if not bounds:
            self.flag(f"effective deadline {effective} appeared from nowhere",
                      event.seq, task)
            return
        expected = min(bounds)
        if abs(effective - expected) > self._EPS:
            self.flag(
                f"effective {effective} != min(own={own}, inherited={inherited})",
                event.seq,
                task,
            )


class FetchRegistryMonitor(Monitor):
    """Fetch-dedup bookkeeping pairs up and cancelled leaders free followers.

    A leader ``fetch_begin`` must be closed by exactly one matching
    ``fetch_end`` or ``fetch_abort``.  Followers (``fetch_dedup``) may only
    join an active fetch, and each must be released — ``fetch_join`` on
    leader success, or covered by a ``fetch_abort`` — by the time the
    trace drains.
    """

    name = "fetch-registry"
    kinds = ("fetch_begin", "fetch_end", "fetch_abort", "fetch_dedup", "fetch_join")

    def __init__(self) -> None:
        super().__init__()
        self._active: Set[Tuple[str, str]] = set()
        self._followers: Dict[Tuple[str, str], int] = {}
        self._begin_seq: Dict[Tuple[str, str], int] = {}

    @staticmethod
    def _key(event: ProtoEvent) -> Tuple[str, str]:
        return (event.get("object"), event.get("device"))

    def on_event(self, event: ProtoEvent) -> None:
        if event.kind == "fetch_begin":
            key = self._key(event)
            if key in self._active:
                self.flag(
                    f"second leader fetch for {key[0]} at {key[1]}",
                    event.seq,
                    key[0],
                )
            self._active.add(key)
            self._begin_seq[key] = event.seq
        elif event.kind in ("fetch_end", "fetch_abort"):
            key = self._key(event)
            if key not in self._active:
                self.flag(
                    f"{event.kind} without an active fetch for {key[0]} at {key[1]}",
                    event.seq,
                    key[0],
                )
                return
            self._active.discard(key)
            if event.kind == "fetch_abort":
                # the abort path fails every parked follower signal
                self._followers.pop(key, None)
        elif event.kind == "fetch_dedup":
            key = self._key(event)
            if key not in self._active:
                self.flag(
                    f"dedup join with no active fetch for {key[0]} at {key[1]}",
                    event.seq,
                    key[0],
                )
                return
            self._followers[key] = self._followers.get(key, 0) + 1
        elif event.kind == "fetch_join":
            key = self._key(event)
            count = self._followers.get(key, 0)
            if count <= 0:
                self.flag(
                    f"follower resumed with no recorded dedup join for {key[0]}",
                    event.seq,
                    key[0],
                )
                return
            if count == 1:
                self._followers.pop(key, None)
            else:
                self._followers[key] = count - 1

    def finish(self, partial: bool = False) -> None:
        if partial:
            return
        for key in sorted(self._active):
            self.flag(
                f"fetch of {key[0]} at {key[1]} never ended (begin @#"
                f"{self._begin_seq.get(key)})",
                subject=key[0],
            )
        for key, count in sorted(self._followers.items()):
            self.flag(
                f"{count} dedup follower(s) for {key[0]} at {key[1]} "
                "never released",
                subject=key[0],
            )


class TaskLifecycleMonitor(Monitor):
    """Tasks are submitted once and reach at most one terminal state.

    Lineage replay legitimately re-runs a finished task: a ``replay``
    event for the task re-arms its terminal slot.  Speculative clones
    share the task id, so attempts are deliberately not constrained here
    (overlapping attempts are the *point* of speculation); the HB layer
    checks their directory effects instead.
    """

    name = "task-lifecycle"
    kinds = ("submit", "replay", "task_finish", "task_fail", "task_cancel")

    _TERMINALS = ("task_finish", "task_fail", "task_cancel")

    def __init__(self) -> None:
        super().__init__()
        self._submitted: Set[str] = set()
        self._terminal: Dict[str, str] = {}

    def on_event(self, event: ProtoEvent) -> None:
        task = event.get("task")
        if event.kind == "submit":
            if task in self._submitted:
                self.flag(f"task {task} submitted twice", event.seq, task)
            self._submitted.add(task)
        elif event.kind == "replay":
            self._terminal.pop(task, None)
        elif event.kind in self._TERMINALS:
            prior = self._terminal.get(task)
            if prior is not None and not (
                prior == "task_cancel" and event.kind == "task_cancel"
            ):
                self.flag(
                    f"task {task} reached {event.kind} after {prior}",
                    event.seq,
                    task,
                )
            self._terminal[task] = event.kind


class LeaderPerEpochMonitor(Monitor):
    """At most one GCS leader is ever installed per fencing epoch.

    Two ``ha_leader`` events claiming the same epoch would mean two
    elections both believed they won the same term — split brain at the
    control plane, the exact failure fencing epochs exist to prevent.
    """

    name = "leader-per-epoch"
    kinds = ("ha_leader",)

    def __init__(self) -> None:
        super().__init__()
        self._leader_of_epoch: Dict[int, str] = {}

    def on_event(self, event: ProtoEvent) -> None:
        if event.kind != "ha_leader":
            return
        epoch = event.get("epoch")
        node = event.get("node")
        prior = self._leader_of_epoch.get(epoch)
        if prior is not None:
            self.flag(
                f"epoch {epoch} has two leaders: {prior} then {node}",
                event.seq,
                node,
            )
        else:
            self._leader_of_epoch[epoch] = node


class EpochMonotonicityMonitor(Monitor):
    """Fencing epochs only move forward.

    Globally, each installed leader's epoch strictly exceeds the last;
    per raylet, the observed epoch never decreases, and an *accepted*
    lease never carries an epoch below what that raylet had already
    observed (accepting one would un-fence a deposed leader).
    """

    name = "epoch-monotonic"
    kinds = ("ha_leader", "ha_fence")

    def __init__(self) -> None:
        super().__init__()
        self._last_leader_epoch: Optional[int] = None
        self._observed: Dict[str, int] = {}

    def on_event(self, event: ProtoEvent) -> None:
        if event.kind == "ha_leader":
            epoch = event.get("epoch")
            last = self._last_leader_epoch
            if last is not None and epoch <= last:
                self.flag(
                    f"leader installed for epoch {epoch} after epoch {last}",
                    event.seq,
                    event.get("node"),
                )
            self._last_leader_epoch = epoch
        elif event.kind == "ha_fence":
            endpoint = event.get("endpoint")
            lease = event.get("lease_epoch")
            raylet = event.get("raylet_epoch")
            seen = self._observed.get(endpoint)
            if seen is not None and raylet < seen:
                self.flag(
                    f"raylet {endpoint} epoch went backwards: {seen} -> {raylet}",
                    event.seq,
                    endpoint,
                )
            if event.get("accepted") and lease < raylet:
                self.flag(
                    f"raylet {endpoint} accepted stale lease epoch {lease} "
                    f"while at {raylet}",
                    event.seq,
                    endpoint,
                )
            observed = max(raylet, lease) if event.get("accepted") else raylet
            self._observed[endpoint] = max(seen or 0, observed)


def default_monitors() -> List[Monitor]:
    return [
        SingleOwnerMonitor(),
        DirectoryStateMonitor(),
        LineageAcyclicityMonitor(),
        DeadlineMonotonicityMonitor(),
        FetchRegistryMonitor(),
        TaskLifecycleMonitor(),
        LeaderPerEpochMonitor(),
        EpochMonotonicityMonitor(),
    ]


@dataclass
class InvariantEngine:
    """Feeds events through a monitor set, online or over a stored trace."""

    monitors: List[Monitor] = field(default_factory=default_monitors)
    _finished: bool = False
    _routes: Dict[str, Tuple[Monitor, ...]] = field(
        default_factory=dict, repr=False
    )

    def route(self, kind: str) -> Tuple[Monitor, ...]:
        """The monitors subscribed to ``kind``, in registration order.

        Cached per kind so the online hot path pays one dict lookup for
        the (common) events no monitor cares about.
        """
        cached = self._routes.get(kind)
        if cached is None:
            cached = tuple(
                m for m in self.monitors if not m.kinds or kind in m.kinds
            )
            self._routes[kind] = cached
        return cached

    def on_event(self, event: ProtoEvent) -> None:
        for monitor in self.route(event.kind):
            monitor.on_event(event)

    def finish(self, partial: bool = False) -> None:
        if self._finished:
            return
        self._finished = True
        for monitor in self.monitors:
            monitor.finish(partial=partial)

    def violations(self) -> List[Violation]:
        out: List[Violation] = []
        for monitor in self.monitors:
            out.extend(monitor.violations)
        out.sort(key=lambda v: (v.seq is None, v.seq if v.seq is not None else 0))
        return out

    @classmethod
    def run(cls, trace: DistTrace, partial: bool = False) -> "InvariantEngine":
        engine = cls()
        for event in trace:
            engine.on_event(event)
        engine.finish(partial=partial)
        return engine
