"""Happens-before inference and race detection over a protocol trace.

The builder makes one pass over the trace in global sequence order,
maintaining a vector clock per *site* (driver, gcs, each attempt, each
push process, each raylet, chaos).  Program order advances a site's own
component; a ``recv`` of message key ``k`` joins the clock of the latest
prior ``send`` of ``k``.  The causal edges the runtime emits are exactly
the protocol's real synchronization points — task submit→dispatch→attempt
→commit→finish, dependency-ready fan-out, failure reports, heartbeat
rounds, fetch-dedup join, lineage replay — so two events with
incomparable clocks genuinely could have executed in either order.

Race detection then runs the classic vector-clock algorithm per shared
variable (``dir:<oid>`` directory entries): conflicting access classes (see ``events.CONFLICTS``) on
causally-concurrent events are flagged.  Access history per variable is
pruned FastTrack-style: an older access is dropped once a newer access
happens-after it and subsumes it for future conflict checks (same class,
or the newer one is a write — a write conflicts with everything a
previous access would have).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .events import CONFLICTS, DistTrace, ProtoEvent

__all__ = ["Race", "Access", "HBResult", "build_hb", "vc_leq", "site_class"]

VectorClock = Dict[str, int]


def vc_leq(a: VectorClock, b: VectorClock) -> bool:
    """True iff clock ``a`` happens-before-or-equals clock ``b``."""
    return all(v <= b.get(site, 0) for site, v in a.items())


def site_class(site: str) -> str:
    """Collapse a concrete site to its role, for race deduplication."""
    return site.split(":", 1)[0].split("@", 1)[0]


@dataclass(frozen=True, slots=True)
class Access:
    """One recorded access to a shared variable."""

    seq: int
    site: str
    kind: str
    cls: str
    vc: Tuple[Tuple[str, int], ...]

    def clock(self) -> VectorClock:
        return dict(self.vc)


@dataclass(frozen=True, slots=True)
class Race:
    """Two conflicting, causally-unordered accesses to one variable."""

    var: str
    first: Access
    second: Access

    def key(self) -> Tuple[str, str, str, str, str]:
        """Dedup key: variable family + operation pair + site-role pair."""
        family = self.var.split(":", 1)[0]
        return (
            family,
            self.first.kind,
            self.second.kind,
            site_class(self.first.site),
            site_class(self.second.site),
        )

    def describe(self) -> str:
        return (
            f"race on {self.var}: "
            f"{self.first.kind}({self.first.cls}) at {self.first.site} #{self.first.seq}"
            f" || "
            f"{self.second.kind}({self.second.cls}) at {self.second.site} #{self.second.seq}"
        )


@dataclass
class HBResult:
    """Vector clocks for every event plus the detected races."""

    clocks: List[VectorClock] = field(default_factory=list)
    races: List[Race] = field(default_factory=list)
    dangling_recvs: List[Tuple[int, str]] = field(default_factory=list)

    def concurrent(self, a: int, b: int) -> bool:
        """True iff events ``a`` and ``b`` (by seq) are causally unordered."""
        ca, cb = self.clocks[a], self.clocks[b]
        return not vc_leq(ca, cb) and not vc_leq(cb, ca)

    def ordered(self, a: int, b: int) -> bool:
        return vc_leq(self.clocks[a], self.clocks[b])

    def deduped_races(self) -> List[Race]:
        """One representative per (variable family, op pair, site-role pair)."""
        seen: Dict[Tuple[str, str, str, str, str], Race] = {}
        for race in self.races:
            seen.setdefault(race.key(), race)
        return list(seen.values())


def build_hb(trace: DistTrace, max_races: int = 1000) -> HBResult:
    """One-pass HB construction + per-variable race detection."""
    result = HBResult()
    site_clocks: Dict[str, VectorClock] = {}
    # latest send clock per message key
    send_clocks: Dict[str, VectorClock] = {}
    # per-variable access history, pruned as accesses are subsumed
    history: Dict[str, List[Access]] = {}

    for event in trace:
        clock = site_clocks.setdefault(event.site, {})
        for key in event.recvs:
            sent = send_clocks.get(key)
            if sent is None:
                result.dangling_recvs.append((event.seq, key))
                continue
            for site, tick in sent.items():
                if tick > clock.get(site, 0):
                    clock[site] = tick
        clock[event.site] = clock.get(event.site, 0) + 1
        snapshot = dict(clock)
        result.clocks.append(snapshot)
        for key in event.sends:
            send_clocks[key] = snapshot

        for var, cls in event.accesses:
            _check_var(result, history, var, event, cls, snapshot, max_races)

    return result


def _check_var(
    result: HBResult,
    history: Dict[str, List[Access]],
    var: str,
    event: ProtoEvent,
    cls: str,
    clock: VectorClock,
    max_races: int,
) -> None:
    past = history.setdefault(var, [])
    new = Access(
        seq=event.seq,
        site=event.site,
        kind=event.kind,
        cls=cls,
        vc=tuple(sorted(clock.items())),
    )
    survivors: List[Access] = []
    for old in past:
        old_clock = old.clock()
        if vc_leq(old_clock, clock):
            # happens-before: no race; drop the old access if the new one
            # subsumes it for every future conflict check
            if old.cls == cls or cls == "w":
                continue
            survivors.append(old)
            continue
        pair = (old.cls, cls) if (old.cls, cls) in CONFLICTS else (cls, old.cls)
        if pair in CONFLICTS and len(result.races) < max_races:
            result.races.append(Race(var=var, first=old, second=new))
        survivors.append(old)
    survivors.append(new)
    history[var] = survivors
