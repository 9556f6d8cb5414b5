"""Head-node load balancing for serving sessions.

The serving tier terminates client sessions on *head nodes* (the server
nodes that host the GCS in this model).  One head is a single point of
congestion and a single point of failure, so the balancer:

* spreads new sessions across heads, least-loaded first, using a sliding
  window :class:`MessageRateTracker` per head;
* watches for *sustained* skew — one head running hotter than the coldest
  by more than ``SKEW_THRESHOLD`` for ``SKEW_PATIENCE`` consecutive
  observations — and migrates one session at a time from the hottest to
  the coldest head (one at a time, because a bulk migration would just
  trade which head is hot);
* fails over: when chaos kills a head (its raylets die), every session
  homed there is reassigned on its next message, exactly like a client
  noticing its connection broke and re-resolving.

Every decision lands in the runtime's event log (``serving_*`` kinds) and
the per-head rates are exported as ``skadi_serving_head_rate`` gauges, so
chaos runs show a head crash next to the failover storm it causes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, TYPE_CHECKING

from ..cluster.node import NodeKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.runtime import ServerlessRuntime

__all__ = ["MessageRateTracker", "HeadNodeBalancer"]

# rebalance a session off a head running hotter than the coldest by this
# factor for this many consecutive observations
SKEW_THRESHOLD = 2.0
SKEW_PATIENCE = 3


class MessageRateTracker:
    """Messages per second over a sliding window of virtual time."""

    def __init__(self, window: float = 0.05):
        if window <= 0.0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._times: Deque[float] = deque()

    def note(self, now: float) -> None:
        self._times.append(now)
        self._prune(now)

    def rate(self, now: float) -> float:
        self._prune(now)
        return len(self._times) / self.window

    def _prune(self, now: float) -> None:
        cutoff = now - self.window
        times = self._times
        while times and times[0] <= cutoff:
            times.popleft()


class HeadNodeBalancer:
    """Assigns serving sessions to head nodes and keeps the load even."""

    def __init__(
        self,
        runtime: "ServerlessRuntime",
        heads: Optional[Sequence[str]] = None,
        *,
        window: float = 0.05,
    ):
        self.runtime = runtime
        if heads is None:
            heads = [n.node_id for n in runtime.cluster.nodes_of_kind(NodeKind.SERVER)]
        if not heads:
            raise ValueError("balancer needs at least one head node")
        self.heads: List[str] = sorted(heads)
        self.trackers: Dict[str, MessageRateTracker] = {
            head: MessageRateTracker(window) for head in self.heads
        }
        self.sessions: Dict[str, str] = {}  # session id -> head node id
        self.rebalances = 0
        self.failovers = 0
        self._skew_streak = 0

    # -- liveness -------------------------------------------------------------

    def head_alive(self, head: str) -> bool:
        """A head serves sessions while any of its raylets is up.  This is
        the session's own view — a client notices its connection died the
        moment the head does, no failure detector required."""
        raylets = self.runtime._raylets_by_node.get(head, [])
        return any(r.alive for r in raylets)

    def live_heads(self) -> List[str]:
        return [h for h in self.heads if self.head_alive(h)]

    # -- assignment -----------------------------------------------------------

    def assign(self, session_id: str) -> str:
        """Home a new session on the coldest live head (deterministic
        tie-break by node id)."""
        existing = self.sessions.get(session_id)
        if existing is not None:
            return self.head_of(session_id)
        head = self._coldest(self.live_heads())
        self.sessions[session_id] = head
        self.runtime._record("serving_session_assigned", session=session_id, head=head)
        return head

    def head_of(self, session_id: str) -> str:
        """The session's current home, failing over if its head died."""
        head = self.sessions.get(session_id)
        if head is None:
            return self.assign(session_id)
        if not self.head_alive(head):
            live = self.live_heads()
            if not live:
                raise RuntimeError("every head node is dead; serving tier is down")
            new_head = self._coldest(live)
            self.sessions[session_id] = new_head
            self.failovers += 1
            self.runtime.telemetry.registry.counter(
                "skadi_serving_failovers_total",
                "sessions reassigned off a dead head node",
            ).inc()
            self.runtime._record(
                "serving_session_failover",
                session=session_id,
                dead_head=head,
                head=new_head,
            )
            return new_head
        return head

    def note_message(self, session_id: str) -> str:
        """Account one session message against its head; returns the head
        that served it (after any failover) and checks for sustained skew."""
        now = self.runtime.sim.now
        head = self.head_of(session_id)
        tracker = self.trackers[head]
        tracker.note(now)
        self.runtime.telemetry.registry.gauge(
            "skadi_serving_head_rate",
            "per-head serving message rate (sliding window, msgs/s)",
            head=head,
        ).set(tracker.rate(now))
        self._check_skew(now)
        return head

    # -- rebalancing ----------------------------------------------------------

    def _coldest(self, heads: Sequence[str]) -> str:
        """Lowest message rate, then fewest homed sessions (so a burst of
        assignments before any traffic still round-robins), then node id."""
        now = self.runtime.sim.now
        homed: Dict[str, int] = {}
        for head in self.sessions.values():
            homed[head] = homed.get(head, 0) + 1
        return min(
            heads, key=lambda h: (self.trackers[h].rate(now), homed.get(h, 0), h)
        )

    def _check_skew(self, now: float) -> None:
        live = self.live_heads()
        if len(live) < 2:
            self._skew_streak = 0
            return
        rates = {h: self.trackers[h].rate(now) for h in live}
        hot = max(live, key=lambda h: (rates[h], h))
        cold = min(live, key=lambda h: (rates[h], h))
        if rates[hot] > SKEW_THRESHOLD * max(rates[cold], 1e-9):
            self._skew_streak += 1
        else:
            self._skew_streak = 0
            return
        if self._skew_streak < SKEW_PATIENCE:
            return
        self._skew_streak = 0
        victims = sorted(s for s, h in self.sessions.items() if h == hot)
        if not victims:
            return
        session = victims[0]
        self.sessions[session] = cold
        self.rebalances += 1
        self.runtime.telemetry.registry.counter(
            "skadi_serving_rebalances_total",
            "sessions migrated off a sustained-hot head node",
        ).inc()
        self.runtime._record(
            "serving_rebalanced", session=session, hot_head=hot, cold_head=cold
        )
