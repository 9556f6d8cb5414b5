"""Message and bulk-data transfer over the topology, as max-min-fair flows.

Each bulk transfer is one *flow* over its route, and each multicast one flow
over its spanning tree's edges.  Links are half-duplex (both directions share
one capacity, ``bandwidth / degradation``) and keyed by their canonical
endpoint pair.  The table of flows on the fabric changes only when a flow
starts, drains, or a link's degradation changes, so a transfer costs a few
events however many bytes and hops it spans.

* **A flow alone on its links replays the chunk pipeline exactly.**  The
  payload is cut into chunks (:meth:`Network._chunk_sizes`) pipelined across
  hops (cut-through forwarding): while chunk *c* serializes on hop *h*,
  chunk *c+1* serializes on hop *h-1*, so an H-hop route costs roughly one
  full serialization plus (H-1) chunk-times instead of H full
  serializations; a payload no larger than :attr:`Network.chunk_bytes` is
  one chunk, which each hop stores and forwards whole.  The flow runs that
  recurrence's float arithmetic when it starts and enqueues its landing at
  that absolute time, so it lands exactly when a hop-by-hop chunk forwarder
  would have delivered its last chunk.
* **Flows that share a link share it byte-fairly.**  Rates are max-min fair
  (progressive filling over link capacities), recomputed when the table
  changes, the changes queued at one instant coalesced into one reshape,
  with one timer armed for the earliest drain.
  A flow that drained at its rate then pays the pipeline fill and
  propagation tail of its idle replay (idle finish minus idle drain).
  A reshape gathers each draining link once and takes a step's share off
  it once per frozen flow, in a row: a per-flow, per-link loop's floats.

Small control messages use a fixed frame size so that the control plane's
hop count — the quantity Gen-2 reduces — shows up directly in virtual time.
A frame is priced at send (its hop times at the degradation then, added hop
by hop) and is one calendar entry, which books every hop as it lands; a
dropped frame fires ``False`` after its first hop, a zero-hop one now.

The network also keeps a *contention ledger* per link: bytes admitted at
submit that have not started yet, plus the unsent bytes of the flows on the
link.  :meth:`transfer_time_estimate` folds that ledger plus chaos
degradation into the placement cost model, steering the locality scheduler
off hot and degraded links.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from functools import reduce
from operator import add
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .simtime import Awaitable, Simulator, Step
from .topology import Topology

__all__ = [
    "Network",
    "NetworkStats",
    "CONTROL_MSG_BYTES",
    "DEFAULT_CHUNK_BYTES",
    "MAX_CHUNKS_PER_TRANSFER",
]

CONTROL_MSG_BYTES = 256

# Bulk transfers are cut into chunks of this size for pipelining.  The chunk
# count per transfer is capped so one enormous object (a blade spill) cannot
# explode the event queue; the cap still captures nearly all of the
# pipelining win (the per-hop penalty shrinks to 1/MAX_CHUNKS of the
# serialization time).
DEFAULT_CHUNK_BYTES = 256 * 1024
MAX_CHUNKS_PER_TRANSFER = 32


@dataclass
class NetworkStats:
    """Aggregate counters, inspected by the locality experiments.

    *Attempted* counters tick when a transfer/message is submitted;
    *delivered* counters (``transfers``, ``messages_delivered``,
    ``bytes_moved``, ``bytes_by_link``) tick only for traffic that chaos
    let through, so partitions and message loss never inflate the
    byte-movement accounting.
    """

    transfers: int = 0  # delivered bulk transfers
    messages: int = 0  # attempted control messages (delivered + dropped)
    messages_delivered: int = 0
    attempted_transfers: int = 0
    attempted_bytes: int = 0
    bytes_moved: int = 0  # delivered payload bytes
    dropped_messages: int = 0
    blocked_transfers: int = 0
    multicasts: int = 0
    multicast_bytes_saved: int = 0  # vs. one unicast per consumer
    bytes_by_link: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def record_link(self, key: Tuple[str, str], nbytes: int) -> None:
        self.bytes_by_link[key] = self.bytes_by_link.get(key, 0) + nbytes


class _Unmetered:
    """Stands in for each link instrument while no registry is wired."""

    def inc(self, amount: float = 1.0) -> None:
        pass


_UNMETERED = _Unmetered()


class _LinkMeters(NamedTuple):
    """One link's instruments, bound once (see :meth:`Network._meters`)."""

    bytes: Any  # skadi_link_bytes_total
    busy: Any  # skadi_link_busy_seconds_total
    transfers: Any  # skadi_link_transfers_total
    messages: Any  # skadi_link_messages_total


_UNMETERED_LINK = _LinkMeters(_UNMETERED, _UNMETERED, _UNMETERED, _UNMETERED)

_LINK_SERIES = (
    ("skadi_link_bytes_total", "payload bytes routed over each fabric link"),
    (
        "skadi_link_busy_seconds_total",
        "virtual seconds each link spends serializing bytes, booked when a flow starts",
    ),
    ("skadi_link_transfers_total", "bulk transfers carried per fabric link"),
    ("skadi_link_messages_total", "control messages carried per fabric link"),
)


def _pipeline(
    ready: Sequence[float], chunks: Sequence[int], factor: float, bandwidth: float,
    latency: float, free: float = -math.inf,
) -> List[float]:
    """One hop of the chunk pipeline: when each chunk is across, given when
    each is ready to leave.  A chunk serializes once it is ready and the one
    before it is out (or the link is ``free``), then propagates."""
    out = []
    for at, clen in zip(ready, chunks):
        free = (at if at > free else free) + factor * clen / bandwidth
        out.append(free + latency)
    return out


class Network:
    """Executes transfers and multicasts as flows, a control frame as one entry.

    Fault-injection hooks (driven by :mod:`repro.chaos`):

    * **Partitions** — a set of node-id groups; traffic crossing a group
      boundary is dropped (messages complete with value ``False``,
      transfers with value ``None``).  Endpoints map to nodes by their
      ``node_id/...`` prefix; endpoints outside every named group (e.g.
      the ToR switch) form an implicit extra group.
    * **Message loss** — a seeded Bernoulli drop applied to control
      messages only; bulk transfers ride a retransmitting transport and
      instead see partitions/degradation.
    * **Degradation** — per-link slowdown factors multiply serialization
      and propagation time.  Set them through :meth:`degrade_link` /
      :meth:`restore_link`, so the flows on the link re-rate.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        max_chunks: int = MAX_CHUNKS_PER_TRANSFER,
    ):
        if chunk_bytes < 1:
            raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
        if max_chunks < 1:
            raise ValueError(f"max_chunks must be >= 1, got {max_chunks}")
        self.sim = sim
        self.topology = topology
        self.stats = NetworkStats()
        self.chunk_bytes = chunk_bytes
        self.max_chunks = max_chunks
        # directional (a, b) -> canonical key, cached because the sort +
        # tuple build showed up hot in transfer-heavy runs
        self._key_of_pair: Dict[Tuple[str, str], Tuple[str, str]] = {}
        # canonical link key -> its instruments, bound once per registry
        self._link_meters: Dict[Tuple[str, str], _LinkMeters] = {}
        self.metrics = None
        # the flow table: the flows on each link (either one idle replay, see
        # _Flow, or only flows draining at a fair rate), and the latter
        self._on_link: Dict[Tuple[str, str], Dict[_Flow, None]] = {}
        self._fluid: Dict[_Flow, None] = {}
        self._reshape_pending = False
        self._timer: Any = None  # call_at handle of the earliest-drain timer
        self._timer_at = math.inf
        # contention ledger: bytes admitted at submit whose flow has not started
        self._admitted: Dict[Tuple[str, str], int] = {}
        self._partition_groups: Tuple[frozenset, ...] = ()
        self._loss_rate = 0.0
        self._loss_rng = random.Random(0)

    # -- telemetry -----------------------------------------------------------

    @property
    def metrics(self) -> Optional[Any]:
        """The telemetry MetricsRegistry (duck-typed: this layer sits below
        repro.telemetry).  The runtime wires it in so per-link bytes,
        messages and busy time land in the cluster-wide metrics plane;
        wiring another registry re-binds every link's instruments to it."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry: Optional[Any]) -> None:
        self._metrics = registry
        self._link_meters.clear()
        if registry is None:
            self._link_series: Tuple[Any, ...] = ()
            self._dropped = self._multicast_saved = None
            return
        self._link_series = tuple(
            registry.series("counter", name, help, "link") for name, help in _LINK_SERIES
        )
        self._dropped = registry.series(
            "counter",
            "skadi_net_dropped_total",
            "messages/transfers chaos refused to deliver",
            "kind",
        )
        self._multicast_saved = registry.series(
            "counter",
            "skadi_multicast_bytes_saved_total",
            "bytes multicast trees avoided serializing vs. per-consumer unicasts",
        ).of()

    @staticmethod
    def link_label(key: Tuple[str, str]) -> str:
        """Canonical metrics label for the undirected link ``key`` (a
        canonical pair, as :meth:`_link_key` returns)."""
        return f"{key[0]}<->{key[1]}"

    def _meters(self, key: Tuple[str, str]) -> _LinkMeters:
        """The instruments of canonical link ``key``, bound on first use."""
        meters = self._link_meters.get(key)
        if meters is None:
            if not self._link_series:
                return _UNMETERED_LINK
            label = self.link_label(key)
            meters = _LinkMeters(*(series.of(label) for series in self._link_series))
            self._link_meters[key] = meters
        return meters

    def _meter_drop(self, kind: str) -> None:
        if self._dropped is not None:
            self._dropped.of(kind).inc()

    # -- fault injection hooks ----------------------------------------------

    def partition(self, *groups: Iterable[str]) -> None:
        """Split the cluster: traffic between different groups is dropped.

        ``groups`` are sets of *node ids*.  Nodes not named in any group
        form one implicit remainder group, so ``partition({"server1"})``
        isolates server1 from everything else.
        """
        self._partition_groups = tuple(frozenset(g) for g in groups)

    def heal_partition(self) -> None:
        self._partition_groups = ()

    @property
    def partitioned(self) -> bool:
        return bool(self._partition_groups)

    def set_message_loss(self, rate: float, seed: int = 0) -> None:
        """Drop control messages with probability ``rate`` (seeded, so a
        given chaos schedule reproduces the identical drop pattern)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self._loss_rate = rate
        self._loss_rng = random.Random(seed)

    def _endpoint_group(self, endpoint: str) -> int:
        node = endpoint.split("/", 1)[0]
        for i, group in enumerate(self._partition_groups):
            if node in group:
                return i
        return -1  # the implicit remainder group

    def crosses_partition(self, src: str, dst: str) -> bool:
        if not self._partition_groups or src == dst:
            return False
        return self._endpoint_group(src) != self._endpoint_group(dst)

    def degrade_link(self, a: str, b: str, factor: float) -> None:
        """Slow the ``a<->b`` link by ``factor`` (see
        :meth:`Topology.degrade_link`); the flows on it re-rate now."""
        self.topology.degrade_link(a, b, factor)
        self._rerate(self._link_key(a, b))

    def restore_link(self, a: str, b: str) -> None:
        self.topology.restore_link(a, b)
        self._rerate(self._link_key(a, b))

    def _link_key(self, a: str, b: str) -> Tuple[str, str]:
        key = self._key_of_pair.get((a, b))
        if key is None:
            key = (a, b) if a <= b else (b, a)
            self._key_of_pair[(a, b)] = key
        return key

    # -- contention ledger ---------------------------------------------------

    def _admit(self, hops: Sequence[Tuple[str, str]], nbytes: int) -> None:
        admitted = self._admitted
        for a, b in hops:
            key = self._link_key(a, b)
            admitted[key] = admitted.get(key, 0) + nbytes

    def _unadmit(self, hops: Sequence[Tuple[str, str]], nbytes: int) -> None:
        admitted = self._admitted
        for a, b in hops:
            key = self._link_key(a, b)
            left = admitted.get(key, 0) - nbytes
            if left > 0:
                admitted[key] = left
            else:
                admitted.pop(key, None)

    def queued_bytes(self, a: str, b: str) -> float:
        """Bytes admitted for the ``a<->b`` link but not yet across it: those
        of transfers not started yet, plus the unsent rest of its flows."""
        key = self._link_key(a, b)
        queued = self._admitted.get(key, 0)
        flows = self._on_link.get(key)
        if flows:
            now = self.sim.now
            for f in flows:
                left = f.rem - f.rate * (now - f.settled)
                if left > 0.0:
                    queued += left
        return queued

    def link_wait_estimate(self, a: str, b: str) -> float:
        """How long a new arrival would wait for the ``a<->b`` link: its
        backlog's serialization time, degradation included."""
        factor = self.topology.degradation(a, b)
        return factor * self.queued_bytes(a, b) / self.topology.link(a, b).bandwidth

    @property
    def flows(self) -> List["_Flow"]:
        """The flows in the table, each once (empty at quiescence)."""
        return list(dict.fromkeys(f for flows in self._on_link.values() for f in flows))

    # -- chunking ------------------------------------------------------------

    def _chunk_sizes(self, nbytes: int) -> List[int]:
        """Split ``nbytes`` into pipeline chunks summing exactly to
        ``nbytes``.  A payload of at most ``chunk_bytes`` is one chunk."""
        if nbytes <= self.chunk_bytes:
            return [nbytes]
        n = min(self.max_chunks, -(-nbytes // self.chunk_bytes))
        base, rem = divmod(nbytes, n)
        return [base + 1] * rem + [base] * (n - rem)

    # -- the flow table ------------------------------------------------------

    def _open(self, flow: "_Flow", edges: Sequence[Tuple[str, str]], dsts: Sequence[str]) -> None:
        """Put ``flow`` on ``edges`` (a route, or a tree whose every edge
        leaves the source or an earlier edge's far end), landing once its
        last chunk reaches every endpoint in ``dsts``.

        Each endpoint is entered once, so its chunk arrivals are fixed
        before an edge leaves it: the edges that leave one endpoint over
        equal links (a tree's ToR-to-server legs) share one pipeline."""
        sim, topology, nbytes = self.sim, self.topology, flow.nbytes
        now = sim.now
        chunks = self._chunk_sizes(nbytes)
        # the chunk pipeline on an idle fabric, float op for float op: hop
        # h serializes chunk c once it has arrived and chunk c-1 is out
        arrive = {edges[0][0]: [now] * len(chunks)}
        legs: Dict[Tuple[str, float, float, float], List[float]] = {}
        admitted, on_link = self._admitted, self._on_link
        keys: List[Tuple[str, str]] = []
        serial = []
        cap = math.inf
        contended = False
        for a, b in edges:
            link = topology.link(a, b)
            factor = topology.degradation(a, b)
            bandwidth = link.bandwidth
            leg = (a, factor, bandwidth, link.latency)
            out = legs.get(leg)
            if out is None:
                out = legs[leg] = _pipeline(
                    arrive[a], chunks, factor, bandwidth, factor * link.latency
                )
            arrive[b] = out
            if bandwidth / factor < cap:
                cap = bandwidth / factor
            key = self._link_key(a, b)
            keys.append(key)
            left = admitted.get(key, 0) - nbytes
            if left > 0:
                admitted[key] = left
            else:
                admitted.pop(key, None)
            meters = self._meters(key)
            meters.transfers.inc()
            serial.append((meters.busy, factor, bandwidth))
            flows = on_link.get(key)
            if flows:
                g = next(iter(flows))
                if g.landing is None:
                    contended = True
                elif g.due <= now:
                    self._evict(g)  # an idle replay that drained: only its tail is left
                else:
                    contended = True
                    self._convert(g, now)
        finish = max(arrive[d][-1] for d in dsts)
        drain = now + nbytes / cap
        flow.keys = keys
        flow.rem = nbytes
        flow.settled = now
        flow.tail = finish - drain if finish > drain else 0.0
        # busy seconds are charged now, at the factors now in force: an idle
        # replay chunk by chunk, in order, so the float sum is the pipeline's
        if contended:
            flow.rate = 0.0
            flow.due = math.inf
            flow.landing = None
            self._fluid[flow] = None
            self._touch()
            for busy, factor, bandwidth in serial:
                busy.inc(factor * nbytes / bandwidth)
        else:
            flow.rate = cap
            flow.due = drain
            flow.landing = sim.call_at(finish, flow._land)
            for busy, factor, bandwidth in serial:
                inc = busy.inc
                for clen in chunks:
                    inc(factor * clen / bandwidth)
        for key in keys:
            flows = on_link.get(key)
            if flows is None:
                on_link[key] = {flow: None}
            else:
                flows[flow] = None

    def _evict(self, flow: "_Flow") -> None:
        """Take ``flow`` off its links (it drained)."""
        on_link = self._on_link
        for key in flow.keys:
            flows = on_link[key]
            del flows[flow]
            if not flows:
                del on_link[key]
        self._fluid.pop(flow, None)

    def _convert(self, flow: "_Flow", now: float) -> None:
        """An idle replay meets another flow: from ``now`` on it drains at
        a fair rate, then pays its idle tail."""
        self.sim.cancel(flow.landing)
        flow.landing = None
        left = flow.rem - flow.rate * (now - flow.settled)
        flow.rem = left if left > 0.0 else 0.0
        flow.settled = now
        self._fluid[flow] = None
        self._touch()

    def _rerate(self, key: Tuple[str, str]) -> None:
        flows = self._on_link.get(key)
        if not flows:
            return
        now = self.sim.now
        for flow in list(flows):
            if flow.landing is None:
                self._touch()
            elif flow.due <= now:
                self._evict(flow)
            else:
                self._convert(flow, now)

    def _touch(self) -> None:
        """The table changed: re-rate once, after this instant's queued events."""
        if not self._reshape_pending:
            self._reshape_pending = True
            self.sim.schedule(0.0, self._reshape)

    def _reshape(self) -> None:
        """Settle every draining flow at its old rate, give each its max-min
        fair rate (progressive filling), and arm the earliest drain.

        A link holds one idle replay or only draining flows, so the links
        to fill are the table's links whose first flow drains: the scan of
        the draining flows' links stops once it has met them all.  Each
        step freezes the flows of the link with the least fair share (the
        first such, as ``min`` picks) and takes that share off each of
        their other links once per flow, unless no flow is left."""
        self._reshape_pending = False
        now = self.sim.now
        fluid, on_link, topology = self._fluid, self._on_link, self.topology
        for f in fluid:
            if f.settled != now:
                left = f.rem - f.rate * (now - f.settled)
                f.rem = left if left > 0.0 else 0.0
                f.settled = now
        want = sum(1 for flows in on_link.values() if next(iter(flows)).landing is None)
        count: Dict[Tuple[str, str], int] = {}
        room: Dict[Tuple[str, str], float] = {}
        for f in fluid:
            if len(count) == want:
                break
            for key in f.keys:
                if key not in count:
                    count[key] = len(on_link[key])
                    room[key] = topology.link(*key).bandwidth / topology.degradation(*key)
        unfrozen = dict.fromkeys(fluid)
        while count:
            shares = iter(count.items())
            bottleneck, n = next(shares)
            share = room[bottleneck] / n
            for key, n in shares:
                fair = room[key] / n
                if fair < share:
                    bottleneck, share = key, fair
            frozen: List[Tuple[str, str]] = []
            for f in on_link[bottleneck]:
                if f in unfrozen:
                    del unfrozen[f]
                    f.rate = share
                    frozen += f.keys
            if not unfrozen:
                break  # every link is filled
            for key, k in Counter(frozen).items():
                n = count[key] - k
                if n:
                    count[key] = n
                    left = room[key]
                    for _ in range(k):
                        left -= share
                    room[key] = left
                else:
                    del count[key]
        earliest = math.inf
        for f in fluid:
            f.due = due = now + f.rem / f.rate
            if due < earliest:
                earliest = due
        if earliest != self._timer_at:
            if self._timer is not None:
                self.sim.cancel(self._timer)
            self._timer = self.sim.call_at(earliest, self._drain) if fluid else None
            self._timer_at = earliest

    def _drain(self) -> None:
        """The earliest-drain timer: drained flows leave the table and land
        after their tails; the rest re-rate."""
        self._timer, self._timer_at = None, math.inf
        now = self.sim.now
        for f in [f for f in self._fluid if f.due <= now]:
            self._evict(f)
            f.rem = 0.0
            self.sim.schedule(f.tail, f._land)
        if not self._reshape_pending:
            self._reshape()

    def transfer(self, src: str, dst: str, nbytes: int, label: str = "xfer") -> Step:
        """Move ``nbytes`` from ``src`` to ``dst``; returns an awaitable.

        Its value is ``nbytes`` on success, ``None`` when a partition blocked
        the transfer as it started (callers treat that as a fetch failure and
        retry).  Zero-hop transfers (src == dst) complete after a zero
        timeout so callers can always ``yield`` the result uniformly.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        hops = self.topology.route(src, dst)
        self.stats.attempted_transfers += 1
        self.stats.attempted_bytes += nbytes
        self._admit(hops, nbytes)
        return _Transfer(self, src, dst, nbytes, hops, label)

    # -- multicast -----------------------------------------------------------

    def multicast_tree(
        self, src: str, dsts: Sequence[str]
    ) -> Tuple[List[Tuple[str, str]], int]:
        """The spanning tree used to distribute one object from ``src`` to
        ``dsts``: the union of shortest-path routes, each endpoint entered
        once.  Returns ``(edges, unicast_hop_count)`` where the latter is
        what one-unicast-per-consumer would have paid in link crossings."""
        edges: List[Tuple[str, str]] = []
        reached = {src}
        unicast_hops = 0
        for dst in dsts:
            route = self.topology.route(src, dst)
            unicast_hops += len(route)
            for a, b in route:
                if b not in reached:
                    reached.add(b)
                    edges.append((a, b))
        return edges, unicast_hops

    def multicast(
        self, src: str, dsts: Sequence[str], nbytes: int, label: str = "mcast"
    ) -> Step:
        """Distribute ``nbytes`` from ``src`` to every endpoint in ``dsts``
        along a spanning tree: each tree link serializes the payload once,
        however many consumers sit behind it.  The tree is one flow; alone
        on its links it lands when the chunk pipeline down the tree would.

        The value is the sorted list of destination endpoints the payload
        reached (endpoints cut off by a partition at submit are skipped).
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        targets = sorted(set(dsts))
        reachable = [d for d in targets if not self.crosses_partition(src, d)]
        edges, unicast_hops = self.multicast_tree(src, reachable)
        self.stats.attempted_transfers += 1
        self.stats.attempted_bytes += nbytes
        self._admit(edges, nbytes)
        return _Multicast(self, src, targets, reachable, edges, unicast_hops, nbytes, label)

    # -- control messages ----------------------------------------------------

    def message(self, src: str, dst: str, label: str = "msg") -> Awaitable:
        """A small control-plane frame (fixed size, latency-dominated).

        An awaitable whose value is ``True`` when the frame arrived,
        ``False`` when chaos dropped it (loss or partition).  Callers that
        predate fault injection ignore the value; delivery-sensitive
        protocols (heartbeats, leases) check it.  Priced at send, it is one
        calendar entry (see the module docstring).
        """
        hops = self.topology.route(src, dst)
        sim, stats = self.sim, self.stats
        stats.messages += 1
        if self.crosses_partition(src, dst) or (
            self._loss_rate > 0.0 and self._loss_rng.random() < self._loss_rate
        ):
            stats.dropped_messages += 1
            self._meter_drop("message")
            spent = self.topology.link(*hops[0]).transfer_time(CONTROL_MSG_BYTES) if hops else 0.0
            return sim.timeout(spent, False)  # the sender burns its first hop
        if not hops:
            stats.messages_delivered += 1
            return sim.timeout(0.0, True)
        frame = sim.signal()
        # one add per hop, in the order hop-by-hop timers added them
        sim.call_at(reduce(add, self._hop_times(hops), sim.now), self._land_frame, frame, hops)
        return frame

    def _hop_times(self, hops: Sequence[Tuple[str, str]]) -> List[float]:
        """Each hop's control-frame time, degradation included."""
        topology = self.topology
        return [
            topology.degradation(a, b) * topology.link(a, b).transfer_time(CONTROL_MSG_BYTES)
            for a, b in hops
        ]

    def _land_frame(self, frame: Awaitable, hops: Sequence[Tuple[str, str]]) -> None:
        """A delivered frame is in: each hop's bytes, then the waiter."""
        stats = self.stats
        for a, b in hops:
            key = self._link_key(a, b)
            stats.record_link(key, CONTROL_MSG_BYTES)
            meters = self._meters(key)
            meters.messages.inc()
            meters.bytes.inc(CONTROL_MSG_BYTES)
        stats.messages_delivered += 1
        frame.trigger(True)

    def rpc(self, src: str, dst: str, label: str = "rpc") -> Step:
        """Request/response control-message pair (two one-way messages).

        An awaitable whose value is ``True`` only when both legs were
        delivered.
        """
        return _Rpc(self, src, dst, label)

    # -- the placement cost model --------------------------------------------

    def transfer_time_estimate(
        self, src: str, dst: str, nbytes: int, contended: bool = False
    ) -> float:
        """Analytic transfer-time estimate for placement cost models.

        Mirrors the simulated pipeline exactly for an idle fabric: the
        chunked cut-through recurrence over the route's hops, with chaos
        degradation factors applied per hop.  With ``contended=True`` the
        per-link contention ledger is added: a new transfer waits behind
        the queued backlog of every hop (:meth:`link_wait_estimate`), so
        hot links look expensive to the locality scheduler.
        """
        hops = self.topology.route(src, dst)
        if not hops:
            return 0.0
        chunks = self._chunk_sizes(nbytes)
        ready = [0.0] * len(chunks)
        for a, b in hops:
            link = self.topology.link(a, b)
            factor = self.topology.degradation(a, b)
            free = self.link_wait_estimate(a, b) if contended else 0.0
            ready = _pipeline(ready, chunks, factor, link.bandwidth, factor * link.latency, free)
        return ready[-1]

    def message_time_estimate(self, src: str, dst: str) -> float:
        """How long a delivered :meth:`message` takes: one control frame
        per hop, degradation included, summed hop by hop."""
        return reduce(add, self._hop_times(self.topology.route(src, dst)), 0.0)


class _Flow(Step):
    """A transfer or multicast: a :class:`Step` that starts, puts its flow
    in the :class:`Network`'s table, and lands when the flow is through.

    While ``landing`` holds a handle the flow is *idle*: alone on its links,
    draining at its bottleneck capacity ``rate`` until ``due``, landing at
    its exact replay time.  Otherwise it drains at the fair ``rate`` the
    last reshape gave it; ``rem`` bytes were left at ``settled``."""

    __slots__ = ("net", "nbytes", "keys", "rem", "rate", "settled", "due", "tail", "landing")

    def __init__(self, net: Network, nbytes: int, name: str) -> None:
        self.net = net
        self.nbytes = nbytes
        self.keys: List[Tuple[str, str]] = []
        self.landing: Any = None
        Step.__init__(self, net.sim, name)

    def _advance(self, value: Any, _exc: None) -> None:
        raise NotImplementedError

    def _land(self) -> None:
        """The last chunk is in: per-link delivered bytes, then the value."""
        net, nbytes = self.net, self.nbytes
        if self.landing is not None:  # an idle replay: off the table if still on it
            self.landing = None
            if self in net._on_link.get(self.keys[0], ()):
                net._evict(self)
        for key in self.keys:
            net.stats.record_link(key, nbytes)
            net._meters(key).bytes.inc(nbytes)
        net.stats.transfers += 1
        net.stats.bytes_moved += nbytes
        self._delivered()

    def _delivered(self) -> None:
        raise NotImplementedError


class _Transfer(_Flow):
    """:meth:`Network.transfer`: the partition check as it starts, then one
    flow over the route (or a zero timeout for a zero-hop transfer)."""

    __slots__ = ("src", "dst", "hops")

    def __init__(
        self, net: Network, src: str, dst: str, nbytes: int,
        hops: List[Tuple[str, str]], label: str,
    ):
        self.src = src
        self.dst = dst
        self.hops = hops
        _Flow.__init__(self, net, nbytes, f"net:{label}:{src}->{dst}")

    def _advance(self, _value: Any, _exc: None) -> None:
        net, hops = self.net, self.hops
        self._phase += 1
        if self._phase == 2:  # a blocked transfer's connect timeout, or zero hops
            if hops:
                self.trigger(None)
            else:
                self._land()
        elif net.crosses_partition(self.src, self.dst):
            # the sender burns a connect-timeout's worth of first-hop latency
            # before declaring the peer unreachable
            net.stats.blocked_transfers += 1
            net._meter_drop("blocked_transfer")
            net._unadmit(hops, self.nbytes)
            self._wait(net.sim.timeout(net.topology.link(*hops[0]).latency))
        elif hops:
            net._open(self, hops, (self.dst,))
        else:
            self._wait(net.sim.timeout(0.0))

    def _delivered(self) -> None:
        self.trigger(self.nbytes)


class _Multicast(_Flow):
    """:meth:`Network.multicast`: one flow over the tree edges."""

    __slots__ = ("src", "targets", "reachable", "edges", "saved")

    def __init__(
        self, net: Network, src: str, targets: List[str], reachable: List[str],
        edges: List[Tuple[str, str]], unicast_hops: int, nbytes: int, label: str,
    ):
        self.src = src
        self.targets = targets
        self.reachable = reachable
        self.edges = edges
        self.saved = nbytes * max(0, unicast_hops - len(edges))
        _Flow.__init__(self, net, nbytes, f"net:{label}:{src}->*{len(targets)}")

    def _advance(self, _value: Any, _exc: None) -> None:
        net, reachable = self.net, self.reachable
        self._phase += 1
        if self._phase == 2:  # every consumer blocked, or every one the source
            if reachable:
                self._land()
            else:
                self.trigger([])
            return
        blocked = len(self.targets) - len(reachable)
        if blocked:
            net.stats.blocked_transfers += blocked
            net._meter_drop("blocked_multicast")
        if not reachable:
            first = net.topology.route(self.src, self.targets[0]) if self.targets else []
            if first:
                self._wait(net.sim.timeout(net.topology.link(*first[0]).latency))
            else:
                self.trigger([])
        elif self.edges:
            net._open(self, self.edges, reachable)
        else:
            self._wait(net.sim.timeout(0.0))

    def _delivered(self) -> None:
        net = self.net
        net.stats.multicasts += 1
        net.stats.multicast_bytes_saved += self.saved
        if net._multicast_saved is not None and self.saved:
            net._multicast_saved.inc(self.saved)
        self.trigger(list(self.reachable))


class _Rpc(Step):
    """:meth:`Network.rpc`: the response leaves once the request is in (or lost)."""

    __slots__ = ("net", "src", "dst", "_req_ok")

    def __init__(self, net: Network, src: str, dst: str, label: str):
        self.net = net
        self.src = src
        self.dst = dst
        Step.__init__(self, net.sim, label)

    def _advance(self, value: Any, _exc: None) -> None:
        self._phase += 1
        if self._phase == 1:
            self._wait(self.net.message(self.src, self.dst, self.name))
        elif self._phase == 2:
            self._req_ok = value
            self._wait(self.net.message(self.dst, self.src, self.name))
        else:
            self.trigger(bool(self._req_ok and value))
