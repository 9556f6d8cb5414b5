"""Message and bulk-data transfer over the topology, with link contention.

Each link gets a FIFO :class:`~repro.cluster.simtime.Resource`.  Bulk
transfers are split into fixed-size *chunks* pipelined across hops
(cut-through forwarding): while chunk *c* serializes on hop *h*, chunk
*c+1* serializes on hop *h-1*, so an H-hop route costs roughly one full
serialization plus (H-1) chunk-times instead of H full serializations.
A payload no larger than :attr:`Network.chunk_bytes` is one chunk, which
each hop stores and forwards whole.

Small control messages use a fixed frame size so that the control plane's
hop count — the quantity Gen-2 reduces — shows up directly in virtual time.

The network also keeps a *contention ledger* per link (queued-but-unsent
bytes and the busy-until horizon of the chunk currently on the wire);
:meth:`transfer_time_estimate` folds that ledger plus chaos degradation
into the placement cost model, steering the locality scheduler off hot
and degraded links.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Generator, Iterable, List, Sequence, Tuple

from .simtime import Process, Resource, Signal, Simulator
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

    def reset(self) -> None:
        self.transfers = 0
        self.messages = 0
        self.messages_delivered = 0
        self.attempted_transfers = 0
        self.attempted_bytes = 0
        self.bytes_moved = 0
        self.dropped_messages = 0
        self.blocked_transfers = 0
        self.multicasts = 0
        self.multicast_bytes_saved = 0
        self.bytes_by_link.clear()


class Network:
    """Executes transfers as simulation processes.

    Fault-injection hooks (driven by :mod:`repro.chaos`):

    * **Partitions** — a set of node-id groups; traffic crossing a group
      boundary is dropped (messages complete with value ``False``,
      transfers with value ``None``).  Endpoints map to nodes by their
      ``node_id/...`` prefix; endpoints outside every named group (e.g.
      the ToR switch) form an implicit extra group.
    * **Message loss** — a seeded Bernoulli drop applied to control
      messages only; bulk transfers ride a retransmitting transport and
      instead see partitions/degradation.
    * **Degradation** — per-link slowdown factors (see
      :meth:`Topology.degrade_link`) multiply serialization and
      propagation time.
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
        # a telemetry MetricsRegistry (duck-typed: this layer sits below
        # repro.telemetry); the runtime wires it in so per-link bytes,
        # messages, and busy-time land in the cluster-wide metrics plane
        self.metrics = None
        self._link_slots: Dict[Tuple[str, str], Resource] = {}
        # directional (a, b) -> canonical resources/keys, cached because the
        # sort + tuple build showed up hot in transfer-heavy runs
        self._slot_of_pair: Dict[Tuple[str, str], Resource] = {}
        self._key_of_pair: Dict[Tuple[str, str], Tuple[str, str]] = {}
        # contention ledger: admitted-but-not-yet-serialized bytes per link,
        # and the virtual time the chunk currently on the wire frees the link
        self._queued_bytes: Dict[Tuple[str, str], int] = {}
        self._busy_until: Dict[Tuple[str, str], float] = {}
        self._partition_groups: Tuple[frozenset, ...] = ()
        self._loss_rate = 0.0
        self._loss_rng = random.Random(0)

    # -- telemetry -----------------------------------------------------------

    @staticmethod
    def link_label(a: str, b: str) -> str:
        """Canonical metrics label for an undirected link."""
        lo, hi = sorted((a, b))
        return f"{lo}<->{hi}"

    def _meter_link_bytes(self, a: str, b: str, nbytes: int) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "skadi_link_bytes_total",
                "payload bytes routed over each fabric link",
                link=self.link_label(a, b),
            ).inc(nbytes)

    def _meter_link_carried(self, a: str, b: str, is_message: bool) -> None:
        if self.metrics is None:
            return
        if is_message:
            self.metrics.counter(
                "skadi_link_messages_total",
                "control messages carried per fabric link",
                link=self.link_label(a, b),
            ).inc()
        else:
            self.metrics.counter(
                "skadi_link_transfers_total",
                "bulk transfers carried per fabric link",
                link=self.link_label(a, b),
            ).inc()

    def _meter_busy(self, a: str, b: str, seconds: float) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "skadi_link_busy_seconds_total",
                "virtual seconds each link spent serializing bytes",
                link=self.link_label(a, b),
            ).inc(seconds)

    def _meter_drop(self, kind: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "skadi_net_dropped_total",
                "messages/transfers chaos refused to deliver",
                kind=kind,
            ).inc()

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

    @property
    def message_loss_rate(self) -> float:
        """Current seeded control-message drop probability (read-only).

        Exposed so observers (the heartbeat monitor's fast-forward
        listener) can ask "is the control network clean?" without
        reaching into ``_loss_rate``.
        """
        return self._loss_rate

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

    def _hop_factor(self, a: str, b: str) -> float:
        return self.topology.degradation(a, b)

    def _link_key(self, a: str, b: str) -> Tuple[str, str]:
        key = self._key_of_pair.get((a, b))
        if key is None:
            key = (a, b) if a <= b else (b, a)
            self._key_of_pair[(a, b)] = key
        return key

    def _slot(self, a: str, b: str) -> Resource:
        slot = self._slot_of_pair.get((a, b))
        if slot is None:
            key = self._link_key(a, b)
            slot = self._link_slots.get(key)
            if slot is None:
                slot = Resource(self.sim, capacity=1, name=f"link:{key[0]}<->{key[1]}")
                self._link_slots[key] = slot
            self._slot_of_pair[(a, b)] = slot
        return slot

    # -- contention ledger ---------------------------------------------------

    def _admit(self, hops: Sequence[Tuple[str, str]], nbytes: int) -> None:
        for a, b in hops:
            key = self._link_key(a, b)
            self._queued_bytes[key] = self._queued_bytes.get(key, 0) + nbytes

    def _unadmit(self, hops: Sequence[Tuple[str, str]], nbytes: int) -> None:
        for a, b in hops:
            key = self._link_key(a, b)
            left = self._queued_bytes.get(key, 0) - nbytes
            self._queued_bytes[key] = left if left > 0 else 0

    def queued_bytes(self, a: str, b: str) -> int:
        """Bytes admitted for the ``a<->b`` link but not yet across it."""
        return self._queued_bytes.get(self._link_key(a, b), 0)

    def link_wait_estimate(self, a: str, b: str) -> float:
        """How long a new arrival would wait for the ``a<->b`` link: the
        backlog's serialization time or the current holder's residual busy
        window, whichever dominates (degradation included)."""
        key = self._link_key(a, b)
        backlog = self._queued_bytes.get(key, 0)
        factor = self.topology.degradation(a, b)
        wait = factor * backlog / self.topology.link(a, b).bandwidth
        residual = self._busy_until.get(key, 0.0) - self.sim.now
        return wait if wait >= residual else max(0.0, residual)

    # -- chunking ------------------------------------------------------------

    def _chunk_sizes(self, nbytes: int) -> List[int]:
        """Split ``nbytes`` into pipeline chunks summing exactly to
        ``nbytes``.  A payload of at most ``chunk_bytes`` is one chunk."""
        if nbytes <= self.chunk_bytes:
            return [nbytes]
        n = min(self.max_chunks, -(-nbytes // self.chunk_bytes))
        base, rem = divmod(nbytes, n)
        return [base + 1] * rem + [base] * (n - rem)

    def _forward_hop(
        self,
        a: str,
        b: str,
        chunks: Sequence[int],
        src_sigs: Sequence[Signal],
        dst_sigs: Sequence[Signal],
        meter: bool = True,
    ) -> Generator:
        """One hop's forwarder: serialize each chunk onto the ``a->b`` link
        as it arrives, releasing the link between chunks so other traffic
        can interleave, and propagate it (latency) without blocking the
        next chunk's serialization."""
        link = self.topology.link(a, b)
        slot = self._slot(a, b)
        key = self._link_key(a, b)
        for c, clen in enumerate(chunks):
            yield src_sigs[c]
            yield slot.request()
            try:
                factor = self._hop_factor(a, b)
                serialize = factor * clen / link.bandwidth
                self._busy_until[key] = self.sim.now + serialize
                self._meter_busy(a, b, serialize)
                yield self.sim.timeout(serialize)
            finally:
                slot.release()
            left = self._queued_bytes.get(key, 0) - clen
            self._queued_bytes[key] = left if left > 0 else 0
            if meter:
                self.stats.record_link(key, clen)
                self._meter_link_bytes(a, b, clen)
            # propagation must not stall the pipeline: trigger the arrival
            # via the event queue instead of sleeping in this process
            self.sim.schedule(factor * link.latency, dst_sigs[c].trigger, clen)

    def transfer(self, src: str, dst: str, nbytes: int, label: str = "xfer") -> Process:
        """Move ``nbytes`` from ``src`` to ``dst``; returns the process.

        The process value is ``nbytes`` on success, ``None`` when a
        partition blocked the transfer (callers treat that as a fetch
        failure and retry).  Zero-hop transfers (src == dst) complete after
        a zero timeout so callers can always ``yield`` the result uniformly.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        hops = self.topology.route(src, dst)
        self.stats.attempted_transfers += 1
        self.stats.attempted_bytes += nbytes
        self._admit(hops, nbytes)

        def _move() -> Generator:
            if self.crosses_partition(src, dst):
                # the sender burns a connect-timeout's worth of first-hop
                # latency before declaring the peer unreachable
                self.stats.blocked_transfers += 1
                self._meter_drop("blocked_transfer")
                self._unadmit(hops, nbytes)
                if hops:
                    yield self.sim.timeout(self.topology.link(*hops[0]).latency)
                return None
            if not hops:
                yield self.sim.timeout(0.0)
                self.stats.transfers += 1
                self.stats.bytes_moved += nbytes
                return nbytes
            chunks = self._chunk_sizes(nbytes)
            if len(chunks) == 1:
                # single chunk: nothing to pipeline, so walk the hops inline
                # (identical timing, a fraction of the events — control-sized
                # transfers dominate event counts in runtime workloads)
                for a, b in hops:
                    link = self.topology.link(a, b)
                    slot = self._slot(a, b)
                    key = self._link_key(a, b)
                    self._meter_link_carried(a, b, is_message=False)
                    yield slot.request()
                    try:
                        factor = self._hop_factor(a, b)
                        serialize = factor * nbytes / link.bandwidth
                        self._busy_until[key] = self.sim.now + serialize
                        self._meter_busy(a, b, serialize)
                        yield self.sim.timeout(serialize)
                    finally:
                        slot.release()
                    left = self._queued_bytes.get(key, 0) - nbytes
                    self._queued_bytes[key] = left if left > 0 else 0
                    self.stats.record_link(key, nbytes)
                    self._meter_link_bytes(a, b, nbytes)
                    yield self.sim.timeout(factor * link.latency)
                self.stats.transfers += 1
                self.stats.bytes_moved += nbytes
                return nbytes
            # arrival signal per (hop boundary, chunk); the source has every
            # chunk available immediately ("one serialization" total)
            arrivals = [
                [Signal(self.sim) for _ in chunks] for _ in range(len(hops) + 1)
            ]
            for sig in arrivals[0]:
                sig.trigger()
            for h, (a, b) in enumerate(hops):
                self._meter_link_carried(a, b, is_message=False)
                self.sim.process(
                    self._forward_hop(a, b, chunks, arrivals[h], arrivals[h + 1]),
                    name=f"net:{label}:hop:{a}->{b}",
                )
            yield arrivals[len(hops)][-1]
            self.stats.transfers += 1
            self.stats.bytes_moved += nbytes
            return nbytes

        return self.sim.process(_move(), name=f"net:{label}:{src}->{dst}")

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
    ) -> Process:
        """Distribute ``nbytes`` from ``src`` to every endpoint in ``dsts``
        along a spanning tree: each tree link serializes the payload once,
        however many consumers sit behind it.  Chunks pipeline down the
        tree exactly as in :meth:`transfer`.

        The process value is the sorted list of destination endpoints the
        payload reached (endpoints cut off by a partition are skipped).
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        targets = sorted(set(dsts))
        reachable = [d for d in targets if not self.crosses_partition(src, d)]
        blocked = len(targets) - len(reachable)
        edges, unicast_hops = self.multicast_tree(src, reachable)
        saved = nbytes * max(0, unicast_hops - len(edges))
        self.stats.attempted_transfers += 1
        self.stats.attempted_bytes += nbytes
        for a, b in edges:
            key = self._link_key(a, b)
            self._queued_bytes[key] = self._queued_bytes.get(key, 0) + nbytes

        def _cast() -> Generator:
            if blocked:
                self.stats.blocked_transfers += blocked
                self._meter_drop("blocked_multicast")
            if not reachable:
                first = self.topology.route(src, targets[0]) if targets else []
                if first:
                    yield self.sim.timeout(self.topology.link(*first[0]).latency)
                return []
            chunks = self._chunk_sizes(nbytes)
            arrive: Dict[str, List[Signal]] = {
                src: [Signal(self.sim) for _ in chunks]
            }
            for _a, b in edges:
                arrive[b] = [Signal(self.sim) for _ in chunks]
            for sig in arrive[src]:
                sig.trigger()
            for a, b in edges:
                self._meter_link_carried(a, b, is_message=False)
                self.sim.process(
                    self._forward_hop(a, b, chunks, arrive[a], arrive[b]),
                    name=f"net:{label}:edge:{a}->{b}",
                )
            if edges:
                yield self.sim.all_of([arrive[d][-1] for d in reachable])
            else:
                yield self.sim.timeout(0.0)  # every consumer was the source
            self.stats.transfers += 1
            self.stats.bytes_moved += nbytes
            self.stats.multicasts += 1
            self.stats.multicast_bytes_saved += saved
            if self.metrics is not None and saved:
                self.metrics.counter(
                    "skadi_multicast_bytes_saved_total",
                    "bytes multicast trees avoided serializing vs. per-consumer unicasts",
                ).inc(saved)
            return list(reachable)

        return self.sim.process(_cast(), name=f"net:{label}:{src}->*{len(targets)}")

    # -- control messages ----------------------------------------------------

    def message(self, src: str, dst: str, label: str = "msg") -> Process:
        """A small control-plane message (fixed frame, latency-dominated).

        The process value is ``True`` when the message arrived, ``False``
        when chaos dropped it (loss or partition).  Callers that predate
        fault injection ignore the value; delivery-sensitive protocols
        (heartbeats, leases) check it.
        """
        hops = self.topology.route(src, dst)
        self.stats.messages += 1
        dropped = self.crosses_partition(src, dst) or (
            self._loss_rate > 0.0 and self._loss_rng.random() < self._loss_rate
        )

        def _send() -> Generator:
            if dropped:
                self.stats.dropped_messages += 1
                self._meter_drop("message")
                if hops:
                    yield self.sim.timeout(
                        self.topology.link(*hops[0]).transfer_time(CONTROL_MSG_BYTES)
                    )
                return False
            for a, b in hops:
                link = self.topology.link(a, b)
                yield self.sim.timeout(
                    self._hop_factor(a, b) * link.transfer_time(CONTROL_MSG_BYTES)
                )
                self.stats.record_link(self._link_key(a, b), CONTROL_MSG_BYTES)
                self._meter_link_carried(a, b, is_message=True)
                self._meter_link_bytes(a, b, CONTROL_MSG_BYTES)
            self.stats.messages_delivered += 1
            return True

        return self.sim.process(_send(), name=f"net:{label}:{src}->{dst}")

    def rpc(self, src: str, dst: str, label: str = "rpc") -> Process:
        """Request/response control-message pair (two one-way messages).

        The process value is ``True`` only when both legs were delivered.
        """

        def _roundtrip() -> Generator:
            req_ok = yield self.message(src, dst, label=f"{label}:req")
            rsp_ok = yield self.message(dst, src, label=f"{label}:rsp")
            return bool(req_ok and rsp_ok)

        return self.sim.process(_roundtrip(), name=f"net:{label}:{src}<->{dst}")

    # -- the placement cost model --------------------------------------------

    def transfer_time_estimate(
        self, src: str, dst: str, nbytes: int, contended: bool = False
    ) -> float:
        """Analytic transfer-time estimate for placement cost models.

        Mirrors the simulated pipeline exactly for an idle fabric: the
        chunked cut-through recurrence over the route's hops, with chaos
        degradation factors applied per hop.  With ``contended=True`` the
        per-link contention ledger is added: a new transfer waits behind
        the queued backlog (or the residual busy window) of every hop, so
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
            latency = factor * link.latency
            inv_bw = factor / link.bandwidth
            for c, clen in enumerate(chunks):
                start = ready[c] if ready[c] > free else free
                free = start + clen * inv_bw
                ready[c] = free + latency
        return ready[-1]
