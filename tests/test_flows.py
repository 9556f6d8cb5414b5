"""The fabric's flow table against the per-chunk pipeline it replaced.

``ChunkForwarder`` below is that pipeline, kept as the reference: a FIFO
slot per link, one forwarder process per hop that serializes each chunk as
it arrives and triggers its arrival one propagation later, and the inline
walk a single-chunk transfer takes.  A flow that shares no link must land at
bit-for-bit the same time and leave bit-for-bit the same per-link bytes,
busy seconds and transfer counts.  Flows that share a link split it
byte-fairly (max-min), which the chunk pipeline never did.

Contended soups on a ToR star are pinned twice: by a golden of their
landings, link meters and reshape count, and against ``reference_open`` /
``reference_reshape``, the per-edge and per-incidence forms of ``_open`` and
``_reshape``, which must give every fluid flow the same rate, drain time and
tail at every reshape, float for float.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, Generator, List, Sequence, Tuple

import pytest

from repro.cluster.hardware import MB
from repro.cluster.network import (
    DEFAULT_CHUNK_BYTES, MAX_CHUNKS_PER_TRANSFER, Network, _pipeline,
)
from repro.cluster.simtime import Resource, Signal, Simulator
from repro.cluster.topology import LinkSpec, Topology
from repro.telemetry.metrics import MetricsRegistry

Key = Tuple[str, str]


class ChunkForwarder:
    """The chunk pipeline: per-chunk arrival signals and a slot per link."""

    def __init__(self, sim: Simulator, topology: Topology):
        self.sim = sim
        self.topology = topology
        self.registry = MetricsRegistry(clock=lambda: sim.now)
        self.bytes_by_link: Dict[Key, int] = {}
        self._slots: Dict[Key, Resource] = {}

    @staticmethod
    def key(a: str, b: str) -> Key:
        return (a, b) if a <= b else (b, a)

    def _counter(self, name: str, key: Key):
        return self.registry.counter(name, link=Network.link_label(key))

    def _slot(self, key: Key) -> Resource:
        if key not in self._slots:
            self._slots[key] = Resource(self.sim, capacity=1)
        return self._slots[key]

    @staticmethod
    def chunk_sizes(nbytes: int) -> List[int]:
        if nbytes <= DEFAULT_CHUNK_BYTES:
            return [nbytes]
        n = min(MAX_CHUNKS_PER_TRANSFER, -(-nbytes // DEFAULT_CHUNK_BYTES))
        base, rem = divmod(nbytes, n)
        return [base + 1] * rem + [base] * (n - rem)

    def _forward_hop(
        self, a: str, b: str, chunks: Sequence[int],
        src_sigs: Sequence[Signal], dst_sigs: Sequence[Signal],
    ) -> Generator:
        link = self.topology.link(a, b)
        key = self.key(a, b)
        slot = self._slot(key)
        for c, clen in enumerate(chunks):
            yield src_sigs[c]
            yield slot.request()
            factor = self.topology.degradation(a, b)
            serialize = factor * clen / link.bandwidth
            self._counter("skadi_link_busy_seconds_total", key).inc(serialize)
            yield self.sim.timeout(serialize)
            slot.release()
            self.bytes_by_link[key] = self.bytes_by_link.get(key, 0) + clen
            self._counter("skadi_link_bytes_total", key).inc(clen)
            self.sim.schedule(factor * link.latency, dst_sigs[c].trigger, clen)

    def _walk(self, hops: Sequence[Key], nbytes: int) -> Generator:
        """A single chunk has nothing to pipeline: walk the hops inline."""
        for a, b in hops:
            link = self.topology.link(a, b)
            key = self.key(a, b)
            self._counter("skadi_link_transfers_total", key).inc()
            slot = self._slot(key)
            yield slot.request()
            factor = self.topology.degradation(a, b)
            serialize = factor * nbytes / link.bandwidth
            self._counter("skadi_link_busy_seconds_total", key).inc(serialize)
            yield self.sim.timeout(serialize)
            slot.release()
            self.bytes_by_link[key] = self.bytes_by_link.get(key, 0) + nbytes
            self._counter("skadi_link_bytes_total", key).inc(nbytes)
            yield self.sim.timeout(factor * link.latency)

    def _pipeline(self, src: str, edges: Sequence[Key], dsts: Sequence[str], nbytes: int):
        chunks = self.chunk_sizes(nbytes)
        arrive = {src: [Signal(self.sim) for _ in chunks]}
        for _a, b in edges:
            arrive[b] = [Signal(self.sim) for _ in chunks]
        for sig in arrive[src]:
            sig.trigger()
        for a, b in edges:
            self._counter("skadi_link_transfers_total", self.key(a, b)).inc()
            self.sim.process(self._forward_hop(a, b, chunks, arrive[a], arrive[b]))
        return self.sim.all_of([arrive[d][-1] for d in dsts])

    def transfer(self, src: str, dst: str, nbytes: int):
        hops = self.topology.route(src, dst)

        def move() -> Generator:
            if not hops:
                yield self.sim.timeout(0.0)
            elif len(self.chunk_sizes(nbytes)) == 1:
                yield from self._walk(hops, nbytes)
            else:
                yield self._pipeline(src, hops, [dst], nbytes)
            return nbytes

        return self.sim.process(move())

    def multicast(self, src: str, dsts: Sequence[str], nbytes: int, net: Network):
        targets = sorted(set(dsts))
        edges, _ = net.multicast_tree(src, targets)

        def cast() -> Generator:
            yield self._pipeline(src, edges, targets, nbytes)
            return targets

        return self.sim.process(cast())


def line(specs: Sequence[LinkSpec]) -> Topology:
    """a0 - a1 - ... with the given links, in order."""
    topo = Topology()
    for i, spec in enumerate(specs):
        topo.add_link(f"a{i}", f"a{i + 1}", spec)
    return topo


# uneven links so a reordered float operation shows in the last bit
UNEVEN = [
    LinkSpec(latency=1.3e-6, bandwidth=12.5e9),
    LinkSpec(latency=0.7e-6, bandwidth=32e9),
    LinkSpec(latency=3.1e-6, bandwidth=25e9),
    LinkSpec(latency=0.2e-6, bandwidth=7e9),
]


def star() -> Topology:
    """src - hub - c0..c3, and d0 behind c0; c3's link is c0's bandwidth
    with a far longer latency (it lands last)."""
    topo = Topology()
    topo.add_link("src", "hub", UNEVEN[0])
    for i, spec in enumerate(UNEVEN[1:]):
        topo.add_link("hub", f"c{i}", spec)
    topo.add_link("hub", "c3", LinkSpec(latency=2e-3, bandwidth=UNEVEN[1].bandwidth))
    topo.add_link("c0", "d0", UNEVEN[3])
    return topo


def metered(topology: Topology) -> Tuple[Simulator, Network, MetricsRegistry]:
    sim = Simulator()
    net = Network(sim, topology)
    registry = MetricsRegistry(clock=lambda: sim.now)
    net.metrics = registry
    return sim, net, registry


LINK_SERIES = (
    "skadi_link_bytes_total", "skadi_link_busy_seconds_total", "skadi_link_transfers_total",
)


def link_meters(registry: MetricsRegistry, keys) -> Dict[str, tuple]:
    return {
        Network.link_label(key): tuple(
            registry.value(name, link=Network.link_label(key)) for name in LINK_SERIES
        )
        for key in keys
    }


def replay_both(topology_of, submit):
    """Run ``submit(side, net, watch)`` on the flow table and on the chunk
    forwarder, each on a fresh topology; ``watch(step)`` records when a step
    lands.  Returns (landing times, values, link bytes, link meters, final
    clock) for each side."""
    out = []
    for side in ("flows", "chunks"):
        topology = topology_of()
        if side == "flows":
            sim, net, registry = metered(topology)
            mover = net
        else:
            sim = Simulator()
            mover = ChunkForwarder(sim, topology)
            net, registry = Network(sim, topology), mover.registry
        landed: List[float] = []
        steps = []

        def watch(step, sim=sim, landed=landed, steps=steps):
            step.add_callback(lambda _s: landed.append(sim.now))
            steps.append(step)
            return step

        submit(mover, net, watch)
        sim.run()
        stats = net.stats.bytes_by_link if side == "flows" else mover.bytes_by_link
        out.append(
            (landed, [s.value for s in steps], dict(stats), link_meters(registry, stats), sim.now)
        )
        if side == "flows":
            assert not net.flows and not net._admitted
    return out


class TestAnIdleFlowReplaysTheChunkPipeline:
    @pytest.mark.parametrize(
        "n_hops,nbytes",
        [(3, 100 * 1024), (3, 123457), (4, 8 * MB + 13), (2, 10_000_000_019), (2, 0)],
        ids=["1_chunk_3_hops", "1_odd_chunk_3_hops", "32_chunks_4_hops", "capped_chunks", "empty"],
    )
    def test_a_route(self, n_hops, nbytes):
        flows, chunks = replay_both(
            lambda: line(UNEVEN[:n_hops]),
            lambda side, _net, watch: watch(side.transfer("a0", f"a{n_hops}", nbytes)),
        )
        assert flows == chunks
        if nbytes:
            links = [ChunkForwarder.key(f"a{i}", f"a{i + 1}") for i in range(n_hops)]
            assert flows[2] == dict.fromkeys(links, nbytes)

    def test_a_degraded_hop(self):
        def topology():
            topo = line(UNEVEN)
            topo.degrade_link("a1", "a2", 3.7)
            return topo

        flows, chunks = replay_both(
            topology, lambda side, _net, watch: watch(side.transfer("a4", "a0", 5 * MB + 1))
        )
        assert flows == chunks

    def test_a_multicast_tree(self):
        def submit(side, net, watch):
            dsts = ["c1", "d0", "c3", "c2", "c0"]
            if isinstance(side, Network):
                watch(side.multicast("src", dsts, 6 * MB + 3))
            else:
                watch(side.multicast("src", dsts, 6 * MB + 3, net))

        flows, chunks = replay_both(star, submit)
        assert flows == chunks
        assert flows[1] == [["c0", "c1", "c2", "c3", "d0"]]

    def test_flows_that_take_turns_on_a_link(self):
        """The second starts after the first drained: neither is contended,
        and the link's busy seconds add up chunk by chunk, in order."""

        def submit(side, net, watch):
            watch(side.transfer("a0", "a3", 9 * MB))
            net.sim.schedule(0.01, lambda: watch(side.transfer("a3", "a1", 3 * MB + 7)))

        flows, chunks = replay_both(lambda: line(UNEVEN[:3]), submit)
        assert flows == chunks

    def test_a_long_flow_that_starts_late(self):
        """0.3 + (0.907... - 0.3) misses the pipeline's landing by one ulp."""

        def submit(side, net, watch):
            net.sim.schedule(0.3, lambda: watch(side.transfer("a0", "a2", 7_500_000_000)))

        flows, chunks = replay_both(lambda: line(UNEVEN[:2]), submit)
        assert flows == chunks

    def test_zero_hops(self):
        """Lands one zero-delay hop after it starts, as the pipeline did."""

        def submit(side, net, watch):
            step = watch(side.transfer("a0", "a0", 10 * MB))
            net.sim.schedule(0.0, lambda: order.append("marker"))
            step.add_callback(lambda _s: order.append("landed"))

        order: List[str] = []
        flows, chunks = replay_both(lambda: line(UNEVEN[:1]), submit)
        assert flows == chunks and flows[:2] == ([0.0], [10 * MB]) and not flows[2]
        assert order == ["marker", "landed"] * 2

    def test_partition_blocked(self):
        sim, net, registry = metered(line(UNEVEN[:2]))
        net.partition({"a0"})
        step = net.transfer("a0", "a2", 4 * MB)
        assert net.queued_bytes("a0", "a1") == 4 * MB
        sim.run()
        assert step.value is None
        assert sim.now == UNEVEN[0].latency  # one connect timeout on the first hop
        assert not net.stats.bytes_by_link and net.stats.blocked_transfers == 1
        assert registry.value("skadi_link_transfers_total", link="a0<->a1") == 0.0
        assert not net.flows and net.queued_bytes("a0", "a1") == 0


ONE_LINK = LinkSpec(latency=0.0, bandwidth=100.0)


def one_link() -> Topology:
    topo = Topology()
    topo.add_link("a", "b", ONE_LINK)
    return topo


class TestFlowsThatShareALink:
    def test_two_equal_flows_finish_together(self):
        sim, net, _ = metered(one_link())
        first, second = net.transfer("a", "b", 300), net.transfer("b", "a", 300)
        landed = []
        first.add_callback(lambda _s: landed.append(("first", sim.now)))
        second.add_callback(lambda _s: landed.append(("second", sim.now)))
        sim.run()
        # byte-fair: each gets half the link, and both are done at 6 s
        assert landed == [("first", 6.0), ("second", 6.0)]

    def test_a_parking_lot_gets_max_min_rates(self):
        """x0 -1 GB/s- x1 -3 GB/s- x2 -2 GB/s- x3: a long flow over all three
        links and a short one on each.  The first link splits evenly (0.5 each),
        the long flow's 0.5 leaves 2.5 and 1.5 for the other two shorts."""
        topo = Topology()
        for i, bandwidth in enumerate((1e9, 3e9, 2e9)):
            topo.add_link(f"x{i}", f"x{i + 1}", LinkSpec(latency=1e-6, bandwidth=bandwidth))
        sim, net, _ = metered(topo)
        steps = {
            "long": net.transfer("x0", "x3", 64 * MB),
            "short0": net.transfer("x0", "x1", 64 * MB),
            "short1": net.transfer("x1", "x2", 64 * MB),
            "short2": net.transfer("x2", "x3", 64 * MB),
        }
        sim.run(until=0.0)
        assert {name: step.rate for name, step in steps.items()} == pytest.approx(
            {"long": 0.5e9, "short0": 0.5e9, "short1": 2.5e9, "short2": 1.5e9}
        )
        sim.run()
        assert all(step.value == 64 * MB for step in steps.values())
        assert not net.flows

    def test_degrading_a_link_mid_flow_slows_only_the_rest(self):
        sim, net, _ = metered(one_link())
        step = net.transfer("a", "b", 1000)  # alone: 10 s at 100 B/s
        sim.schedule(4.0, net.degrade_link, "a", "b", 2.0)
        sim.run()
        # 400 B at full rate, the other 600 B at half: 4 + 12 s
        assert sim.now == pytest.approx(16.0) and step.value == 1000

    def test_restoring_a_link_mid_flow_speeds_up_the_rest(self):
        topo = one_link()
        topo.degrade_link("a", "b", 4.0)
        sim, net, _ = metered(topo)
        net.transfer("a", "b", 1000)  # 40 s at 25 B/s
        sim.schedule(8.0, net.restore_link, "a", "b")
        sim.run()
        assert sim.now == pytest.approx(8.0 + 800 / 100.0)

    def test_queued_bytes_rise_at_submit_and_drain_to_zero(self):
        sim, net, _ = metered(one_link())
        net.transfer("a", "b", 300)
        net.transfer("a", "b", 500)
        assert net.queued_bytes("a", "b") == 800  # admitted at submit
        sim.run(until=2.0)
        # both at 50 B/s for 2 s
        assert net.queued_bytes("a", "b") == pytest.approx(600)
        assert net.link_wait_estimate("a", "b") == pytest.approx(6.0)
        sim.run()
        assert net.queued_bytes("a", "b") == 0 and not net.flows
        # 300 B drain at 6 s; the other 200 B go at the full 100 B/s
        assert sim.now == pytest.approx(8.0)

    def test_a_flow_that_contends_pays_its_idle_tail(self):
        """Pipeline fill and propagation come after the fair-rate drain."""
        topo = line([LinkSpec(latency=1e-3, bandwidth=1e9)] * 2)
        sim, net, _ = metered(topo)
        alone = net.transfer_time_estimate("a0", "a2", 8 * MB)
        net.transfer("a0", "a2", 8 * MB)
        net.transfer("a0", "a2", 8 * MB)
        sim.run()
        # both drain at half rate (16 MB at 1 GB/s), then the idle tail
        assert sim.now == pytest.approx(alone + 8 * MB / 1e9)


def reference_open(self: Network, flow, edges, dsts) -> None:
    """``Network._open`` in its per-edge form: one pipeline per edge."""
    sim, topology, nbytes = self.sim, self.topology, flow.nbytes
    now = sim.now
    chunks = self._chunk_sizes(nbytes)
    arrive = {edges[0][0]: [now] * len(chunks)}
    admitted, on_link = self._admitted, self._on_link
    keys: List[Key] = []
    serial = []
    cap = math.inf
    contended = False
    for a, b in edges:
        link = topology.link(a, b)
        factor = topology.degradation(a, b)
        bandwidth = link.bandwidth
        arrive[b] = _pipeline(arrive[a], chunks, factor, bandwidth, factor * link.latency)
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
                self._evict(g)
            else:
                contended = True
                self._convert(g, now)
    finish = max(arrive[d][-1] for d in dsts)
    drain = now + nbytes / cap
    flow.keys = keys
    flow.rem = nbytes
    flow.settled = now
    flow.tail = finish - drain if finish > drain else 0.0
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


def reference_reshape(self: Network) -> None:
    """``Network._reshape`` in its per-incidence form: the link set from
    every flow x link incidence, ``min`` with a key, and the counts and
    rooms updated once per incidence."""
    self._reshape_pending = False
    now = self.sim.now
    fluid, on_link, topology = self._fluid, self._on_link, self.topology
    for f in fluid:
        if f.settled != now:
            left = f.rem - f.rate * (now - f.settled)
            f.rem = left if left > 0.0 else 0.0
            f.settled = now
    links = dict.fromkeys(key for f in fluid for key in f.keys)
    count = {key: len(on_link[key]) for key in links}
    room = {key: topology.link(*key).bandwidth / topology.degradation(*key) for key in links}
    unfrozen = dict.fromkeys(fluid)
    while count:
        bottleneck = min(count, key=lambda k: room[k] / count[k])
        share = room[bottleneck] / count[bottleneck]
        for f in on_link[bottleneck]:
            if f in unfrozen:
                del unfrozen[f]
                f.rate = share
                for key in f.keys:
                    n = count[key] - 1
                    if n:
                        count[key] = n
                        room[key] -= share
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


SERVERS = 6
UPLINK = LinkSpec(latency=1e-6, bandwidth=12.5e9)
DOWNLINK = LinkSpec(latency=0.5e-6, bandwidth=32e9)


def tor_star() -> Topology:
    """tor - s0..s5 on equal uplinks (so fair shares tie), a gpu behind each
    server on equal downlinks; s2's uplink is degraded 2.5x."""
    topo = Topology()
    for i in range(SERVERS):
        topo.add_link("tor", f"s{i}", UPLINK)
        topo.add_link(f"s{i}", f"s{i}/gpu", DOWNLINK)
    topo.degrade_link("tor", "s2", 2.5)
    return topo


def fabric_soup(seed: int):
    """48 seeded transfers and multicasts started on a 50 us grid over
    2 ms, with s4's uplink degraded 3x from 0.7 ms to 1.6 ms.  Returns
    (each landing as ``(index, float.hex(time))``, each link's
    ``(bytes, busy seconds hex, transfers)``, and per reshape each fluid
    flow's ``(rate, due, tail)`` in hex)."""
    rng = random.Random(seed)
    sim, net, registry = metered(tor_star())
    endpoints = [f"s{i}" for i in range(SERVERS)] + [f"s{i}/gpu" for i in range(SERVERS)]
    landed: List[Tuple[int, str]] = []
    reshapes: List[tuple] = []
    reshape = net._reshape

    def traced_reshape() -> None:
        reshape()
        reshapes.append(tuple((f.rate.hex(), f.due.hex(), f.tail.hex()) for f in net._fluid))

    net._reshape = traced_reshape

    def start(i: int, src: str, dsts: List[str], nbytes: int) -> None:
        if len(dsts) == 1:
            step = net.transfer(src, dsts[0], nbytes)
        else:
            step = net.multicast(src, dsts, nbytes)
        step.add_callback(lambda _s: landed.append((i, sim.now.hex())))

    for i in range(48):
        src = rng.choice(endpoints)
        others = [e for e in endpoints if e != src]
        dsts = rng.sample(others, rng.choice((1, 1, 2, 4, 6)))
        nbytes = rng.choice((100 * 1024, 2 * MB, 8 * MB, 8 * MB, 8 * MB + 5, 30 * MB))
        sim.schedule(rng.randrange(40) * 5e-5, start, i, src, dsts, nbytes)
    sim.schedule(7e-4, net.degrade_link, "tor", "s4", 3.0)
    sim.schedule(1.6e-3, net.restore_link, "tor", "s4")
    sim.run()
    assert len(landed) == 48 and not net.flows and not net._admitted
    meters = link_meters(registry, sorted(net.stats.bytes_by_link))
    links = {
        label: (nbytes, busy.hex(), transfers)
        for label, (nbytes, busy, transfers) in meters.items()
    }
    return landed, links, reshapes


def sha12(value) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()[:12]


# recorded with the reference forms in Network: (reshapes, sha12 of the
# landings, sha12 of the link meters)
SOUP_GOLDEN = {
    0: (72, "f06e6041233c", "418d2de5d5eb"),
    1: (75, "05f1b5ced4dd", "ffdbccc862ff"),
    2: (71, "92ee3ad3eb30", "1bcc83c76155"),
    3: (73, "b66198b28c18", "e5451ba52221"),
    4: (78, "853186b02530", "76b979b83255"),
}


class TestContendedSoups:
    @pytest.mark.parametrize("seed", sorted(SOUP_GOLDEN))
    def test_golden(self, seed):
        landed, links, reshapes = fabric_soup(seed)
        assert (len(reshapes), sha12(landed), sha12(links)) == SOUP_GOLDEN[seed]

    @pytest.mark.parametrize("seed", sorted(SOUP_GOLDEN))
    def test_every_reshape_matches_the_reference(self, seed, monkeypatch):
        landed, links, reshapes = fabric_soup(seed)
        monkeypatch.setattr(Network, "_open", reference_open)
        monkeypatch.setattr(Network, "_reshape", reference_reshape)
        assert fabric_soup(seed) == (landed, links, reshapes)
