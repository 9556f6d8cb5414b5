"""Tests for the fast data plane: chunked cut-through transfers, fetch
deduplication, multicast trees, and the contention-aware cost model."""

from __future__ import annotations

import hashlib
from typing import Dict, Union

import pytest

from repro.cluster.hardware import GB, MB, DeviceKind
from repro.cluster.network import Network
from repro.cluster.simtime import Simulator
from repro.cluster.topology import LinkSpec, Topology
from repro.runtime import (
    Generation,
    ResolutionMode,
    RuntimeConfig,
    SchedulingPolicy,
    ServerlessRuntime,
    TaskError,
)
from repro.runtime.task import ANY_COMPUTE_KIND, TaskState


# a chunk size no payload here reaches: every transfer is one chunk, which
# each hop stores and forwards whole (the comparator for cut-through)
ONE_CHUNK = 1 << 40


def sha12(value) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()[:12]


def line_topology(n_hops: int = 3) -> Topology:
    """a0 - a1 - ... - a<n_hops>, uniform links."""
    topo = Topology()
    for i in range(n_hops):
        topo.add_link(f"a{i}", f"a{i + 1}", LinkSpec(latency=1e-6, bandwidth=1e9))
    return topo


def star_topology(n_leaves: int = 3) -> Topology:
    """src - hub - c0..c<n-1>."""
    topo = Topology()
    topo.add_link("src", "hub", LinkSpec(latency=1e-6, bandwidth=1e9))
    for i in range(n_leaves):
        topo.add_link("hub", f"c{i}", LinkSpec(latency=1e-6, bandwidth=1e9))
    return topo


class TestChunkedTransfers:
    def test_multihop_pipelining_speedup(self):
        """Cut-through over 3 hops ≈ 1 serialization + 2 chunk-times, vs. 3
        full serializations store-and-forward: comfortably >= 2x faster."""

        def timed(chunk_bytes):
            sim = Simulator()
            net = Network(sim, line_topology(3), chunk_bytes=chunk_bytes)
            net.transfer("a0", "a3", 64 * MB)
            sim.run()
            return sim.now

        assert timed(ONE_CHUNK) / timed(256 * 1024) >= 2.0

    def test_single_hop_unchanged_by_chunking(self):
        """Pipelining has nothing to overlap on one hop: same time either way
        (chunk serializations sum to the whole object's serialization)."""

        def timed(chunk_bytes):
            sim = Simulator()
            net = Network(sim, line_topology(1), chunk_bytes=chunk_bytes)
            net.transfer("a0", "a1", 16 * MB)
            sim.run()
            return sim.now

        assert timed(256 * 1024) == pytest.approx(timed(ONE_CHUNK))

    def test_estimate_matches_sim_chunked(self, sim):
        net = Network(sim, line_topology(4), chunk_bytes=256 * 1024)
        p = net.transfer("a0", "a4", 32 * MB)
        sim.run()
        assert p.triggered
        assert sim.now == pytest.approx(net.transfer_time_estimate("a0", "a4", 32 * MB))

    def test_single_chunk_estimate_is_store_and_forward(self, sim):
        """A payload that fits one chunk has nothing to pipeline, so the
        estimate is the closed form: sum of per-hop (latency +
        nbytes/bandwidth)."""
        topo = line_topology(3)
        nbytes = 8 * MB
        net = Network(sim, topo, chunk_bytes=nbytes)
        expected = sum(
            topo.link(a, b).transfer_time(nbytes) for a, b in topo.route("a0", "a3")
        )
        assert net.transfer_time_estimate("a0", "a3", nbytes) == pytest.approx(expected)

    def test_exact_byte_accounting(self, sim):
        """Chunk splitting must conserve bytes exactly, even when the payload
        doesn't divide evenly: delivered, per-link, and process-value bytes
        all equal the payload."""
        nbytes = 7 * MB + 13  # prime-ish: uneven split across 28+ chunks
        net = Network(sim, line_topology(2), chunk_bytes=256 * 1024)
        p = net.transfer("a0", "a2", nbytes)
        sim.run()
        assert p.value == nbytes
        assert net.stats.bytes_moved == nbytes
        assert net.stats.bytes_by_link[("a0", "a1")] == nbytes
        assert net.stats.bytes_by_link[("a1", "a2")] == nbytes

    def test_chunk_count_is_capped(self, sim):
        net = Network(sim, line_topology(1), chunk_bytes=1024, max_chunks=32)
        sizes = net._chunk_sizes(24 * 1024**3)  # a 24 GB blade spill
        assert len(sizes) == 32
        assert sum(sizes) == 24 * 1024**3

    @pytest.mark.parametrize(
        "kwargs", [dict(chunk_bytes=0), dict(chunk_bytes=-4096), dict(max_chunks=0)]
    )
    def test_chunking_parameters_are_validated(self, sim, kwargs):
        # chunk_bytes=0 used to divide by zero at the first large transfer
        with pytest.raises(ValueError):
            Network(sim, line_topology(1), **kwargs)

    def test_zero_hop_transfer(self, sim):
        net = Network(sim, line_topology(1), chunk_bytes=256 * 1024)
        p = net.transfer("a0", "a0", 10 * MB)
        sim.run()
        assert p.value == 10 * MB
        assert sim.now == 0.0
        assert net.stats.transfers == 1
        assert net.stats.bytes_moved == 10 * MB
        assert not net.stats.bytes_by_link  # no link was crossed


class TestLinkContention:
    def test_concurrent_transfers_serialize_back_to_back(self, sim):
        """One link: two 1-second transfers take 2 seconds total."""
        topo = Topology()
        topo.add_link("a", "b", LinkSpec(latency=0.0, bandwidth=100.0))
        net = Network(sim, topo)
        net.transfer("a", "b", 100)
        net.transfer("a", "b", 100)
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_chunked_contention_preserves_fifo_and_bytes(self, sim):
        """Concurrent transfers share a link byte-fairly: equal ones drain
        together, the first-submitted lands first, total time is unchanged,
        and bytes are conserved."""
        topo = Topology()
        topo.add_link("a", "b", LinkSpec(latency=0.0, bandwidth=1000.0))
        net = Network(sim, topo, chunk_bytes=100)
        done = []
        p1 = net.transfer("a", "b", 1000, label="first")
        p2 = net.transfer("a", "b", 1000, label="second")
        p1.add_callback(lambda _: done.append("first"))
        p2.add_callback(lambda _: done.append("second"))
        sim.run()
        assert done == ["first", "second"]
        assert sim.now == pytest.approx(2.0)
        assert net.stats.bytes_moved == 2000
        assert net.stats.bytes_by_link[("a", "b")] == 2000

    def test_queued_bytes_ledger_rises_and_drains(self, sim):
        net = Network(sim, line_topology(1))
        assert net.queued_bytes("a0", "a1") == 0
        net.transfer("a0", "a1", 4 * MB)
        # admitted synchronously at submit: placement done at this instant
        # already sees the backlog
        assert net.queued_bytes("a0", "a1") == 4 * MB
        sim.run()
        assert net.queued_bytes("a0", "a1") == 0

    def test_contended_estimate_prices_backlog(self, sim):
        net = Network(sim, line_topology(1))
        idle = net.transfer_time_estimate("a0", "a1", 1 * MB, contended=True)
        net.transfer("a0", "a1", 16 * MB)
        hot = net.transfer_time_estimate("a0", "a1", 1 * MB, contended=True)
        uncontended = net.transfer_time_estimate("a0", "a1", 1 * MB)
        assert hot > uncontended == pytest.approx(idle)
        sim.run()  # backlog drains; the link goes back to looking idle
        assert net.transfer_time_estimate(
            "a0", "a1", 1 * MB, contended=True
        ) == pytest.approx(uncontended)

    def test_degradation_in_estimate(self, sim):
        """The estimate prices chaos-degraded links (satellite fix: the old
        estimate assumed healthy links, so locality placement kept routing
        over flaky cables)."""
        topo = line_topology(2)
        net = Network(sim, topo)
        healthy = net.transfer_time_estimate("a0", "a2", 8 * MB)
        topo.degrade_link("a0", "a1", 4.0)
        degraded = net.transfer_time_estimate("a0", "a2", 8 * MB)
        assert degraded > healthy
        # and it matches what the simulation actually charges
        p = net.transfer("a0", "a2", 8 * MB)
        sim.run()
        assert p.triggered
        assert sim.now == pytest.approx(degraded)


class TestStatsAccounting:
    def test_blocked_transfer_not_counted_as_delivered(self, sim):
        """Satellite fix: a partition-blocked transfer used to inflate
        bytes_moved/bytes_by_link as if it had been delivered."""
        net = Network(sim, line_topology(2))
        net.partition({"a0"})
        p = net.transfer("a0", "a2", 1000)
        sim.run()
        assert p.value is None
        assert net.stats.blocked_transfers == 1
        assert net.stats.attempted_transfers == 1
        assert net.stats.attempted_bytes == 1000
        assert net.stats.transfers == 0
        assert net.stats.bytes_moved == 0
        assert not net.stats.bytes_by_link

    def test_dropped_message_carries_no_link_bytes(self, sim):
        net = Network(sim, line_topology(2))
        net.partition({"a0"})
        p = net.message("a0", "a2")
        sim.run()
        assert p.value is False
        assert net.stats.messages == 1  # attempted
        assert net.stats.messages_delivered == 0
        assert net.stats.dropped_messages == 1
        assert not net.stats.bytes_by_link


class TestMulticast:
    def test_tree_saves_bytes_vs_unicasts(self):
        """src->hub serializes once for 3 consumers instead of 3 times."""
        nbytes = 4 * MB

        def run_unicasts():
            sim = Simulator()
            net = Network(sim, star_topology(3))
            for i in range(3):
                net.transfer("src", f"c{i}", nbytes)
            sim.run()
            return net

        sim = Simulator()
        net = Network(sim, star_topology(3))
        p = net.multicast("src", ["c0", "c1", "c2"], nbytes)
        sim.run()
        uni = run_unicasts()
        assert p.value == ["c0", "c1", "c2"]
        assert sum(net.stats.bytes_by_link.values()) < sum(
            uni.stats.bytes_by_link.values()
        )
        # shared first hop: 1x instead of 3x
        assert net.stats.bytes_by_link[("hub", "src")] == nbytes
        assert uni.stats.bytes_by_link[("hub", "src")] == 3 * nbytes
        assert net.stats.multicasts == 1
        # unicasts would cross 6 links; the tree crosses 4
        assert net.stats.multicast_bytes_saved == 2 * nbytes

    def test_multicast_estimate_agrees_with_single_dst_transfer(self, sim):
        """A one-consumer multicast degenerates to the unicast route."""
        net = Network(sim, star_topology(2))
        p = net.multicast("src", ["c0"], 8 * MB)
        sim.run()
        assert p.value == ["c0"]
        assert sim.now == pytest.approx(net.transfer_time_estimate("src", "c0", 8 * MB))

    def test_multicast_skips_partitioned_consumers(self, sim):
        net = Network(sim, star_topology(3))
        net.partition({"c1"})
        p = net.multicast("src", ["c0", "c1", "c2"], 1 * MB)
        sim.run()
        assert p.value == ["c0", "c2"]
        assert net.stats.blocked_transfers == 1

    def test_multicast_exact_byte_accounting_chunked(self, sim):
        nbytes = 3 * MB + 7
        net = Network(sim, star_topology(2), chunk_bytes=256 * 1024)
        net.multicast("src", ["c0", "c1"], nbytes)
        sim.run()
        assert net.stats.bytes_by_link[("hub", "src")] == nbytes
        assert net.stats.bytes_by_link[("c0", "hub")] == nbytes
        assert net.stats.bytes_by_link[("c1", "hub")] == nbytes


def _fanout_runtime(**overrides) -> ServerlessRuntime:
    from repro.cluster.cluster import build_serverful

    defaults = dict(
        resolution=ResolutionMode.PULL,
        scheduling=SchedulingPolicy.ROUND_ROBIN,
    )
    defaults.update(overrides)
    return ServerlessRuntime(build_serverful(n_servers=3), RuntimeConfig(**defaults))


class TestFetchDedup:
    N = 4

    def _run_fanout(self, rt) -> int:
        """N concurrent consumers of one object, all pinned to server1."""
        ref = rt.put(b"payload", nbytes=8 * MB)
        outs = [
            rt.submit(
                lambda x: len(x),
                (ref,),
                compute_cost=1e-5,
                pinned_device="server1/cpu",
                name=f"consumer{i}",
            )
            for i in range(self.N)
        ]
        assert rt.get(outs) == [7] * self.N
        return rt.net.stats.transfers

    def test_concurrent_fetches_share_one_transfer(self):
        rt = _fanout_runtime()
        assert self._run_fanout(rt) == 1
        raylet = rt.raylet_for_device("server1/cpu")
        assert raylet.fetches_deduped == self.N - 1

    def test_push_mode_dedups_same_device_wave(self):
        rt = _fanout_runtime(resolution=ResolutionMode.PUSH)
        assert self._run_fanout(rt) == 1

    def test_followers_of_an_aborted_fetch_join_nothing(self):
        """server1's CPU dies 1 ms into a 1 GB fetch: the leader's fetch is
        aborted, and its followers wake up to a miss and retry.  None of them
        joined a fetch that ended, so the sanitizer's fetch registry sees no
        join."""
        rt = _fanout_runtime(sanitizers=("invariants",))
        ref = rt.put(b"payload", nbytes=1024 * MB)
        outs = [
            rt.submit(
                lambda x: len(x), (ref,), compute_cost=1e-5,
                pinned_device="server1/cpu", name=f"consumer{i}",
            )
            for i in range(self.N)
        ]

        def strike():
            yield rt.sim.timeout(1e-3)
            rt.fail_device("server1/cpu")
            yield rt.sim.timeout(5e-3)
            rt.restore_device("server1/cpu")

        rt.sim.process(strike(), name="driver:strike")
        assert rt.get(outs) == [7] * self.N
        assert rt.log.count("task_retry") >= self.N
        assert rt.probe.report().violations == []


class TestMulticastPushes:
    def _run_wave(self, rt) -> ServerlessRuntime:
        ref = rt.put(b"payload", nbytes=8 * MB)
        outs = [
            rt.submit(
                lambda x: len(x),
                (ref,),
                compute_cost=1e-5,
                pinned_device=f"server{i}/cpu",
                name=f"consumer{i}",
            )
            for i in (1, 2)
        ]
        assert rt.get(outs) == [7, 7]
        return rt

    def test_wave_coalesces_into_multicast(self):
        rt = self._run_wave(_fanout_runtime(resolution=ResolutionMode.PUSH))
        assert rt.net.stats.multicasts == 1
        assert rt.net.stats.multicast_bytes_saved > 0
        saved = rt.telemetry.registry.counter(
            "skadi_multicast_bytes_saved_total",
            "bytes multicast trees avoided serializing vs. per-consumer unicasts",
        )
        assert saved.value > 0

    def test_multicast_moves_fewer_link_bytes(self):
        rt = self._run_wave(_fanout_runtime(resolution=ResolutionMode.PUSH))
        edges, unicast_hops = rt.net.multicast_tree(
            "server0/cpu", ["server1/cpu", "server2/cpu"]
        )
        assert len(edges) < unicast_hops
        # the counter is exactly the link crossings that one unicast per
        # consumer would have paid on top of what the tree delivered
        assert rt.net.stats.multicast_bytes_saved == 8 * MB * (
            unicast_hops - len(edges)
        )


class TestContentionAwarePlacement:
    def _placed_device(self, backlog: bool) -> str:
        from repro.cluster.cluster import build_serverful

        rt = ServerlessRuntime(
            build_serverful(n_servers=2, gpus_per_server=1),
            RuntimeConfig(
                resolution=ResolutionMode.PULL,
                scheduling=SchedulingPolicy.LOCALITY,
            ),
        )
        ref = rt.put(b"x" * 64, nbytes=32 * MB)  # lands on server0's CPU store
        # pile backlog onto server0's PCIe link: the local GPU stays the
        # shortest route, but everything queued ahead makes it slow *now*
        for _ in range(4 if backlog else 0):
            rt.net.transfer("server0/cpu", "server0/gpu0", 256 * MB)
        out = rt.submit(
            lambda x: len(x),
            (ref,),
            compute_cost=1e-5,
            supported_kinds=frozenset({DeviceKind.GPU}),
            name="gpu-task",
        )
        rt.get(out)
        return rt.timelines[-1].device_id

    def test_steers_off_hot_link(self):
        # idle fabric: the local GPU is nearest
        assert self._placed_device(backlog=False) == "server0/gpu0"
        # the queued PCIe bytes make the remote GPU cheaper
        assert self._placed_device(backlog=True) == "server1/gpu0"


# -- the mover across commits and under faults ---------------------------------


def assert_data_plane_drained(rt: ServerlessRuntime) -> None:
    """Once ``rt.sim.run()`` returns, nothing is left mid-move (the data-plane
    brick of the quiescence invariant, ROADMAP item 4)."""
    assert not rt.data.pending_pushes
    assert all(not raylet._inflight_fetches for raylet in rt._raylets)
    assert all(not ctx.pulls for ctx in rt._ctxs.values())
    # an arrival is kept only for an attempt on its device still resolving on
    # it or, once it fired, for one dispatched there that has yet to take it
    waiting = {
        (ref.object_id, attempt.device.device_id, attempt.state)
        for ctx in rt._ctxs.values()
        for attempt in (ctx, ctx.twin)
        if attempt is not None
        and attempt.state in (TaskState.SCHEDULED, TaskState.RESOLVING)
        and attempt.proc is not None
        and not attempt.proc.triggered
        for ref in attempt.spec.dependencies
    }
    stale = sorted(
        key
        for key, sig in rt.data.arrivals.items()
        if (*key, TaskState.RESOLVING) not in waiting
        and not (sig.triggered and (*key, TaskState.SCHEDULED) in waiting)
    )
    assert not stale, f"arrivals outlived the attempts waiting for them: {stale}"
    assert not rt.data.waiting, f"tasks still parked: {sorted(rt.data.waiting)}"
    assert not rt.net.flows, f"flows still on the fabric: {[f.name for f in rt.net.flows]}"
    assert not rt.net._admitted, f"admitted bytes never started: {rt.net._admitted}"


class TestCrossCommitWitness:
    """One run through every protocol arm — one-leg and multi-leg push waves
    (a leg leads or joins), pull lead + joins, the Gen-1 sibling fast path and
    the zero-hop case — pinned across commits: every log record, protocol
    event, span, metric and fabric counter must replay exactly."""

    CONSUMER_DEVICES = (
        "server1/cpu", "server1/cpu", "gpucard0/gpu0", "gpucard1/gpu0",
        "fpgacard0/fpga0", "fpgacard0/fpga1", "server0/cpu",
    )
    # recorded at the commit before the data plane left ServerlessRuntime
    # (PR 15), identical under two PYTHONHASHSEEDs; 152 (push) / 162 (pull)
    # protocol events each
    # Re-recorded when a task's phases stopped being child spans (the Chrome
    # export draws them): only span ids moved, every other span is equal.
    # The PUSH cells in which a push lands were re-recorded when a landing
    # started to send a ``land:`` message that the attempt it fed receives:
    # only the probe trace moved (one ``land`` event per landing, one receive).
    # All four were re-recorded when transfers became byte-fair flows: the
    # consumers' fetches and pushes share the producers' links, which now
    # split by bytes rather than chunk by chunk, so spans, probe event times,
    # busy seconds and (under PULL) the final clock moved; the log signature
    # did not.
    # The PUSH cells were re-recorded when push became one protocol (a wave of
    # one device replaced the unicast): the waves' ``mcast:<oid>`` spans, which
    # had no parent, became ``push:<oid>`` under the first consumer's task span
    # on its device, every push span carries ``consumers``, and the probe sites
    # ``mcast:<oid>`` / ``push:<oid>-><dev>`` became ``push:<oid>``.  The log,
    # metrics, clock, bytes, transfers and messages did not move.
    # A cell pinned by one string has not moved since; a cell that moves is
    # re-pinned per component, so the next move names what it moved.
    # The PUSH cells were re-pinned per component when a commit started to
    # signal the waiting readers whose device already holds the object instead
    # of launching a wave for them: ``late``'s wave no longer counts its
    # consumer on server0/cpu (``push_start`` targets 6 -> 5), and the three
    # outputs committed on server1/cpu, the tail's device, launch no wave and
    # emit no ``push_start``.  Only the probe trace moved.
    PINNED = {
        (ResolutionMode.PUSH, Generation.GEN1): {
            "log": "97d170e1550e", "probe": "d4f88232ec20", "spans": "17526afa5b21",
            "metrics": "cb0ee46500aa", "clock": "046d13cdb165", "bytes": "2ebba8e1aad7",
            "messages": "4d134bc07221",
        },
        (ResolutionMode.PUSH, Generation.GEN2): {
            "log": "97d170e1550e", "probe": "907b0bbc7b41", "spans": "a3e09a337c49",
            "metrics": "e5a2049a58e0", "clock": "046d13cdb165", "bytes": "2ebba8e1aad7",
            "messages": "91032ad7bbcb",
        },
        (ResolutionMode.PULL, Generation.GEN1): "1814f6ef63ff",
        (ResolutionMode.PULL, Generation.GEN2): "d0f82d3193bf",
    }

    @staticmethod
    def run(resolution, generation) -> ServerlessRuntime:
        from repro.cluster.cluster import build_physical_disagg

        rt = ServerlessRuntime(
            build_physical_disagg(),
            RuntimeConfig(
                resolution=resolution,
                generation=generation,
                sanitizers=("trace", "invariants", "hb"),
            ),
        )
        early = rt.put(b"payload", nbytes=8 * MB)
        late = rt.submit(
            lambda: b"abc", compute_cost=1e-3, output_nbytes=4 * MB,
            pinned_device="server0/cpu",
        )

        def consumer(device_id):
            return rt.submit(
                lambda x, y: len(x) + len(y),
                (early, late),
                compute_cost=1e-5,
                supported_kinds=ANY_COMPUTE_KIND,
                pinned_device=device_id,
            )

        outs = [consumer(dev) for dev in TestCrossCommitWitness.CONSUMER_DEVICES]
        rt.run(until=rt.sim.now + 2e-4)
        outs.append(consumer("server1/cpu"))  # joins a fetch already in flight
        tail = rt.submit(
            lambda *xs: sum(xs),
            tuple(outs),
            compute_cost=1e-5,
            supported_kinds=ANY_COMPUTE_KIND,
            pinned_device="server1/cpu",
        )
        assert rt.get(tail) == 80
        return rt

    @staticmethod
    def digest(
        rt: ServerlessRuntime, pinned: Union[str, Dict[str, str]]
    ) -> Union[str, Dict[str, str]]:
        """The run in the form ``pinned`` has: one hash of every component, or
        one hash per component."""
        spans = [
            (
                s.span_id, s.parent_id, s.name, s.category, s.start, s.end,
                s.node, s.device, sorted(s.attrs.items()),
            )
            for s in rt.telemetry.tracer.spans
        ]
        metrics = sorted(
            (name, value)
            for name, value in rt.metrics_summary().items()
            # retired in PR 15 (read by nothing); excluded so the pin spans it
            if not name.startswith("skadi_fetch_dedup_bytes_saved_total")
        )
        parts = {
            "log": rt.log.signature(), "probe": rt.probe.trace.signature(), "spans": spans,
            "metrics": metrics, "clock": rt.sim.now,
            "bytes": (rt.net.stats.bytes_moved, rt.net.stats.transfers),
            "messages": rt.control_messages,
        }
        if isinstance(pinned, str):
            log, probe, spans, metrics, clock, (moved, transfers), messages = parts.values()
            return sha12((log, probe, spans, metrics, clock, moved, transfers, messages))
        return {name: sha12(value) for name, value in parts.items()}

    @pytest.mark.parametrize(
        "resolution,generation", sorted(PINNED, key=lambda k: (k[0].name, k[1].name))
    )
    def test_every_protocol_arm_replays_exactly(self, resolution, generation):
        rt = self.run(resolution, generation)
        pinned = self.PINNED[resolution, generation]
        assert self.digest(rt, pinned) == pinned
        rt.sim.run()
        assert_data_plane_drained(rt)


BOTH_MODES = pytest.mark.parametrize(
    "mode", [ResolutionMode.PUSH, ResolutionMode.PULL], ids=lambda m: m.name
)


class TestPushMissIsAMiss:
    """A transfer that does not land is a miss in both protocols: the waiting
    attempt retries (and gives up after ``max_retries``) — it never runs on
    bytes that did not cross, dies of a ``KeyError``, or waits forever."""

    @staticmethod
    def _serverful(mode, n_servers=3, **overrides) -> ServerlessRuntime:
        from repro.cluster.cluster import build_serverful

        return ServerlessRuntime(
            build_serverful(n_servers=n_servers),
            RuntimeConfig(resolution=mode, **overrides),
        )

    @BOTH_MODES
    def test_partitioned_transfer_never_lands(self, mode):
        rt = self._serverful(mode, max_retries=3)
        produced = rt.submit(
            lambda: b"x" * 10, compute_cost=1e-3, output_nbytes=4 * MB,
            pinned_device="server1/cpu",
        )
        consumer = rt.submit(lambda x: len(x), (produced,), pinned_device="server2/cpu")
        rt.run(until=5e-4)  # the leases are out; the producer is still computing
        rt.net.partition({"server1"})  # never heals
        with pytest.raises(TaskError, match="gave up after 3 retries"):
            rt.get(consumer)
        rt.sim.run()
        assert not rt._store_of_device["server2/cpu"].contains(produced.object_id)
        if mode is ResolutionMode.PUSH:
            # one blocked push per attempt (a pull's request RPC is what the
            # partition eats, before any bytes are offered to the fabric)
            assert rt.net.stats.blocked_transfers == 4
        assert_data_plane_drained(rt)

    @BOTH_MODES
    def test_partition_cuts_one_leg_of_a_multicast_wave(self, mode):
        rt = self._serverful(mode, n_servers=4, max_retries=3)
        produced = rt.submit(
            lambda: b"x" * 10, compute_cost=1e-3, output_nbytes=4 * MB,
            pinned_device="server1/cpu",
        )
        consumers = [
            rt.submit(lambda x: len(x), (produced,), pinned_device=f"server{i}/cpu")
            for i in (0, 2, 3)
        ]
        rt.run(until=5e-4)
        rt.net.partition({"server3"})
        assert rt.get(consumers[:2]) == [10, 10]
        with pytest.raises(TaskError, match="gave up after 3 retries"):
            rt.get(consumers[2])
        rt.sim.run()
        assert not rt._store_of_device["server3/cpu"].contains(produced.object_id)
        if mode is ResolutionMode.PUSH:
            assert rt.net.stats.multicasts == 1
            assert rt.net.stats.blocked_transfers >= 1
        assert_data_plane_drained(rt)

    @BOTH_MODES
    def test_source_crash_mid_transfer_is_recovered(self, mode):
        from repro.chaos import ChaosMonkey, ChaosSchedule

        rt = self._serverful(mode, max_retries=10, retry_backoff_base=2e-3)
        ChaosMonkey(
            rt, ChaosSchedule().crash_node(at=5e-3, node_id="server1", restart_after=5e-3)
        ).arm()
        produced = rt.submit(
            lambda: b"x" * 10, compute_cost=1e-3, output_nbytes=256 * MB,
            pinned_device="server1/cpu",
        )
        consumer = rt.submit(lambda x: len(x), (produced,), pinned_device="server2/cpu")
        assert rt.get(consumer) == 10  # the crash lands while the bytes are in flight
        assert rt.log.count("lineage_replay") == 1
        rt.sim.run()
        assert_data_plane_drained(rt)

    @BOTH_MODES
    def test_destination_refusal_fails_after_max_retries(self, mode):
        from repro.cluster.cluster import build_physical_disagg

        rt = ServerlessRuntime(
            build_physical_disagg(), RuntimeConfig(resolution=mode, max_retries=3)
        )
        store = rt._store_of_device["server1/cpu"]
        store.put("filler", b"", store.device.spec.memory_bytes - 1 * MB)
        rt.failures.fail_blade("memblade0", "killed by driver", announce=True)
        arg = rt.put(b"x" * 10, nbytes=4 * MB)
        consumer = rt.submit(lambda x: len(x), (arg,), pinned_device="server1/cpu")
        rt.sim.run()  # nowhere to spill: every put of the argument is refused
        assert rt.task_state(consumer) is TaskState.FAILED
        assert rt.log.count("task_retry") == 3
        assert not store.contains(arg.object_id)
        assert_data_plane_drained(rt)

    @BOTH_MODES
    def test_subscriber_between_attempts_when_its_argument_commits(self, mode):
        """The consumer's node crashes while the producer still computes: the
        commit finds the subscriber backing off, holding no device to push
        to, and its retry picks the object up itself."""
        from repro.chaos import ChaosMonkey, ChaosSchedule

        rt = self._serverful(mode, max_retries=10, retry_backoff_base=2e-3)
        ChaosMonkey(
            rt, ChaosSchedule().crash_node(at=1e-3, node_id="server2", restart_after=8e-3)
        ).arm()
        produced = rt.submit(
            lambda: b"x" * 10, compute_cost=5e-3, output_nbytes=4 * MB,
            pinned_device="server1/cpu",
        )
        consumer = rt.submit(lambda x: len(x), (produced,), pinned_device="server2/cpu")
        assert rt.get(consumer) == 10
        rt.sim.run()
        assert_data_plane_drained(rt)

    @BOTH_MODES
    def test_directory_lost_mid_transfer_is_a_miss(self, mode):
        """An unreplicated head dies with the bytes in flight: the directory
        is gone when they land, which fails the task like every other open
        one — it does not escape the simulator as a ``KeyError``."""
        from repro.chaos import ChaosMonkey, ChaosSchedule

        rt = self._serverful(mode, max_retries=3)
        ChaosMonkey(rt, ChaosSchedule().fail_gcs(at=8e-3)).arm()
        produced = rt.submit(
            lambda: b"x" * 10, compute_cost=1e-3, output_nbytes=256 * MB,
            pinned_device="server1/cpu",
        )
        consumer = rt.submit(lambda x: len(x), (produced,), pinned_device="server2/cpu")
        with pytest.raises(TaskError, match="control plane lost"):
            rt.get(consumer)
        rt.sim.run()
        assert not rt._store_of_device["server2/cpu"].contains(produced.object_id)
        assert_data_plane_drained(rt)


def test_an_arrival_lives_only_as_long_as_its_copy():
    """A device that lost its copy (died, then came back empty) is pushed the
    object again: the arrival signal of the first copy must not announce it.
    Before the fix every attempt ran against a store without the argument and
    the task gave up after its retries with "vanished before execution"."""
    from repro.cluster.cluster import build_physical_disagg

    rt = ServerlessRuntime(build_physical_disagg(), RuntimeConfig())
    gpu = dict(supported_kinds=frozenset({DeviceKind.GPU}), pinned_device="gpucard0/gpu0")
    a = rt.submit(lambda: 41, compute_cost=1e-3, output_nbytes=MB, pinned_device="server0/cpu")
    assert rt.get(rt.submit(lambda x: x + 1, (a,), compute_cost=1e-3, **gpu)) == 42
    rt.fail_device("gpucard0/gpu0")
    rt.restore_device("gpucard0/gpu0")
    assert rt.get(rt.submit(lambda x: x + 2, (a,), compute_cost=1e-3, **gpu)) == 43
    assert rt.net.stats.bytes_moved == 2 * MB  # one push per life of the GPU's copy
    assert rt.tasks_retried == 0
    rt.sim.run()
    assert_data_plane_drained(rt)


@pytest.mark.parametrize("producer", ["commits", "raises"])
def test_an_arrival_goes_with_the_last_attempt_waiting_for_it(producer):
    """A consumer cancelled while it waits for a push leaves no arrival
    behind, whether its producer later commits or raises: the signal nobody
    waits for any more goes with the attempt.  Before the fix the un-triggered
    signal for ``(object, server1/cpu)`` stayed for good (and, when the
    producer raised, so did the cancelled consumer's subscription)."""
    from repro.cluster.cluster import build_serverful

    def produce():
        if producer == "raises":
            raise ValueError("no data")
        return b"x" * 10

    rt = ServerlessRuntime(
        build_serverful(n_servers=3), RuntimeConfig(resolution=ResolutionMode.PUSH)
    )
    data = rt.submit(produce, compute_cost=5e-3, output_nbytes=MB, pinned_device="server0/cpu")
    consumer = rt.submit(lambda x: len(x), (data,), pinned_device="server1/cpu")
    rt.run(until=1e-3)
    assert not rt.data.arrivals[data.object_id, "server1/cpu"].triggered  # it waits
    assert rt.cancel(consumer)
    rt.sim.run()
    assert rt.task_state(data) is (
        TaskState.FINISHED if producer == "commits" else TaskState.FAILED
    )
    assert (data.object_id, "server1/cpu") not in rt.data.arrivals
    assert not rt._store_of_device["server1/cpu"].contains(data.object_id)
    assert_data_plane_drained(rt)


# -- a reader whose device already holds the copy ------------------------------


@pytest.mark.parametrize("remote_reader", [False, True], ids=["local", "local+remote"])
def test_a_commit_signals_the_reader_on_its_own_device(monkeypatch, remote_reader):
    """The producer and a reader share server0/cpu: the reader is signalled
    inside the producer's ``_finish``, as a dispatch finds a held copy, and
    no wave carries the object to the device that made it.  A second reader
    on server1/cpu still gets a one-leg wave landing at the same time and
    with the same bytes as before the rule."""
    rt = _fanout_runtime(resolution=ResolutionMode.PUSH, sanitizers=("trace", "invariants", "hb"))
    x = rt.submit(
        lambda: b"x" * 10, compute_cost=1e-3, output_nbytes=MB, pinned_device="server0/cpu"
    )
    readers = ["server0/cpu"] + (["server1/cpu"] if remote_reader else [])
    outs = [
        rt.submit(lambda v: len(v), (x,), compute_cost=1e-3, pinned_device=device)
        for device in readers
    ]
    signalled_at_finish = []
    finish = rt._finish

    def spy_finish(ctx, main, device, committed):
        # the reader's arrival (it resolves already); signalled, it wakes the
        # reader, which lets go of it
        arrival = rt.data.arrivals.get((x.object_id, "server0/cpu"))
        finish(ctx, main, device, committed)
        if ctx.spec.task_id == x.task_id:
            signalled_at_finish.append(arrival is not None and arrival.triggered)

    queued = []
    queue_push = rt.data._queue_push

    def spy_queue(oid, ctx):
        queued.append((oid, ctx.device.device_id))
        queue_push(oid, ctx)

    monkeypatch.setattr(rt, "_finish", spy_finish)
    monkeypatch.setattr(rt.data, "_queue_push", spy_queue)
    assert rt.get(outs) == [10] * len(readers)
    rt.sim.run()
    assert signalled_at_finish == [True]
    site = f"push:{x.object_id}"
    waves = [s for s in rt.telemetry.tracer.spans if s.name == site]
    if not remote_reader:
        assert queued == []  # ``pending_pushes`` never held the object
        assert not any(e.site == site for e in rt.probe.trace)
        assert waves == []
        assert rt.net.stats.bytes_moved == 0
    else:
        assert queued == [(x.object_id, "server1/cpu")]
        [wave] = waves
        assert (wave.device, wave.attrs["consumers"]) == ("server1/cpu", 1)
        assert (rt.net.stats.bytes_moved, rt.net.stats.transfers) == (MB, 1)
        assert rt.timeline_of(outs[1]).inputs_ready == wave.end == 0.00120765625
    assert rt.timeline_of(outs[0]).inputs_ready == rt.timeline_of(x).finished
    assert rt.probe.report().violations == []
    assert_data_plane_drained(rt)


def test_a_same_device_chain_stays_within_its_event_budget():
    """200 tasks in a chain on one device, each reading the one before: no
    wave is launched, so a task costs 9 kernel events (11 while every commit
    still queued a push and started a wave to its own device)."""
    rt = _fanout_runtime(resolution=ResolutionMode.PUSH)
    n = 200
    ref = rt.submit(lambda: 0, compute_cost=1e-5, pinned_device="server0/cpu")
    for _ in range(n - 1):
        ref = rt.submit(lambda v: v + 1, (ref,), compute_cost=1e-5, pinned_device="server0/cpu")
    assert rt.get(ref) == n - 1
    rt.sim.run()
    assert rt.sim.events_executed() <= 9.1 * n
    assert rt.net.stats.bytes_moved == 0


def test_a_replay_on_the_readers_device_ends_its_wait_at_the_commit():
    """The reader's input was spilled to a blade and is on its way back over
    the fabric when the blade dies; the replay recomputes it on the reader's
    own device.  The reader goes on at the replay's commit instead of riding
    the in-flight push of the lost copy to its end, two seconds later."""
    from repro.cluster.cluster import build_physical_disagg

    cluster = build_physical_disagg(n_servers=1, n_gpu_cards=0, n_fpga_cards=0, n_mem_blades=1)
    rt = ServerlessRuntime(cluster, RuntimeConfig(resolution=ResolutionMode.PUSH))
    # three 24 GB outputs overflow the 64 GB head CPU store: the oldest spills
    a, b, c = (
        rt.submit(lambda t=tag: t, compute_cost=1e-3, output_nbytes=24 * GB) for tag in "ABC"
    )
    assert rt.get([a, b, c]) == ["A", "B", "C"]
    assert rt.ownership.locations(a.object_id) == ["memblade0"]
    reader = rt.submit(lambda v: v * 2, (a,), compute_cost=1e-3)
    rt.run(until=rt.sim.now + 1e-4)
    rt.failures.fail_blade("memblade0", "killed by driver", announce=True)
    rt.free([b, c])  # make room: the replay must land in live memory
    assert rt.get(reader) == "AA"
    rt.sim.run()
    replay, waiting = rt.timeline_of(a), rt.timeline_of(reader)
    assert replay.device_id == waiting.device_id == "server0/cpu"
    [push] = [s for s in rt.telemetry.tracer.spans if s.name == f"push:{a.object_id}"]
    assert waiting.inputs_ready == replay.finished < push.end
    assert rt.sim.now == push.end
    assert_data_plane_drained(rt)
