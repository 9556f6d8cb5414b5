"""Tests for topology routing and the network transfer model."""

from __future__ import annotations

import pytest

from repro.cluster.hardware import MB
from repro.cluster.network import CONTROL_MSG_BYTES, Network
from repro.cluster.simtime import Simulator
from repro.cluster.topology import (
    FABRIC_LINK,
    NIC_LINK,
    ONCHIP_LINK,
    PCIE_LINK,
    LinkSpec,
    Topology,
)


def line_topology() -> Topology:
    topo = Topology()
    topo.add_link("a", "b", LinkSpec(latency=1e-6, bandwidth=1e9))
    topo.add_link("b", "c", LinkSpec(latency=2e-6, bandwidth=2e9))
    return topo


class TestTopology:
    def test_route_is_hop_list(self):
        topo = line_topology()
        assert topo.route("a", "c") == [("a", "b"), ("b", "c")]
        assert topo.route("c", "a") == [("c", "b"), ("b", "a")]

    def test_route_to_self_is_empty(self):
        topo = line_topology()
        assert topo.route("a", "a") == []

    def test_shortest_path_prefers_low_latency(self):
        topo = line_topology()
        # add a slow shortcut; Dijkstra must avoid it
        topo.add_link("a", "c", LinkSpec(latency=1e-2, bandwidth=1e9))
        assert topo.route("a", "c") == [("a", "b"), ("b", "c")]

    def test_direct_link_wins_when_faster(self):
        topo = line_topology()
        topo.add_link("a", "c", LinkSpec(latency=1e-9, bandwidth=1e9))
        assert topo.route("a", "c") == [("a", "c")]

    def test_unknown_endpoint_raises(self):
        topo = line_topology()
        with pytest.raises(KeyError):
            topo.route("a", "zzz")

    def test_disconnected_raises(self):
        topo = line_topology()
        topo.add_endpoint("island")
        with pytest.raises(KeyError, match="no path"):
            topo.route("a", "island")

    def test_self_link_rejected(self):
        topo = Topology()
        with pytest.raises(ValueError):
            topo.add_link("x", "x", NIC_LINK)

    def test_path_metrics(self):
        topo = line_topology()
        assert topo.path_latency("a", "c") == pytest.approx(3e-6)
        assert topo.bottleneck_bandwidth("a", "c") == 1e9
        assert topo.hop_count("a", "c") == 2

    def test_min_link_latency_follows_new_links(self):
        topo = line_topology()
        assert topo.min_link_latency() == 1e-6
        topo.add_link("c", "d", LinkSpec(latency=1e-9, bandwidth=1e9))
        assert topo.min_link_latency() == 1e-9
        topo.degrade_link("c", "d", 4.0)  # a degraded hop is never faster
        assert topo.min_link_latency() == 1e-9
        assert Topology().min_link_latency() == 0.0

    def test_link_catalog_ordering(self):
        # sanity: on-chip is fastest, NIC is slowest of the fast links
        assert ONCHIP_LINK.latency < PCIE_LINK.latency < NIC_LINK.latency
        assert FABRIC_LINK.latency < NIC_LINK.latency

    def test_transfer_time_formula(self):
        link = LinkSpec(latency=1e-3, bandwidth=1e6)
        assert link.transfer_time(1_000_000) == pytest.approx(1.001)
        with pytest.raises(ValueError):
            link.transfer_time(-1)


class TestNetwork:
    def test_transfer_time_matches_estimate_uncontended(self, sim):
        topo = line_topology()
        net = Network(sim, topo)
        p = net.transfer("a", "c", 8 * MB)
        sim.run()
        assert p.triggered
        assert sim.now == pytest.approx(net.transfer_time_estimate("a", "c", 8 * MB))

    def test_zero_hop_transfer_completes(self, sim):
        net = Network(sim, line_topology())
        p = net.transfer("a", "a", 123)
        sim.run()
        assert p.triggered and p.value == 123
        assert sim.now == 0.0

    def test_contention_serializes_on_shared_link(self, sim):
        topo = Topology()
        topo.add_link("a", "b", LinkSpec(latency=0.0, bandwidth=100.0))
        net = Network(sim, topo)
        net.transfer("a", "b", 100)  # 1 second each
        net.transfer("a", "b", 100)
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_disjoint_links_run_in_parallel(self, sim):
        topo = Topology()
        topo.add_link("a", "b", LinkSpec(latency=0.0, bandwidth=100.0))
        topo.add_link("c", "d", LinkSpec(latency=0.0, bandwidth=100.0))
        net = Network(sim, topo)
        net.transfer("a", "b", 100)
        net.transfer("c", "d", 100)
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_stats_accumulate(self, sim):
        net = Network(sim, line_topology())
        net.transfer("a", "c", 1000)
        net.message("a", "b")
        sim.run()
        assert net.stats.transfers == 1
        assert net.stats.messages == 1
        assert net.stats.bytes_moved == 1000
        # per-link accounting includes the control message frame
        key = tuple(sorted(("a", "b")))
        assert net.stats.bytes_by_link[key] == 1000 + CONTROL_MSG_BYTES

    def test_rpc_is_two_messages(self, sim):
        net = Network(sim, line_topology())
        p = net.rpc("a", "c")
        sim.run()
        assert p.triggered
        assert net.stats.messages == 2
        one_way = sum(
            l.transfer_time(CONTROL_MSG_BYTES)
            for l in (line_topology().link("a", "b"), line_topology().link("b", "c"))
        )
        assert sim.now == pytest.approx(2 * one_way)

    def test_negative_transfer_rejected(self, sim):
        net = Network(sim, line_topology())
        with pytest.raises(ValueError):
            net.transfer("a", "b", -5)


class TestChaosHooks:
    """Fault-injection hooks: partitions, seeded loss, degraded links."""

    def test_partition_drops_cross_group_messages(self, sim):
        net = Network(sim, line_topology())
        net.partition({"a"})
        p = net.message("a", "c")
        sim.run()
        assert p.value is False  # dropped, not delivered
        assert net.stats.dropped_messages == 1

    def test_partition_same_group_unaffected(self, sim):
        net = Network(sim, line_topology())
        net.partition({"a"})  # b and c share the implicit remainder group
        p = net.message("b", "c")
        sim.run()
        assert p.value is True
        assert net.stats.dropped_messages == 0

    def test_heal_restores_delivery(self, sim):
        net = Network(sim, line_topology())
        net.partition({"a"})
        assert net.partitioned
        net.heal_partition()
        assert not net.partitioned
        p = net.message("a", "c")
        sim.run()
        assert p.value is True

    def test_partition_blocks_transfers(self, sim):
        net = Network(sim, line_topology())
        net.partition({"a"})
        p = net.transfer("a", "c", 1000)
        sim.run()
        assert p.value is None  # blocked: caller sees a failed fetch
        assert net.stats.blocked_transfers == 1
        assert sim.now > 0.0  # the doomed attempt still burned wire time

    def test_rpc_fails_if_either_leg_dropped(self, sim):
        net = Network(sim, line_topology())
        net.partition({"c"})
        p = net.rpc("a", "c")
        sim.run()
        assert p.value is False

    def test_message_loss_is_seed_reproducible(self):
        def drop_pattern(seed):
            sim = Simulator()
            net = Network(sim, line_topology())
            net.set_message_loss(0.5, seed=seed)
            procs = [net.message("a", "c", label=f"m{i}") for i in range(40)]
            sim.run()
            return [p.value for p in procs]

        first = drop_pattern(7)
        assert drop_pattern(7) == first  # identical seed, identical drops
        assert drop_pattern(8) != first
        assert False in first and True in first  # 0.5 actually drops some

    def test_loss_rate_validated(self, sim):
        net = Network(sim, line_topology())
        with pytest.raises(ValueError):
            net.set_message_loss(1.5)
        with pytest.raises(ValueError):
            net.set_message_loss(-0.1)

    def test_degraded_link_slows_transfer_by_factor(self):
        def timed(factor):
            sim = Simulator()
            topo = line_topology()
            if factor != 1.0:
                topo.degrade_link("a", "b", factor)
            net = Network(sim, topo)
            net.transfer("a", "b", 8 * MB)
            sim.run()
            return sim.now

        assert timed(4.0) == pytest.approx(4.0 * timed(1.0))

    def test_degradation_does_not_reroute(self):
        topo = line_topology()
        topo.degrade_link("a", "b", 1000.0)
        # routing still uses healthy latencies: tables lag flaky cables
        assert topo.route("a", "c") == [("a", "b"), ("b", "c")]
        assert topo.degradation("a", "b") == 1000.0

    def test_restore_link_clears_degradation(self):
        topo = line_topology()
        topo.degrade_link("a", "b", 5.0)
        topo.restore_link("a", "b")
        assert topo.degradation("a", "b") == 1.0
        # factor exactly 1.0 is also a restore
        topo.degrade_link("a", "b", 3.0)
        topo.degrade_link("a", "b", 1.0)
        assert topo.degradation("a", "b") == 1.0

    def test_degrade_validates(self):
        topo = line_topology()
        with pytest.raises(ValueError):
            topo.degrade_link("a", "b", 0.5)
        with pytest.raises(KeyError):
            topo.degrade_link("a", "zzz", 2.0)


class TestControlFrames:
    """A frame is priced at send and is one calendar entry: it lands at the
    hop-by-hop sum of its hop times, a dropped one fires ``False`` after its
    first hop, a zero-hop one at this instant in send order."""

    @staticmethod
    def hop_times(topo, factors=(1.0, 1.0)):
        return [
            factor * topo.link(a, b).transfer_time(CONTROL_MSG_BYTES)
            for factor, (a, b) in zip(factors, topo.route("a", "c"))
        ]

    @staticmethod
    def landed(sim, frame):
        got = []

        def waiter():
            got.append(((yield frame), sim.now))

        sim.process(waiter())
        return got

    def test_a_delivered_two_hop_frame_dispatches_one_event(self, sim):
        net = Network(sim, line_topology())
        frame = net.message("a", "c")
        assert sim.pending_events() == 1
        sim.run()
        assert frame.triggered and frame.value is True
        assert sim.events_executed() == 1
        first, second = self.hop_times(net.topology)
        assert sim.now == (0.0 + first) + second  # summed hop by hop
        assert net.stats.bytes_by_link == {("a", "b"): CONTROL_MSG_BYTES, ("b", "c"): CONTROL_MSG_BYTES}
        assert net.stats.messages_delivered == 1

    def test_every_hop_is_booked_when_the_frame_lands(self, sim):
        net = Network(sim, line_topology())
        net.message("a", "c")
        first, _ = self.hop_times(net.topology)
        sim.run(until=first * 1.5)  # past the first hop
        assert net.stats.bytes_by_link == {} and net.stats.messages_delivered == 0
        sim.run()
        assert len(net.stats.bytes_by_link) == 2

    def test_a_degraded_hop_is_priced_at_send(self, sim):
        net = Network(sim, line_topology())
        net.degrade_link("b", "c", 4.0)
        slow = self.landed(sim, net.message("a", "c"))
        net.restore_link("b", "c")  # in flight: the frame keeps its price
        sim.run()
        first, second = self.hop_times(net.topology, (1.0, 4.0))
        assert slow == [(True, (0.0 + first) + second)]
        start = sim.now
        healthy = self.landed(sim, net.message("a", "c"))
        net.degrade_link("a", "b", 10.0)  # after send: not this frame's
        sim.run()
        first, second = self.hop_times(net.topology)
        assert healthy == [(True, (start + first) + second)]
        assert net.message_time_estimate("a", "c") == 10.0 * first + second

    def test_a_dropped_frame_fires_after_its_first_hop(self, sim):
        net = Network(sim, line_topology())
        net.set_message_loss(1.0)
        net.degrade_link("a", "b", 3.0)  # a drop burns the healthy first hop
        dropped = self.landed(sim, net.message("a", "c"))
        sim.run()
        first = net.topology.link("a", "b").transfer_time(CONTROL_MSG_BYTES)
        assert dropped == [(False, first)] and sim.events_executed() == 2  # the timer, the waiter
        assert net.stats.dropped_messages == 1 and net.stats.bytes_by_link == {}

    def test_zero_hop_frames_keep_fifo_order(self, sim):
        net = Network(sim, line_topology())
        order = []

        def sender(tag, dropped):
            net.set_message_loss(1.0 if dropped else 0.0)
            frame = net.message("b", "b")
            order.append((tag, "sent"))
            order.append((tag, (yield frame), sim.now))

        for tag, dropped in (("x", False), ("y", True), ("z", False)):
            sim.process(sender(tag, dropped))
        sim.schedule(0.0, order.append, "between")
        sim.run()
        assert order == [
            ("x", "sent"), ("y", "sent"), ("z", "sent"), "between",
            ("x", True, 0.0), ("y", False, 0.0), ("z", True, 0.0),
        ]
        assert net.stats.messages_delivered == 2 and net.stats.dropped_messages == 1

    def test_a_frame_follows_a_new_link(self, sim):
        topo = line_topology()
        net = Network(sim, topo)
        net.message("a", "c")
        topo.add_link("a", "c", LinkSpec(latency=1e-9, bandwidth=1e9))  # a shortcut
        net.message("a", "c")
        sim.run()
        assert net.stats.bytes_by_link[("a", "c")] == CONTROL_MSG_BYTES
