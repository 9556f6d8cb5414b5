"""Tests for cluster builders and the durable storage model."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import (
    build_logical_disagg,
    build_serverful,
    build_tightly_coupled,
)
from repro.cluster.durable import DurableStore
from repro.cluster.hardware import CPU_SERVER_SPEC, DPU_SPEC, GPU_SPEC, MB, Device, DeviceKind
from repro.cluster.node import Node, NodeKind


class TestServerful:
    def test_servers_and_switch(self):
        cluster = build_serverful(n_servers=3)
        assert len(cluster.nodes_of_kind(NodeKind.SERVER)) == 3
        for node in cluster.nodes.values():
            assert node.attachment_device.kind == DeviceKind.CPU
            assert cluster.topology.route(
                node.attachment_endpoint, cluster.switch_id
            ) == [(node.attachment_endpoint, cluster.switch_id)]

    def test_local_gpus_attach_via_pcie(self):
        cluster = build_serverful(n_servers=1, gpus_per_server=2)
        gpus = cluster.devices_of_kind(DeviceKind.GPU)
        assert len(gpus) == 2
        cpu = cluster.node("server0").first_of_kind(DeviceKind.CPU)
        for gpu in gpus:
            assert cluster.topology.hop_count(cpu.device_id, gpu.device_id) == 1

    def test_needs_at_least_one_server(self):
        with pytest.raises(ValueError):
            build_serverful(n_servers=0)


class TestLogicalDisagg:
    def test_pools_exist(self):
        cluster = build_logical_disagg(n_compute=4, n_storage=2)
        names = sorted(cluster.nodes)
        assert sum(n.startswith("compute") for n in names) == 4
        assert sum(n.startswith("storage") for n in names) == 2

    def test_storage_nodes_have_more_memory(self):
        cluster = build_logical_disagg()
        compute = cluster.node("compute0").total_memory
        storage = cluster.node("storage0").total_memory
        assert storage > compute


class TestPhysicalDisagg:
    def test_cards_are_dpu_fronted(self, phys_cluster):
        cards = phys_cluster.nodes_of_kind(NodeKind.DISAGG_DEVICE)
        assert cards
        for card in cards:
            assert card.attachment_device.kind == DeviceKind.DPU
            assert card.dominant_device.kind != DeviceKind.DPU

    def test_companion_traffic_routes_through_dpu(self, phys_cluster):
        fpga = phys_cluster.devices_of_kind(DeviceKind.FPGA)[0]
        card = phys_cluster.node_of_device(fpga.device_id)
        dpu = card.first_of_kind(DeviceKind.DPU)
        route = phys_cluster.topology.route(fpga.device_id, phys_cluster.switch_id)
        assert route[0] == (fpga.device_id, dpu.device_id)

    def test_two_fpgas_on_one_card_connect_via_dpu(self, phys_cluster):
        card = next(
            n
            for n in phys_cluster.nodes_of_kind(NodeKind.DISAGG_DEVICE)
            if len(n.devices_of_kind(DeviceKind.FPGA)) == 2
        )
        f0, f1 = card.devices_of_kind(DeviceKind.FPGA)
        route = phys_cluster.topology.route(f0.device_id, f1.device_id)
        assert len(route) == 2  # fpga -> dpu -> fpga

    def test_memory_blade_present(self, phys_cluster):
        blades = phys_cluster.nodes_of_kind(NodeKind.MEMORY_BLADE)
        assert len(blades) == 1
        assert blades[0].attachment_device.kind == DeviceKind.MEMORY_BLADE

    def test_device_lookup(self, phys_cluster):
        dev = phys_cluster.devices_of_kind(DeviceKind.GPU)[0]
        assert phys_cluster.device(dev.device_id) is dev
        with pytest.raises(KeyError):
            phys_cluster.device("nope")
        with pytest.raises(KeyError):
            phys_cluster.node("nope")


class TestNodeDevices:
    """A node resolves its attachment and dominant device once; adding a
    device resolves them afresh."""

    def test_a_device_added_later_changes_the_answer(self, sim):
        card = Node("card", NodeKind.DISAGG_DEVICE)
        with pytest.raises(ValueError, match="no devices"):
            card.attachment_device
        gpu = Device(sim, GPU_SPEC, node_id="card", device_id="card/gpu")
        card.add_device(gpu)
        assert card.attachment_device is gpu and card.dominant_device is gpu
        dpu = Device(sim, DPU_SPEC, node_id="card", device_id="card/dpu")
        card.add_device(dpu)
        assert card.attachment_device is dpu and card.attachment_endpoint == "card/dpu"
        assert card.dominant_device is gpu

    def test_a_server_attaches_at_its_first_cpu(self, sim):
        server = Node("s", NodeKind.SERVER)
        gpu = Device(sim, GPU_SPEC, node_id="s", device_id="s/gpu")
        server.add_device(gpu)
        assert server.dominant_device is gpu  # no CPU yet: the first device
        cpu = Device(sim, CPU_SERVER_SPEC, node_id="s", device_id="s/cpu")
        server.add_device(cpu)
        assert server.attachment_device is cpu and server.dominant_device is cpu


class TestTightlyCoupled:
    def test_all_to_all_single_hop(self):
        cluster = build_tightly_coupled(n_accel=4)
        gpus = cluster.devices_of_kind(DeviceKind.GPU)
        assert len(gpus) == 4
        for i, a in enumerate(gpus):
            for b in gpus[i + 1 :]:
                assert cluster.topology.hop_count(a.device_id, b.device_id) == 1

    def test_silo_reaches_switch(self):
        cluster = build_tightly_coupled(n_accel=2)
        gpu = cluster.devices_of_kind(DeviceKind.GPU)[1]
        # reachable, through the single uplink
        assert cluster.topology.route(gpu.device_id, cluster.switch_id)


class TestDurableStore:
    def test_put_get_round_trip(self, sim):
        store = DurableStore(sim)
        p = store.put("k", {"v": 1}, nbytes=4 * MB)
        sim.run()
        assert p.triggered
        g = store.get("k")
        sim.run()
        assert g.value == {"v": 1}
        assert store.stats.puts == 1 and store.stats.gets == 1
        assert store.stats.round_trips == 2

    def test_latency_and_bandwidth_charged(self, sim):
        store = DurableStore(sim, request_latency=0.01, bandwidth=1e6)
        store.put("k", b"", nbytes=1_000_000)
        sim.run()
        assert sim.now == pytest.approx(0.01 + 1.0)

    def test_missing_key_raises(self, sim):
        store = DurableStore(sim)
        store.get("missing")
        with pytest.raises(KeyError):
            sim.run()

    def test_request_cost_accounting(self, sim):
        store = DurableStore(sim)
        for i in range(500):
            store.put(f"k{i}", i, nbytes=10)
        sim.run()
        assert store.stats.request_cost_dollars(per_1k_requests=0.005) == pytest.approx(
            0.0025
        )

    def test_size_of(self, sim):
        store = DurableStore(sim)
        store.put("k", "v", nbytes=77)
        sim.run()
        assert store.size_of("k") == 77
        with pytest.raises(KeyError):
            store.size_of("absent")
