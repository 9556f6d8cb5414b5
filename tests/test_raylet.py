"""Direct tests for the raylet daemon (control costs, stores, failure)."""

from __future__ import annotations

import pytest

from repro.cluster.hardware import DPU_SPEC, FPGA_SPEC, Device
from repro.runtime.events import NoProbe
from repro.runtime.raylet import Raylet
from repro.telemetry.metrics import MetricsRegistry


def make_raylet(sim, host, devices):
    """A raylet as the runtime builds one: registry, probe and spill upkeep
    are constructor arguments (here a fresh registry, no sanitizer, no upkeep)."""
    return Raylet(
        sim, host, devices, metrics=MetricsRegistry(), probe=NoProbe(),
        on_spill=lambda oid, origin, target: None,
    )


@pytest.fixture
def card(sim):
    dpu = Device(sim, DPU_SPEC, node_id="card0", device_id="card0/dpu")
    f0 = Device(sim, FPGA_SPEC, node_id="card0", device_id="card0/fpga0")
    f1 = Device(sim, FPGA_SPEC, node_id="card0", device_id="card0/fpga1")
    return dpu, f0, f1


class TestConstruction:
    def test_dpu_raylet_manages_companions_only(self, sim, card):
        dpu, f0, f1 = card
        raylet = make_raylet(sim, dpu, [f0, f1])
        assert raylet.endpoint == "card0/dpu"
        assert raylet.manages("card0/fpga0") and raylet.manages("card0/fpga1")
        assert not raylet.manages("card0/dpu")

    def test_device_raylet_manages_itself(self, sim, card):
        _, f0, _ = card
        raylet = make_raylet(sim, f0, [f0])
        assert raylet.endpoint == "card0/fpga0"
        assert raylet.manages("card0/fpga0")

    def test_non_dpu_host_always_self_managed(self, sim, card):
        _, f0, f1 = card
        raylet = make_raylet(sim, f0, [f1])  # host not in devices: auto-added
        assert raylet.manages("card0/fpga0")
        assert raylet.manages("card0/fpga1")

    def test_store_lookup_errors(self, sim, card):
        dpu, f0, _ = card
        raylet = make_raylet(sim, dpu, [f0])
        with pytest.raises(KeyError):
            raylet.store_of("elsewhere/gpu")


class TestControl:
    def test_control_costs_host_dispatch_overhead(self, sim, card):
        dpu, f0, f1 = card
        raylet = make_raylet(sim, dpu, [f0, f1])
        raylet.control()
        sim.run()
        assert sim.now == pytest.approx(DPU_SPEC.dispatch_overhead)
        assert raylet.control_actions == 1

    def test_control_actions_serialize(self, sim, card):
        dpu, f0, f1 = card
        raylet = make_raylet(sim, dpu, [f0, f1])
        raylet.control()
        raylet.control()
        raylet.control()
        sim.run()
        assert sim.now == pytest.approx(3 * DPU_SPEC.dispatch_overhead)

    def test_device_raylets_parallelize_control(self, sim, card):
        _, f0, f1 = card
        r0, r1 = make_raylet(sim, f0, [f0]), make_raylet(sim, f1, [f1])
        r0.control()
        r1.control()
        sim.run()
        assert sim.now == pytest.approx(FPGA_SPEC.dispatch_overhead)

    def test_batched_control_actions(self, sim, card):
        dpu, f0, _ = card
        raylet = make_raylet(sim, dpu, [f0])
        raylet.control(actions=5)
        sim.run()
        assert raylet.control_actions == 5
        assert sim.now == pytest.approx(5 * DPU_SPEC.dispatch_overhead)


class TestObjectsAndFailure:
    def test_find_object_across_managed_stores(self, sim, card):
        dpu, f0, f1 = card
        raylet = make_raylet(sim, dpu, [f0, f1])
        raylet.store_of("card0/fpga1").put("obj-1", "v", 64)
        found = raylet.find_object("obj-1")
        assert found is raylet.store_of("card0/fpga1")
        assert raylet.find_object("ghost") is None

    def test_fail_clears_all_stores(self, sim, card):
        dpu, f0, f1 = card
        raylet = make_raylet(sim, dpu, [f0, f1])
        raylet.store_of("card0/fpga0").put("a", 1, 32)
        raylet.store_of("card0/fpga1").put("b", 2, 32)
        raylet.fail()
        assert not raylet.alive
        assert raylet.find_object("a") is None
        assert raylet.find_object("b") is None
        assert f0.memory_used == 0 and f1.memory_used == 0
        raylet.restart()
        assert raylet.alive
