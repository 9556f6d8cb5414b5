"""Tests for the plasma-like per-device object store."""

from __future__ import annotations

import pytest

from repro.cluster.hardware import FPGA_SPEC, MEMORY_BLADE_SPEC, Device
from repro.runtime.object_store import (
    LocalObjectStore,
    ObjectStoreFullError,
    SpillFailedError,
    StoreUnavailableError,
)
from repro.telemetry.metrics import MetricsRegistry


def make_store(device, spill_target=None, on_spill=lambda oid, origin, target: None):
    """A store as the runtime builds one: its registry and its spill upkeep
    are constructor arguments (here a fresh registry and no upkeep)."""
    return LocalObjectStore(device, spill_target, metrics=MetricsRegistry(), on_spill=on_spill)


def small_device(sim, capacity=1000):
    return Device(
        sim, FPGA_SPEC.with_overrides(memory_bytes=capacity), node_id="card0"
    )


class TestBasics:
    def test_put_get(self, sim):
        store = make_store(small_device(sim))
        record, spilled = store.put("o1", {"v": 1}, 100)
        assert spilled == 0
        assert store.get("o1").value == {"v": 1}
        assert store.contains("o1")
        assert store.used_bytes == 100
        assert len(store) == 1

    def test_duplicate_put_rejected(self, sim):
        store = make_store(small_device(sim))
        store.put("o1", 1, 10)
        with pytest.raises(KeyError, match="already"):
            store.put("o1", 2, 10)

    def test_missing_get_raises(self, sim):
        store = make_store(small_device(sim))
        with pytest.raises(KeyError):
            store.get("ghost")

    def test_delete_frees_device_memory(self, sim):
        device = small_device(sim)
        store = make_store(device)
        store.put("o1", 1, 400)
        assert device.memory_used == 400
        assert store.delete("o1") is True
        assert device.memory_used == 0
        assert store.delete("o1") is False

    def test_clear_on_failure(self, sim):
        device = small_device(sim)
        store = make_store(device)
        store.put("a", 1, 100)
        store.put("b", 2, 100)
        store.clear()
        assert len(store) == 0
        assert device.memory_used == 0


class TestSpill:
    def test_spills_lru_to_target(self, sim):
        blade = make_store(Device(sim, MEMORY_BLADE_SPEC, node_id="blade"))
        store = make_store(small_device(sim, capacity=250), spill_target=blade)
        store.put("a", "A", 100)
        store.put("b", "B", 100)
        store.get("a")  # touch: b becomes LRU victim
        store.put("c", "C", 100)
        assert not store.contains("b")
        assert blade.get("b").value == "B"
        assert store.spilled_out == 1
        assert store.spilled_bytes == 100

    def test_full_without_spill_target_raises(self, sim):
        store = make_store(small_device(sim, capacity=150))
        store.put("a", 1, 100)
        with pytest.raises(ObjectStoreFullError, match="no spill target"):
            store.put("b", 2, 100)

    def test_object_bigger_than_device_raises(self, sim):
        blade = make_store(Device(sim, MEMORY_BLADE_SPEC, node_id="blade"))
        store = make_store(small_device(sim, capacity=100), spill_target=blade)
        with pytest.raises(ObjectStoreFullError, match="empty store"):
            store.put("huge", 1, 1000)

    def test_multi_spill_until_fits(self, sim):
        blade = make_store(Device(sim, MEMORY_BLADE_SPEC, node_id="blade"))
        store = make_store(small_device(sim, capacity=300), spill_target=blade)
        for i in range(3):
            store.put(f"o{i}", i, 100)
        store.put("big", "B", 250)
        assert store.contains("big")
        assert len(blade) >= 2


def tiny_blade(sim, capacity):
    return make_store(
        Device(
            sim,
            MEMORY_BLADE_SPEC.with_overrides(memory_bytes=capacity),
            node_id="blade",
        )
    )


class TestSpillCrashConsistency:
    """Satellite: a failed spill must never destroy the victim — the write
    to the spill target happens *before* the local delete."""

    def test_full_spill_target_raises_typed_error_and_retains_victim(self, sim):
        blade = tiny_blade(sim, capacity=50)
        device = small_device(sim, capacity=250)
        store = make_store(device, spill_target=blade)
        store.put("a", "A", 100)
        store.put("b", "B", 100)
        with pytest.raises(SpillFailedError, match="victim retained"):
            store.put("c", "C", 100)
        # the victim is intact locally, nothing landed on the blade, and
        # neither store's memory ledger drifted
        assert store.contains("a") and store.contains("b")
        assert not store.contains("c")
        assert not blade.contains("a")
        assert store.used_bytes == 200
        assert device.memory_used == 200
        assert store.spilled_out == 0

    def test_dead_spill_target_raises_typed_error(self, sim):
        blade = tiny_blade(sim, capacity=1000)
        store = make_store(small_device(sim, capacity=150), spill_target=blade)
        store.put("a", "A", 100)
        blade.device.fail()
        with pytest.raises(SpillFailedError, match="victim retained"):
            store.put("b", "B", 100)
        assert store.contains("a")
        assert store.used_bytes == 100

    def test_spill_failure_is_a_store_full_error(self):
        # retry plumbing catches ObjectStoreFullError; the subtype must flow
        # through the same handling without a new except-arm everywhere
        assert issubclass(SpillFailedError, ObjectStoreFullError)

    def test_put_into_dead_store_raises(self, sim):
        device = small_device(sim)
        store = make_store(device)
        device.fail()
        with pytest.raises(StoreUnavailableError, match="dead device"):
            store.put("a", "A", 10)

    def test_on_spill_callback_fires_only_after_success(self, sim):
        calls = []
        blade = tiny_blade(sim, capacity=100)
        store = make_store(
            small_device(sim, capacity=150),
            spill_target=blade,
            on_spill=lambda oid, origin, target: calls.append((oid, origin, target)),
        )
        store.put("a", "A", 100)
        store.put("b", "B", 100)  # spills a successfully
        assert calls == [("a", store, blade)]
        with pytest.raises(SpillFailedError):
            store.put("c", "C", 100)  # blade full: b must NOT be reported
        assert calls == [("a", store, blade)]
