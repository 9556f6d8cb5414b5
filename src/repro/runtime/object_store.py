"""Per-node plasma-like object store with spill to disaggregated memory.

Each raylet manages one of these ("a distributed object store called
plasma", §2.3.1).  Values are real Python objects; capacity is accounted
against the hosting device's memory, and overflow spills to a
disaggregated-memory blade when the runtime has one (Gen-2 key change #3:
"extend the caching layer to include disaggregated memory").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from ..cluster.hardware import Device

__all__ = [
    "LocalObjectStore",
    "StoredObject",
    "ObjectStoreFullError",
    "SpillFailedError",
    "StoreUnavailableError",
]


class ObjectStoreFullError(MemoryError):
    """No room locally and no spill target configured."""


class SpillFailedError(ObjectStoreFullError):
    """The spill target refused the victim (full or dead blade).

    Crash-consistency contract: when this is raised the victim is still
    intact in the local store — spill writes to the target *before*
    deleting locally, so a failed spill never destroys data.
    """


class StoreUnavailableError(RuntimeError):
    """The store's backing device is dead; reads and writes are impossible."""


@dataclass(slots=True)
class StoredObject:
    object_id: str
    value: Any
    nbytes: int
    device_id: str


class LocalObjectStore:
    """Object storage backed by one device's memory, LRU-spilled."""

    def __init__(
        self,
        device: Device,
        spill_target: Optional["LocalObjectStore"] = None,
        *,
        metrics: Any,
        on_spill: Callable[[str, "LocalObjectStore", "LocalObjectStore"], None],
    ):
        self.device = device
        self.spill_target = spill_target
        self._objects: "OrderedDict[str, StoredObject]" = OrderedDict()
        self.spilled_out = 0
        self.spilled_bytes = 0
        self._used = 0
        # poked after a successful spill as on_spill(object id, this store,
        # the target) so the runtime can move the object's directory location
        self.on_spill = on_spill
        # ``metrics``, a telemetry MetricsRegistry, is duck-typed: this layer
        # sits below repro.telemetry
        device_id = device.device_id
        self._m_puts = metrics.series(
            "counter", "skadi_store_puts_total",
            "objects written into each device's store", "device",
        ).of(device_id)
        self._m_evictions = metrics.series(
            "counter", "skadi_store_evictions_total",
            "LRU spills out of each device's store", "device",
        ).of(device_id)
        self._m_resident = metrics.series(
            "gauge", "skadi_store_bytes_resident",
            "bytes resident in each device's object store", "device",
        ).of(device_id)

    def _meter_resident(self) -> None:
        self._m_resident.set(float(self._used))

    @property
    def node_id(self) -> str:
        return self.device.node_id

    def put(self, object_id: str, value: Any, nbytes: int) -> Tuple[StoredObject, int]:
        """Store a value; returns (record, bytes_spilled_to_make_room)."""
        if not self.device.alive:
            raise StoreUnavailableError(
                f"store on {self.device.device_id} is backed by a dead device"
            )
        if object_id in self._objects:
            raise KeyError(f"object {object_id!r} already in store on {self.node_id}")
        spilled = 0
        while not self.device.reserve_memory(nbytes):
            spilled += self._spill_one(needed=nbytes)
        record = StoredObject(object_id, value, nbytes, self.device.device_id)
        self._objects[object_id] = record
        self._used += nbytes
        self._m_puts.inc()
        self._meter_resident()
        return record, spilled

    def _spill_one(self, needed: int) -> int:
        if not self._objects:
            raise ObjectStoreFullError(
                f"object of {needed}B cannot fit in empty store on "
                f"{self.device.device_id} ({self.device.spec.memory_bytes}B)"
            )
        if self.spill_target is None:
            raise ObjectStoreFullError(
                f"store on {self.device.device_id} full and no spill target"
            )
        victim_id, victim = next(iter(self._objects.items()))
        # crash consistency: the victim must land on the spill target BEFORE
        # it leaves this store — a full or dead blade must not destroy the
        # only copy.  On failure the victim is untouched and the caller sees
        # a typed error instead of silent data loss.
        try:
            self.spill_target.put(victim_id, victim.value, victim.nbytes)
        except (ObjectStoreFullError, StoreUnavailableError) as exc:
            raise SpillFailedError(
                f"spill of {victim_id!r} ({victim.nbytes}B) from "
                f"{self.device.device_id} to {self.spill_target.device.device_id} "
                f"failed; victim retained locally: {exc}"
            ) from exc
        del self._objects[victim_id]
        self.device.free_memory(victim.nbytes)
        self._used -= victim.nbytes
        self.spilled_out += 1
        self.spilled_bytes += victim.nbytes
        self.on_spill(victim_id, self, self.spill_target)
        self._m_evictions.inc()
        self._meter_resident()
        return victim.nbytes

    def get(self, object_id: str) -> StoredObject:
        record = self._objects.get(object_id)
        if record is None:
            raise KeyError(f"object {object_id!r} not in store on {self.node_id}")
        self._objects.move_to_end(object_id)
        return record

    def contains(self, object_id: str) -> bool:
        return object_id in self._objects

    def delete(self, object_id: str) -> bool:
        record = self._objects.pop(object_id, None)
        if record is None:
            return False
        self.device.free_memory(record.nbytes)
        self._used -= record.nbytes
        self._meter_resident()
        return True

    def clear(self) -> None:
        """Drop everything (node failure)."""
        for record in self._objects.values():
            self.device.free_memory(record.nbytes)
        self._objects.clear()
        self._used = 0
        self._meter_resident()

    @property
    def used_bytes(self) -> int:
        return self._used

    def __len__(self) -> int:
        return len(self._objects)
