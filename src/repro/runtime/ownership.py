"""The heterogeneity-aware ownership table.

Ray's ownership protocol keeps, per object, the owning worker and the value
location.  Figure 3(2): "We make Ray's ownership table heterogeneity-aware
by adding a device ID and a handle to the device driver (DeviceID and
DeviceHandle)" — that is exactly the :class:`OwnershipEntry` here.  The
handle is opaque: in the real system it is a driver context, here an
integer token minted per (device, object).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set

__all__ = ["DRIVER", "ValueState", "OwnershipEntry", "OwnershipTable"]

DRIVER = "driver"  # owner id of every ref the (single) driver program holds


class ValueState(enum.Enum):
    PENDING = "pending"  # producing task not finished
    READY = "ready"  # value materialized somewhere
    LOST = "lost"  # all copies gone (lineage or reliable cache must recover)


@dataclass
class OwnershipEntry:
    object_id: str
    owner: str  # worker/driver id that holds the ref (ownership protocol)
    task_id: str  # producing task (lineage edge)
    state: ValueState = ValueState.PENDING
    nbytes: int = 0
    locations: Set[str] = field(default_factory=set)  # node ids with a copy
    # -- the paper's extension (Figure 3) --
    device_id: Optional[str] = None  # device holding the primary copy
    device_handle: Optional[int] = None  # opaque handle to the device driver


class OwnershipTable:
    """Object directory + ownership metadata (lives in the GCS)."""

    def __init__(self) -> None:
        self._entries: Dict[str, OwnershipEntry] = {}
        self._handles = itertools.count(1)
        # subscribers called in list order as observer(op, object_id,
        # old_state, new_state, location_count) after every directory
        # mutation: the dist-sanitizer probe and the HA write-ahead log each
        # append themselves; the empty default costs one truth test
        self.observers: List[
            Callable[[str, str, Optional[str], Optional[str], int], None]
        ] = []

    # enum ``.name`` goes through a descriptor on every read; the observer
    # fires per directory mutation, so resolve names via a plain dict
    _STATE_NAMES = {state: state.name for state in ValueState}

    def _observe(
        self, op: str, entry: OwnershipEntry, old: Optional[ValueState]
    ) -> None:
        if self.observers:
            names = self._STATE_NAMES
            old_name = None if old is None else names[old]
            for observer in self.observers:
                observer(
                    op, entry.object_id, old_name, names[entry.state], len(entry.locations)
                )

    def create(self, object_id: str, owner: str, task_id: str) -> OwnershipEntry:
        if object_id in self._entries:
            raise KeyError(f"object {object_id!r} already registered")
        entry = OwnershipEntry(object_id=object_id, owner=owner, task_id=task_id)
        self._entries[object_id] = entry
        self._observe("create", entry, None)
        return entry

    def entry(self, object_id: str) -> OwnershipEntry:
        entry = self._entries.get(object_id)
        if entry is None:
            raise KeyError(f"object {object_id!r} not in ownership table")
        return entry

    def contains(self, object_id: str) -> bool:
        return object_id in self._entries

    def mark_ready(
        self,
        object_id: str,
        node_id: str,
        nbytes: int,
        device_id: Optional[str] = None,
    ) -> OwnershipEntry:
        entry = self.entry(object_id)
        old = entry.state
        entry.state = ValueState.READY
        entry.nbytes = nbytes
        entry.locations.add(node_id)
        if device_id is not None:
            entry.device_id = device_id
            entry.device_handle = next(self._handles)
        self._observe("mark_ready", entry, old)
        return entry

    def add_location(self, object_id: str, node_id: str) -> None:
        entry = self.entry(object_id)
        old = entry.state
        entry.locations.add(node_id)
        if entry.state == ValueState.LOST:
            entry.state = ValueState.READY
        self._observe("add_location", entry, old)

    def drop_location(self, object_id: str, node_id: str) -> None:
        entry = self.entry(object_id)
        old = entry.state
        had = node_id in entry.locations
        entry.locations.discard(node_id)
        if not entry.locations and entry.state == ValueState.READY:
            entry.state = ValueState.LOST
        if had or entry.state is not old:
            self._observe("drop_location", entry, old)

    def reset_pending(self, object_id: str) -> None:
        """Lineage replay re-runs the producer: the entry awaits it afresh."""
        entry = self.entry(object_id)
        old = entry.state
        entry.state = ValueState.PENDING
        entry.locations.clear()
        self._observe("replay_reset", entry, old)

    def drop_node(self, node_id: str) -> List[str]:
        """A node died: forget its copies; return newly-lost object ids."""
        lost = []
        for entry in self._entries.values():
            if node_id in entry.locations:
                old = entry.state
                entry.locations.discard(node_id)
                if not entry.locations and entry.state == ValueState.READY:
                    entry.state = ValueState.LOST
                    lost.append(entry.object_id)
                self._observe("drop_node", entry, old)
            if entry.device_id is not None and entry.device_id.startswith(node_id + "/"):
                entry.device_id = None
                entry.device_handle = None
        return lost

    def drop_device(self, device_id: str) -> List[str]:
        """A single device died while its node lived: invalidate the Figure 3
        extension columns for every entry whose primary copy sat on it.

        Location entries are node-granular, so the caller (the runtime, which
        knows which sibling stores survived) decides whether the node location
        itself must also be dropped; this method only severs the now-dangling
        ``device_id``/``device_handle`` so no one dereferences a driver handle
        into dead silicon.  Returns the invalidated object ids.
        """
        invalidated = []
        for entry in self._entries.values():
            if entry.device_id == device_id:
                entry.device_id = None
                entry.device_handle = None
                invalidated.append(entry.object_id)
                self._observe("drop_device", entry, entry.state)
        return invalidated

    def restore(
        self,
        object_id: str,
        owner: str,
        task_id: str,
        state: ValueState,
        nbytes: int,
        locations: Iterable[str],
        device_id: Optional[str] = None,
    ) -> OwnershipEntry:
        """Upsert an entry from a replicated snapshot (control-plane HA).

        Used by the failover path: the election winner replays its WAL
        replica and re-registration re-creates entries the log missed.
        A restore is a sanctioned directory reset, not a protocol step —
        the observer sees it as op ``"restore"`` and the state monitors
        treat it as re-seeding their tracked state.
        """
        entry = self._entries.get(object_id)
        if entry is None:
            entry = OwnershipEntry(object_id=object_id, owner=owner, task_id=task_id)
            self._entries[object_id] = entry
        entry.state = state
        entry.nbytes = nbytes
        entry.locations = set(locations)
        entry.device_id = device_id
        entry.device_handle = None if device_id is None else next(self._handles)
        self._observe("restore", entry, None)
        return entry

    def free(self, object_id: str) -> None:
        """The application released the object: the entry goes, and observers
        see op ``"free"`` with no new state (the WAL logs it as a drop)."""
        entry = self.entry(object_id)
        old_name = self._STATE_NAMES[entry.state]
        entry.locations.clear()  # anyone still holding the entry sees no copy
        self.remove(object_id)
        for observer in self.observers:
            observer("free", object_id, old_name, None, 0)

    def remove(self, object_id: str) -> None:
        """Forget an entry silently (WAL ``own_drop`` replay)."""
        self._entries.pop(object_id, None)

    def clear(self) -> None:
        """Forget every entry silently (the GCS host died, or a failover is
        about to rebuild the directory from a WAL replica)."""
        self._entries.clear()

    def is_ready(self, object_id: str) -> bool:
        return self.contains(object_id) and self.entry(object_id).state == ValueState.READY

    def locations(self, object_id: str) -> List[str]:
        return sorted(self.entry(object_id).locations)

    def producing_task(self, object_id: str) -> str:
        return self.entry(object_id).task_id

    def objects(self) -> Iterable[OwnershipEntry]:
        return self._entries.values()

    def __len__(self) -> int:
        return len(self._entries)
