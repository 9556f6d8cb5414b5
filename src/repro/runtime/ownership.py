"""The heterogeneity-aware ownership table.

Ray's ownership protocol keeps, per object, the owning worker and the value
location.  Figure 3(2): "We make Ray's ownership table heterogeneity-aware
by adding a device ID and a handle to the device driver (DeviceID and
DeviceHandle)" — that is exactly the :class:`OwnershipEntry` here.  The
handle is opaque: in the real system it is a driver context, here an
integer token minted per (device, object).  A location is the id of the
store that holds a copy: each device has its own store, so that is the
holding device's id (a memory blade's store is its memory device's).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set

__all__ = ["DRIVER", "ValueState", "OwnershipEntry", "OwnershipTable"]

DRIVER = "driver"  # owner id of every ref the (single) driver program holds
GCS = "gcs"  # the writer of every directory mutation no caller names


class ValueState(enum.Enum):
    PENDING = "pending"  # producing task not finished
    READY = "ready"  # value materialized somewhere
    LOST = "lost"  # all copies gone (lineage or reliable cache must recover)


@dataclass(slots=True)
class OwnershipEntry:
    object_id: str
    owner: str  # worker/driver id that holds the ref (ownership protocol)
    task_id: str  # producing task (lineage edge)
    state: ValueState = ValueState.PENDING
    nbytes: int = 0
    locations: Set[str] = field(default_factory=set)  # ids of the stores with a copy
    # -- the paper's extension (Figure 3) --
    device_id: Optional[str] = None  # device holding the primary copy
    device_handle: Optional[int] = None  # opaque handle to the device driver


class OwnershipTable:
    """Object directory + ownership metadata (lives in the GCS)."""

    def __init__(self) -> None:
        self._entries: Dict[str, OwnershipEntry] = {}
        self._handles = itertools.count(1)
        # subscribers called in list order as observer(op, object_id,
        # old_state, new_state, location_count, site) after every directory
        # mutation, ``site`` naming the writer: the driver creates, an
        # attempt commits, a push lands, the GCS does the rest.  The
        # dist-sanitizer probe and the HA write-ahead log each append
        # themselves; the empty default costs one truth test
        self.observers: List[
            Callable[[str, str, Optional[str], Optional[str], int, str], None]
        ] = []

    # enum ``.name`` goes through a descriptor on every read; the observer
    # fires per directory mutation, so resolve names via a plain dict
    _STATE_NAMES = {state: state.name for state in ValueState}

    def _observe(
        self, op: str, entry: OwnershipEntry, old: Optional[ValueState], site: str = GCS
    ) -> None:
        if self.observers:
            names = self._STATE_NAMES
            old_name = None if old is None else names[old]
            for observer in self.observers:
                observer(
                    op, entry.object_id, old_name, names[entry.state], len(entry.locations), site
                )

    def create(self, object_id: str, owner: str, task_id: str) -> OwnershipEntry:
        if object_id in self._entries:
            raise KeyError(f"object {object_id!r} already registered")
        entry = OwnershipEntry(object_id=object_id, owner=owner, task_id=task_id)
        self._entries[object_id] = entry
        self._observe("create", entry, None, DRIVER)
        return entry

    def entry(self, object_id: str) -> OwnershipEntry:
        entry = self._entries.get(object_id)
        if entry is None:
            raise KeyError(f"object {object_id!r} not in ownership table")
        return entry

    def contains(self, object_id: str) -> bool:
        return object_id in self._entries

    def mark_ready(
        self, object_id: str, store_id: str, nbytes: int, site: str = GCS
    ) -> OwnershipEntry:
        """The value landed in ``store_id``'s store (``site``'s commit or put,
        or a restore): the entry is READY there, and that device holds the
        primary copy."""
        entry = self.entry(object_id)
        old = entry.state
        entry.state = ValueState.READY
        entry.nbytes = nbytes
        entry.locations.add(store_id)
        entry.device_id = store_id
        entry.device_handle = next(self._handles)
        self._observe("mark_ready", entry, old, site)
        return entry

    def add_location(self, object_id: str, store_id: str, site: str = GCS) -> None:
        entry = self.entry(object_id)
        old = entry.state
        entry.locations.add(store_id)
        if entry.state == ValueState.LOST:
            entry.state = ValueState.READY
        self._observe("add_location", entry, old, site)

    def drop_location(self, object_id: str, store_id: str) -> None:
        entry = self.entry(object_id)
        old = entry.state
        had = store_id in entry.locations
        entry.locations.discard(store_id)
        if not entry.locations and entry.state == ValueState.READY:
            entry.state = ValueState.LOST
        if had or entry.state is not old:
            self._observe("drop_location", entry, old)

    def reset_pending(self, object_id: str) -> None:
        """Lineage replay re-runs the producer: the entry awaits it afresh,
        with no copy and no primary device."""
        entry = self.entry(object_id)
        old = entry.state
        entry.state = ValueState.PENDING
        entry.locations.clear()
        entry.device_id = entry.device_handle = None
        self._observe("replay_reset", entry, old)

    def _drop_stores(self, op: str, dead: Callable[[str], bool]) -> List[str]:
        """Forget every copy in a store ``dead`` names, and sever the Figure 3
        columns that point into one (no one may dereference a driver handle
        into dead silicon); return the object ids this made LOST."""
        lost = []
        for entry in self._entries.values():
            gone = [store_id for store_id in entry.locations if dead(store_id)]
            severed = entry.device_id is not None and dead(entry.device_id)
            if not (gone or severed):
                continue
            old = entry.state
            entry.locations.difference_update(gone)
            if severed:
                entry.device_id = entry.device_handle = None
            if not entry.locations and old == ValueState.READY:
                entry.state = ValueState.LOST
                lost.append(entry.object_id)
            self._observe(op, entry, old)
        return lost

    def drop_node(self, node_id: str) -> List[str]:
        """A node (or a blade) died: forget the copies in all its stores."""
        prefix = node_id + "/"
        return self._drop_stores("drop_node", lambda store_id: store_id.startswith(prefix))

    def drop_device(self, device_id: str) -> List[str]:
        """One device died while its node lived: forget the copies in its store."""
        return self._drop_stores("drop_device", lambda store_id: store_id == device_id)

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

    def free(self, object_id: str, site: str = GCS) -> None:
        """``site`` released the object: the entry goes, and observers see op
        ``"free"`` with no new state (the WAL logs it as a drop)."""
        entry = self.entry(object_id)
        old_name = self._STATE_NAMES[entry.state]
        entry.locations.clear()  # anyone still holding the entry sees no copy
        self.remove(object_id)
        for observer in self.observers:
            observer("free", object_id, old_name, None, 0, site)

    def remove(self, object_id: str) -> None:
        """Forget an entry silently (WAL ``own_drop`` replay)."""
        self._entries.pop(object_id, None)

    def clear(self) -> None:
        """Forget every entry silently (the GCS host died, or a failover is
        about to rebuild the directory from a WAL replica)."""
        self._entries.clear()

    def is_ready(self, object_id: str) -> bool:
        entry = self._entries.get(object_id)
        return entry is not None and entry.state is ValueState.READY

    def awaits_commit(self, object_id: str) -> bool:
        """A producer's commit would fill the entry: it exists and is not
        READY.  A freed object has no entry and awaits nothing."""
        entry = self._entries.get(object_id)
        return entry is not None and entry.state is not ValueState.READY

    def committed(self, object_ids: Iterable[str]) -> bool:
        """A commit filled these objects: one at least is READY and none
        awaits a commit."""
        ready = False
        for object_id in object_ids:
            entry = self._entries.get(object_id)
            if entry is not None:
                if entry.state is not ValueState.READY:
                    return False
                ready = True
        return ready

    def locations(self, object_id: str) -> List[str]:
        return sorted(self.entry(object_id).locations)

    def producing_task(self, object_id: str) -> str:
        return self.entry(object_id).task_id

    def objects(self) -> Iterable[OwnershipEntry]:
        return self._entries.values()

    def __len__(self) -> int:
        return len(self._entries)
