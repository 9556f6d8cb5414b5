"""Recovery and object lifetime: where a live copy is, how a lost object comes
back, and when an object may go.

§2.1: "Skadi handles failures in two ways: (1) re-executes the graph using
lineage, or (2) uses a reliable caching layer"; a checkpoint to durable
storage bounds the depth of (1).  The three questions are one job — each is
answered from the directory, the stores and the open tasks — so they live in
one place:

* **One trigger.**  :meth:`Recovery.recover` brings one LOST object back:
  the checkpoint frontier, else the reliable cache, else a lineage replay.
  The driver's ``get`` reaches it through :meth:`triage`; everyone else — a
  death verdict, an HA failover, a fetch that found only a phantom copy —
  hands its lost list to :meth:`objects_lost`, which recovers what an open
  task still reads.
* **One tail.**  Whatever supplied the value, :meth:`_restore` lands it:
  head-node store → directory READY (a control-plane act, site ``gcs``) →
  ``object_recovered`` + the recovered-bytes counters → ``_on_object_ready``.
  Lineage restores nothing itself (the replayed tasks commit like any task),
  so it only records what it planned.
* **Proactive recovery runs inside a simulation process** (a verdict fires
  from a heartbeat loop, a reconcile from a pull).  There it may read the
  reliable cache and plan a replay, both of which only *schedule* work, but
  it may not restore a checkpoint: the durable read blocks on ``sim.run()``,
  which cannot be re-entered from inside the simulation.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, Set, Tuple

from ..caching.store import ObjectLostError
from ..cluster.hardware import Device
from .lineage import UnrecoverableObjectError
from .object_store import LocalObjectStore
from .ownership import ValueState
from .task import TERMINAL_STATES, TaskState

__all__ = ["Recovery", "ABSENT"]

ABSENT = object()  # ``read_cache`` found nothing (a cached value may be None)
_FAILED = (TaskState.FAILED, TaskState.CANCELLED)


class Recovery:
    """Live-copy lookup, the recovery mechanisms and the free decision."""

    def __init__(self, runtime: Any):  # the core (it imports this module, not the reverse)
        self.rt = runtime
        self.checkpoints: Set[str] = set()  # object ids persisted to durable storage
        # frees that arrived while a consumer was still open; completed as
        # consumers conclude (see ``free``)
        self.deferred_frees: List[str] = []

    # -- where a live copy is --------------------------------------------------

    def _serving(self, dev: Device) -> bool:
        """The device is alive and so is whatever serves its memory — after a
        DPU takeover the head raylet rather than the card's own (dead) one;
        a blade has no raylet, its controller serves."""
        raylet = self.rt._raylet_of_device.get(dev.device_id)
        return dev.alive and (raylet is None or raylet.alive)

    def find_store(self, object_id: str) -> Optional[LocalObjectStore]:
        """A live, reachable store holding ``object_id``, if any."""
        rt = self.rt
        nodes, stores = rt.cluster.nodes, rt._store_of_device
        for node_id in sorted(rt.ownership.entry(object_id).locations):
            node = nodes.get(node_id)
            if node is None:
                continue
            for dev in node.devices:
                store = stores.get(dev.device_id)
                if store is not None and store.contains(object_id) and self._serving(dev):
                    return store
        # overflow objects live on the disaggregated-memory blade; an
        # untracked copy (pre-directory spill) is still found here
        spill = rt._spill_store
        if spill is not None and spill.device.alive and spill.contains(object_id):
            return spill
        return None

    def source(self, object_id: str) -> Optional[LocalObjectStore]:
        """The data plane's one way in: a live store to fetch from.  A
        directory that only claims a copy is reconciled, and the wiped object
        recovered for its open consumers, on the way to the miss."""
        store = self.find_store(object_id)
        if store is None and self.reconcile(object_id):
            self.objects_lost([object_id])
        return store

    def reconcile(self, object_id: str) -> bool:
        """The directory claims READY copies, but every claimed location is
        live, healthy hardware that does not actually hold the object — a
        fault wiped the memory and healed before any detector noticed
        (e.g. a device power-cycled while the cluster sat idle).  Drop the
        phantom locations so the entry goes LOST and normal recovery takes
        over.  Copies on *dead* hardware are left alone: declaring those is
        the failure detector's job, not ours."""
        rt = self.rt
        entry = rt.ownership.entry(object_id)
        if entry.state != ValueState.READY or self.find_store(object_id) is not None:
            return False
        for node_id in entry.locations:
            node = rt.cluster.nodes.get(node_id)
            if node is None or not all(self._serving(dev) for dev in node.devices):
                return False
        stale = sorted(entry.locations)
        rt._probe_site("gcs")  # reconciliation is a directory-side act
        for node_id in stale:
            rt.ownership.drop_location(object_id, node_id)
        rt._record("object_reconciled", object=object_id, stale_locations=stale)
        return True

    def node_has_copy(self, node_id: str, object_id: str) -> bool:
        node = self.rt.cluster.nodes.get(node_id)
        if node is None:
            return False
        stores = self.rt._store_of_device
        return any(
            dev.device_id in stores and stores[dev.device_id].contains(object_id)
            for dev in node.devices
        )

    def on_spilled(self, object_id: str, target: LocalObjectStore) -> None:
        """Directory upkeep after an LRU spill: the copy now lives on the
        spill target's node, and any origin node that no longer holds a
        sibling copy must be dropped — otherwise a later blade death cannot
        tell which objects it actually took down."""
        ownership = self.rt.ownership
        if not ownership.contains(object_id):
            return
        # directory upkeep is the GCS acting, whichever caller's put forced
        # the eviction; that caller's own attribution resumes afterwards
        probe = self.rt.probe
        if probe is not None:
            caller_site, probe.site = probe.site, "gcs"
        ownership.add_location(object_id, target.node_id)
        for node_id in ownership.locations(object_id):
            if node_id != target.node_id and not self.node_has_copy(node_id, object_id):
                ownership.drop_location(object_id, node_id)
        if probe is not None:
            probe.site = caller_site

    def read_value(self, object_id: str) -> Any:
        """The driver's read at the end of ``get`` (free in virtual time)."""
        store = self.find_store(object_id)
        if store is not None:
            return store.get(object_id).value
        cache = self.rt.reliable_cache
        if cache is not None and cache.contains(object_id):
            return cache.get(object_id)[0]
        raise UnrecoverableObjectError(f"object {object_id!r} has no live copy")

    # -- how a lost object comes back ------------------------------------------

    def _frontier(self, object_id: str, cut: Callable[[str], bool]) -> List[str]:
        """The one upstream walk: pre-order over the producer graph from
        ``object_id``, each object once, never below an object ``cut``
        accepts.  Returns the objects it was cut at, in visit order."""
        producer = self.rt.lineage.producer
        seen: Set[str] = set()
        stack, frontier = [object_id], []
        while stack:
            oid = stack.pop()
            if oid in seen:
                continue
            seen.add(oid)
            if cut(oid):
                frontier.append(oid)
                continue
            spec = producer(oid)
            if spec is not None:
                stack.extend(dep.object_id for dep in reversed(spec.dependencies))
        return frontier

    def _dead_end(self, object_id: str) -> bool:
        """No producing task to look behind, or one that failed or was cancelled."""
        ctx = self.rt._ctx_of_object.get(object_id)
        return ctx is None or ctx.state in _FAILED

    def _is_lost(self, object_id: str) -> bool:
        ownership = self.rt.ownership
        return ownership.contains(object_id) and ownership.entry(object_id).state == ValueState.LOST

    def triage(self, object_ids: Sequence[str]) -> Tuple[Any, str, List[str], int]:
        """What stands between the driver and these objects: ``(failed,
        where, lost, unresolved)`` — the first failed or cancelled task (and
        where it sits relative to the object asked for), else the LOST
        objects to recover and how many of ``object_ids`` cannot be read yet."""
        rt = self.rt
        ctx_of, ownership, cache = rt._ctx_of_object.get, rt.ownership, rt.reliable_cache
        lost: List[str] = []
        unresolved = 0
        for oid in object_ids:
            ctx = ctx_of(oid)
            if ctx is not None and ctx.state in _FAILED:
                return ctx, "", lost, unresolved
            if not ownership.contains(oid):
                raise KeyError(f"unknown object {oid!r}")
            missing = [oid]
            state = ownership.entry(oid).state
            if state == ValueState.READY:
                # READY per the directory but no copy survives anywhere:
                # recover the reconciled-to-LOST entry like any other
                if (cache is not None and cache.contains(oid)) or not self.reconcile(oid):
                    continue
            elif state == ValueState.PENDING:
                if ctx is None:
                    raise KeyError(f"object {oid!r} pending with no producing task")
                for up in self._frontier(oid, self._dead_end):
                    if ctx_of(up) is not None:
                        return ctx_of(up), f" upstream of {oid}", lost, unresolved
                # a pending target may be stuck behind a LOST input (its
                # producer sits in the waiting queue); recover the lost
                # ancestors so the pipeline can resume
                missing = self._frontier(oid, self._is_lost)
            unresolved += 1
            lost += [up for up in missing if up not in lost]
        return None, "", lost, unresolved

    def objects_lost(self, object_ids: Iterable[str]) -> None:
        """Proactive recovery: a lost object some open task still depends on
        is recovered now, instead of waiting for a driver ``get`` to notice."""
        for oid in sorted(self._needed(object_ids)):
            self.rt._record("proactive_recovery", object=oid)
            self.recover(oid, proactive=True)

    def recover(self, object_id: str, proactive: bool = False) -> None:
        """Bring a LOST object back: checkpoint, reliable cache, or lineage."""
        rt = self.rt
        ownership = rt.ownership
        if not proactive:
            # restore only the checkpoint *frontier* a replay would need — the
            # target itself if it is checkpointed, else the first checkpointed
            # (or still-ready) ancestor on each path: a restore pays a durable read
            self._frontier(
                object_id,
                lambda oid: not ownership.contains(oid)
                or ownership.entry(oid).state == ValueState.READY
                or self._restore_checkpoint(oid, attributed=oid == object_id),
            )
            if ownership.entry(object_id).state == ValueState.READY:
                return
        value = self.read_cache(object_id)
        if value is not ABSENT:
            self._restore(object_id, value, "reliable_cache")
            return
        # a producer whose current incarnation has not concluded is on its
        # way (an earlier recovery already replayed it): not planned again
        plan = [
            spec
            for spec in rt.lineage.plan_recovery(object_id, ownership)
            if rt._ctxs[spec.task_id].state in TERMINAL_STATES
        ]
        rt.lineage.replays += len(plan)
        if plan:
            rt._record("lineage_replay", target=object_id, tasks=len(plan))
            recomputed = sum(
                ownership.entry(out).nbytes
                for spec in plan
                for out in rt.lineage.outputs_of(spec.task_id)
                if ownership.contains(out)
            )
            nbytes = ownership.entry(object_id).nbytes
            self._attribute(object_id, "lineage", nbytes, recomputed, recomputed_bytes=recomputed)
        for spec in plan:
            rt._replay_task(spec)

    def read_cache(self, key: str) -> Any:
        """Read ``key`` from the reliable cache and charge the reconstruction
        in virtual time; :data:`ABSENT` when there is nothing to read."""
        cache = self.rt.reliable_cache
        if cache is None or not cache.contains(key):
            return ABSENT
        try:
            value, cost = cache.get(key)
        except ObjectLostError:
            return ABSENT
        self.rt.sim.schedule(cost, lambda: None)
        return value

    def _restore_checkpoint(self, object_id: str, attributed: bool) -> bool:
        durable = self.rt.durable_store
        if object_id not in self.checkpoints or not durable.contains(object_id):
            return False
        proc = durable.get(object_id)
        self.rt.sim.run()
        self._restore(object_id, proc.value, "checkpoint", attributed)
        return True

    def _restore(self, object_id: str, value: Any, source: str, attributed: bool = True) -> None:
        """The one restore tail.  An ancestor restored only so a replay can
        start from it is not itself a recovered object: not ``attributed``."""
        rt = self.rt
        nbytes = rt.ownership.entry(object_id).nbytes
        rt._ready_at_head(object_id, value, nbytes, "gcs")
        if attributed:
            self._attribute(object_id, source, nbytes, nbytes)
        rt._on_object_ready(object_id)

    def _attribute(
        self, object_id: str, source: str, nbytes: int, counted: int, **detail: int
    ) -> None:
        """Every recovery lands in the log and the counters with its mechanism
        (lineage counts recomputed bytes, the stores re-fetched bytes)."""
        rt = self.rt
        rt._record("object_recovered", object=object_id, source=source, nbytes=nbytes, **detail)
        reg = rt.telemetry.registry
        reg.counter(
            "skadi_recovered_objects_total",
            "objects recovered after a failure, by mechanism",
            source=source,
        ).inc(1)
        reg.counter(
            "skadi_recovered_bytes_total",
            "bytes recovered after a failure, by mechanism "
            "(lineage counts recomputed bytes, caches count re-fetched bytes)",
            source=source,
        ).inc(counted)

    # -- when an object may go -------------------------------------------------

    def checkpoint(self, object_ids: Iterable[str]) -> None:
        rt = self.rt
        if rt.durable_store is None:
            raise RuntimeError("runtime was built without a durable store")
        for oid in object_ids:
            rt.sim.run()  # ensure the producer finished
            if not rt.ownership.is_ready(oid):
                raise ValueError(f"cannot checkpoint unready object {oid!r}")
            store = self.find_store(oid)
            if store is None:
                raise UnrecoverableObjectError(f"{oid!r} has no live copy")
            proc = rt.durable_store.put(oid, store.get(oid).value, rt.ownership.entry(oid).nbytes)
            rt.sim.run()
            assert proc.triggered
            self.checkpoints.add(oid)

    def _needed(self, object_ids: Iterable[str]) -> Set[str]:
        """Which of these objects some non-terminal reader (pending retries
        included) still lists as a dependency — and so still needs a directory
        entry for, or a recovery of."""
        readers = self.rt._readers
        return {
            oid
            for oid in object_ids
            if any(ctx.state not in TERMINAL_STATES for ctx in readers(oid))
        }

    def _may_go(self, oid: str, force: bool = False) -> bool:
        """The one free decision: dropping the entry under an open consumer
        makes its argument unrecoverable, so the GCS quiesces first."""
        return self.rt.ownership.contains(oid) and (force or not self._needed((oid,)))

    def free(self, object_ids: Iterable[str], force: bool) -> int:
        released = 0
        for oid in object_ids:
            if self._may_go(oid, force):
                released += self._drop(oid, site="driver" if force else "gcs")
            elif self.rt.ownership.contains(oid) and oid not in self.deferred_frees:
                self.deferred_frees.append(oid)
                self.rt._record("free_deferred", object=oid)
        return released

    def consumer_concluded(self) -> None:
        """A task reached a terminal state: it may have been the last reader
        holding up a deferred free."""
        waiting = []
        for oid in self.deferred_frees:
            if self._may_go(oid):
                self.rt._record("free_completed", object=oid, nbytes=self._drop(oid, site="gcs"))
            elif self.rt.ownership.contains(oid):
                waiting.append(oid)
        self.deferred_frees = waiting

    def _drop(self, oid: str, site: str) -> int:
        rt = self.rt
        entry = rt.ownership.entry(oid)
        released = 0
        for node_id in list(entry.locations):
            for raylet in rt._raylets_by_node.get(node_id, []):
                store = raylet.find_object(oid)
                if store is not None and store.delete(oid):
                    released += entry.nbytes
        if rt._spill_store is not None:
            rt._spill_store.delete(oid)
        if rt.reliable_cache is not None:
            rt.reliable_cache.delete(oid)
        self.checkpoints.discard(oid)
        # a quiesced free is the GCS acting after it processed every
        # consumer's done-report: same-site program order is the honest
        # happens-before edge that makes the drop race-free.  Only the
        # legacy force path keeps the racy driver attribution.
        rt._probe_site(site)
        rt.ownership.free(oid)
        rt._ctx_of_object.pop(oid, None)
        return released
