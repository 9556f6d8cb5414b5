"""The data plane: how an object's bytes reach the device that needs them.

§2.3.2's axis is who starts the move.  Under PULL the consumer's raylet
locates the object through the GCS and fetches it on demand; under PUSH the
producer's side ships it to every subscribed consumer device the moment it is
ready, one multicast tree per wave.  The three protocols here (pull, unicast
push, multicast push) differ in that, in when the fetch-dedup leader registers
and in their spans; what they share — carry the bytes to a device, put them in
its store, tell the directory — is written once (``_carry``, ``_land``).

The miss contract: a move that does not end with the copy in the destination
store — source lost before the start, a partition, a source emptied
mid-flight, a refused put — is a *miss*, reported the same way whatever went
wrong, never an exception and never a silent success.  Each protocol turns a
miss into its retry currency: a pull leaves the argument missing and
``resolve`` hands the core the count; a push interrupts the attempts still
waiting on that (object, device) arrival, and their retry re-subscribes them.

Both modes' "who waits for this commit" lives here: PUSH dispatches at once
and keeps ``subs``, the attempts awaiting a push; PULL parks a task until its
arguments are all READY and keeps ``waiting``.  A release pass rescans nothing:
it takes the parked readers of every object that turned READY since the last
pass — not only of the one being reported: the directory says READY at the
commit, one ``done`` message before the report, and another object's report in
that window is what dispatches the task — and confirms each before it goes.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterator, List, Optional, Tuple

from ..cluster.hardware import Device
from ..cluster.simtime import Signal
from .config import ResolutionMode
from .object_store import LocalObjectStore, SpillFailedError, StoreUnavailableError
from .ownership import ValueState
from .raylet import Raylet
from .task import TaskState

__all__ = ["DataPlane"]


class DataPlane:
    """Subscriptions, the waiting room, arrivals, the three protocols and the
    one mover."""

    def __init__(self, runtime: Any):  # the core (it imports this module, not the reverse)
        self.rt = runtime
        self.push_mode = runtime.config.resolution == ResolutionMode.PUSH
        # a live store holding the object, else a miss (with recovery started)
        self._source = runtime.recovery.source
        self.subs: Dict[str, List[Any]] = {}  # object -> attempts awaiting its commit
        self.arrivals: Dict[Tuple[str, str], Signal] = {}  # (object, device) landed
        # pushes of one object queued this instant, flushed as a single
        # spanning-tree distribution
        self.pending_pushes: Dict[str, List[Any]] = {}
        # PULL: task -> (parking number, ctx, preplaced), parked until every
        # argument is READY; and the objects that turned READY since the last pass
        self.waiting: Dict[str, Tuple[int, Any, bool]] = {}
        self._turned_ready: List[str] = []
        self._parkings = 0
        self._m_waiting = runtime.telemetry.registry.gauge(
            "skadi_scheduler_waiting_tasks",
            "pull-mode tasks parked waiting for dependencies",
        )
        if not self.push_mode:
            runtime.ownership.observers.append(self._note_ready)

    # -- the core's six entry points -------------------------------------------

    def hold(self, ctx: Any, preplaced: bool) -> bool:
        """At routing: under PULL a task with an argument that is not READY
        parks (keeping the devices a gang placement gave it) instead of being
        dispatched.  PUSH never holds: its attempts wait on the device."""
        if self.push_mode or self._args_ready(ctx.spec):
            return False
        self._parkings += 1
        self.waiting[ctx.spec.task_id] = (self._parkings, ctx, preplaced)
        self._m_waiting.set(float(len(self.waiting)))
        return True

    def released(self) -> Iterator[Tuple[Any, bool]]:
        """At a commit report: the parked tasks to dispatch now, as ``(ctx,
        preplaced)`` in parking order.  Lazy — each is confirmed only after
        the core dispatched the one before it, which may have concluded it."""
        if not self._turned_ready:
            return
        turned, self._turned_ready = self._turned_ready, []
        waiting = self.waiting
        due = {
            waiting[ctx.spec.task_id]
            for oid in turned
            for ctx in self.rt._readers(oid)
            if ctx.spec.task_id in waiting
        }
        for parked in sorted(due):  # by parking number: no two are equal
            _, ctx, preplaced = parked
            if waiting.get(ctx.spec.task_id) is parked and self._args_ready(ctx.spec):
                del waiting[ctx.spec.task_id]
                yield ctx, preplaced
        if due:
            self._m_waiting.set(float(len(waiting)))

    def release(self, ctx: Any) -> None:
        """At a task's conclusion: one cancelled or failed while parked stops
        waiting — no later commit may come to find it."""
        if self.waiting.pop(ctx.spec.task_id, None) is not None:
            self._m_waiting.set(float(len(self.waiting)))

    def subscribe(self, ctx: Any) -> None:
        """At dispatch (PUSH only): the attempt will wait for each argument to
        arrive on its device; one that is already ready starts moving now."""
        if not self.push_mode:
            return
        device_id = ctx.device.device_id
        local = ctx.raylet.store_of(device_id)
        for ref in ctx.spec.dependencies:
            oid = ref.object_id
            if local.contains(oid):
                self._arrived(oid, device_id)
            elif self.rt.ownership.is_ready(oid):
                self._queue_push(oid, ctx)
            else:
                self.subs.setdefault(oid, []).append(ctx)

    def resolve(
        self, ctx: Any, raylet: Raylet, device: Device, missing: List[Any]
    ) -> Generator:
        """Inside the attempt: wait until the arguments are on ``device``.
        Returns how many of ``missing`` still are not (a pull's misses)."""
        sim = self.rt.sim
        if self.push_mode:
            sigs = [self._arrival(r.object_id, device.device_id) for r in ctx.spec.dependencies]
            waits = [sig for sig in sigs if not sig.triggered]
            if waits:
                yield sim.all_of(waits)
            return 0
        if not missing:
            return 0
        pulls = [
            sim.process(self._pull(r.object_id, ctx, raylet, device), name=f"pull:{r.object_id}")
            for r in missing
        ]
        # recorded so cancellation can interrupt the fetches — a cancelled
        # leader's ``end_fetch`` releases any dedup followers riding it
        ctx.pulls = tuple(pulls)
        try:
            yield sim.all_of(pulls)
        finally:
            ctx.pulls = ()
        local = raylet.store_of(device.device_id)
        return sum(not local.contains(r.object_id) for r in missing)

    def publish(self, object_id: str) -> None:
        """At commit: start the pushes the object's subscribers wait for (a
        wave of consumers coalesces into one multicast distribution)."""
        for sub in self.subs.pop(object_id, ()):
            if sub.state is not TaskState.CANCELLED:
                self._queue_push(object_id, sub)

    # -- the waiting room (pull) -----------------------------------------------

    def _args_ready(self, spec: Any) -> bool:
        is_ready = self.rt.ownership.is_ready
        return all(is_ready(ref.object_id) for ref in spec.dependencies)

    def _note_ready(
        self, op: str, object_id: str, old: Optional[str], new: Optional[str], copies: int
    ) -> None:
        """Directory observer: a commit, a copy landing for a LOST entry and
        an HA restore are how an object turns READY.  Nobody parked, nobody to wake."""
        if new == "READY" and old != "READY" and self.waiting:
            self._turned_ready.append(object_id)

    # -- the mover -------------------------------------------------------------

    def _carry(self, src: LocalObjectStore, device_id: str, nbytes: int, label: str) -> Generator:
        """The bulk transfer.  Returns False when a partition blocked it."""
        moved = yield self.rt.net.transfer(src.device.device_id, device_id, nbytes, label=label)
        return moved is not None

    def _land(self, oid: str, src: LocalObjectStore, dst: LocalObjectStore, site: str) -> bool:
        """The bytes have crossed: put them in the destination store and tell
        the directory.  Returns whether the copy is there."""
        if dst.contains(oid):
            return True
        if not src.contains(oid) or not self.rt.ownership.contains(oid):
            return False  # a crash emptied the source mid-flight / the entry is gone
        record = src.get(oid)
        try:
            dst.put(oid, record.value, record.nbytes)
        except (SpillFailedError, StoreUnavailableError):
            return False  # refused: nowhere to spill, or the device died under us
        self.rt._probe_site(site)  # no yield between this and the mutation
        self.rt.ownership.add_location(oid, dst.node_id)
        return True

    def _join(
        self, pending: Signal, raylet: Raylet, device_id: str, oid: str, site: str
    ) -> Generator:
        """Ride the fetch already bringing the object to this device instead
        of paying the bytes again."""
        raylet.note_deduped_fetch(device_id, oid)
        yield pending
        if self.rt.probe is not None:
            self.rt.probe.fetch_join(site, oid, device_id)

    def _span(self, name: str, ctx: Any, device: Device, **attrs: Any) -> Any:
        """A transfer span under the attempt's task span, on its device."""
        return self.rt.telemetry.tracer.start_span(
            name, "transfer", parent=self.rt._span_of(ctx),
            node=device.node_id, device=device.device_id, **attrs,
        )

    # -- push ------------------------------------------------------------------

    def _arrival(self, oid: str, device_id: str) -> Signal:
        sig = self.arrivals.get((oid, device_id))
        if sig is None:
            sig = self.arrivals[oid, device_id] = Signal(self.rt.sim)
        return sig

    def _arrived(self, oid: str, device_id: str) -> None:
        sig = self._arrival(oid, device_id)
        if not sig.triggered:
            sig.succeed()

    def _missed(self, oid: str, device_id: str) -> None:
        """A push did not land: every attempt still waiting on this arrival
        (not just the one whose subscription started the push) retries."""
        if not self._arrival(oid, device_id).triggered:
            self.rt._interrupt_attempts(
                lambda c: c.device.device_id == device_id,
                f"push of {oid} to {device_id} missed",
                among=self.rt._readers(oid),
            )

    def _queue_push(self, oid: str, ctx: Any) -> None:
        """Start (or coalesce) a push of one object to one consumer.  Pushes
        of the same object queued at the same virtual instant are flushed one
        event later as a single spanning-tree distribution (a unicast when
        only one device is waiting)."""
        batch = self.pending_pushes.setdefault(oid, [])
        batch.append(ctx)
        if len(batch) == 1:
            self.rt.sim.schedule(0.0, self._flush_pushes, oid)

    def _flush_pushes(self, oid: str) -> None:
        by_dev: Dict[str, Any] = {}
        for ctx in self.pending_pushes.pop(oid, ()):
            if ctx.device is not None:  # else between attempts: its retry re-subscribes
                by_dev.setdefault(ctx.device.device_id, ctx)
        if len(by_dev) == 1:
            # a single consumer device: a tree would degenerate to the route
            ((device_id, ctx),) = by_dev.items()
            self.rt.sim.process(
                self._push(oid, ctx, ctx.device), name=f"push:{oid}->{device_id}"
            )
        elif by_dev:
            self.rt.sim.process(self._multicast(oid, sorted(by_dev)), name=f"mcast:{oid}")

    def _push(self, oid: str, ctx: Any, device: Device) -> Generator:
        """Producer-side proactive push of one object to one consumer device."""
        rt, device_id = self.rt, device.device_id
        if self._arrival(oid, device_id).triggered:
            return
        raylet = rt._raylet_of_device[device_id]
        dst_store = raylet.store_of(device_id)
        site = f"push:{oid}->{device_id}"
        if rt.probe_edges is not None:
            rt.probe_edges.push_start(site, oid)
        pending = raylet.pending_fetch(oid, device_id)
        if pending is not None:
            # another push is already moving this object here; should it
            # miss, its miss reaches every waiter on the arrival, ours included
            yield from self._join(pending, raylet, device_id, oid, site)
            if dst_store.contains(oid):
                self._arrived(oid, device_id)
            return
        src_store = self._source(oid)
        landed = src_store is not None
        if landed and src_store is not dst_store:
            # nothing is pending here (checked above, no yield since), so this
            # push leads, around the transfer only: concurrent pushes ride it
            nbytes = rt.ownership.entry(oid).nbytes
            raylet.begin_fetch(oid, device_id)
            span = self._span(f"push:{oid}", ctx, device, object_id=oid, nbytes=nbytes)
            try:
                crossed = yield from self._carry(src_store, device_id, nbytes, f"push:{oid}")
            finally:
                span.finish(rt.sim.now)
                raylet.end_fetch(oid, device_id)
            landed = crossed and self._land(oid, src_store, dst_store, site)
        if landed:
            self._arrived(oid, device_id)
        else:
            self._missed(oid, device_id)

    def _multicast(self, oid: str, device_ids: List[str]) -> Generator:
        """Distribute one ready object to a wave of consumer devices along a
        spanning tree: each fabric link serializes the payload once, however
        many consumers sit behind it."""
        rt = self.rt
        src_store = self._source(oid)
        if src_store is None:
            for device_id in device_ids:
                self._missed(oid, device_id)
            return
        src_dev = src_store.device.device_id
        legs: Dict[str, Raylet] = {}  # the devices the bytes must travel to
        for device_id in device_ids:
            if self._arrival(oid, device_id).triggered:
                continue
            raylet = rt._raylet_of_device[device_id]
            if device_id == src_dev or raylet.store_of(device_id).contains(oid):
                self._arrived(oid, device_id)
            else:
                legs[device_id] = raylet
        if not legs:
            return
        nbytes = rt.ownership.entry(oid).nbytes
        site = f"mcast:{oid}"
        if rt.probe_edges is not None:
            rt.probe_edges.push_start(site, oid, targets=len(legs))
        # a leg leads the fetch-dedup registry only where nothing is pending
        # (concurrent pushes of the object ride this distribution); it never joins
        led = [d for d, raylet in legs.items() if raylet.pending_fetch(oid, d) is None]
        for device_id in led:
            legs[device_id].begin_fetch(oid, device_id)
        span = rt.telemetry.tracer.start_span(
            site, "transfer", object_id=oid, nbytes=nbytes, consumers=len(legs)
        )
        try:
            delivered = yield rt.net.multicast(src_dev, list(legs), nbytes, label=f"push:{oid}")
        finally:
            span.finish(rt.sim.now)
            for device_id in led:
                legs[device_id].end_fetch(oid, device_id)
        for device_id, raylet in legs.items():
            # a leg the partition cut off was never delivered
            if device_id in delivered and self._land(
                oid, src_store, raylet.store_of(device_id), site
            ):
                self._arrived(oid, device_id)
            else:
                self._missed(oid, device_id)

    # -- pull ------------------------------------------------------------------

    def _pull(self, oid: str, ctx: Any, raylet: Raylet, device: Device) -> Generator:
        """Ray's default resolution: locate via GCS, then fetch on demand.

        Fast path: when the raylet itself manages a copy (Gen-1's DPU raylet
        owns all of its card's memory — the Figure 3 ownership extension), it
        skips the GCS and pull-request RPCs; it still pays its control
        handling and the intra-card transfer through the DPU.  Every early
        return is a miss: ``resolve`` finds the argument still absent.
        """
        rt, device_id, probe = self.rt, device.device_id, self.rt.probe
        site = "" if probe is None else probe.attempt_site(
            ctx.spec.task_id, ctx.attempt, ctx.is_clone
        )
        span = self._span(f"pull:{oid}", ctx, device, object_id=oid)
        try:
            pending = raylet.pending_fetch(oid, device_id)
            if pending is not None:
                # another consumer on this device is already fetching the
                # object; if that leader misses, so (by resolve's count) do we
                yield from self._join(pending, raylet, device_id, oid, site)
                return
            # the leader registers before its RPC pre-flight, so a follower
            # arriving during the locate joins
            raylet.begin_fetch(oid, device_id)
            try:
                src_store = raylet.find_object(oid)
                if src_store is not None:
                    yield raylet.control()
                else:
                    src_store = yield from self._locate(oid, raylet, site)
                if src_store is None or not rt.ownership.contains(oid):
                    return  # no source, or the entry vanished (failover rebuild, free)
                nbytes = rt.ownership.entry(oid).nbytes
                if (yield from self._carry(src_store, device_id, nbytes, f"pull:{oid}")):
                    self._land(oid, src_store, raylet.store_of(device_id), site)
            finally:
                raylet.end_fetch(oid, device_id)
        finally:
            span.finish(rt.sim.now)

    def _locate(self, oid: str, raylet: Raylet, site: str) -> Generator:
        """A pull's pre-flight: ask the GCS where the object is, then ask the
        raylet that has it.  Returns the source store, or None (a miss)."""
        rt = self.rt
        # 1. location lookup round-trip to the GCS
        located = yield rt.net.rpc(raylet.endpoint, rt.gcs_endpoint, label="locate")
        if located is False or not rt.gcs_up or not rt.ownership.contains(oid):
            # chaos ate the lookup, no leader is serving lookups, or the
            # entry is gone (a failover rebuild or a free dropped it)
            return None
        entry = rt.ownership.entry(oid)
        if rt.probe_edges is not None:
            # a stability-assuming read: the fetch plan built from this
            # state races with any concurrent LOST/reconcile transition
            rt.probe_edges.dir_read(site, oid, entry.state.name)
        src_store = self._source(oid) if entry.state == ValueState.READY else None
        if src_store is None:
            return None  # lost/pending, or no live copy (the fetcher's retry finds one)
        # 2. pull request round-trip to the source raylet (+ its handling
        # cost); spilled objects are served by the blade controller
        src_raylet = rt._raylet_of_device.get(src_store.device.device_id)
        src_endpoint = src_store.device.device_id if src_raylet is None else src_raylet.endpoint
        asked = yield rt.net.rpc(raylet.endpoint, src_endpoint, label="pullreq")
        if asked is False:
            return None
        if src_raylet is not None:
            yield src_raylet.control()
        return src_store
