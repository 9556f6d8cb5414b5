"""The data plane: how an object's bytes reach the device that needs them.

§2.3.2's axis is who starts the move.  Under PULL the consumer's raylet
locates the object through the GCS and fetches it on demand; under PUSH the
producer's side ships it to every waiting consumer device the moment it is
ready, one spanning tree per wave.  The two protocols differ in that, in when
the fetch-dedup leader registers and in their spans; what they share — land
the bytes in a store and tell the directory, ride a pending fetch — is
written once (``_land``, ``_join``).

The miss contract: a move that does not end with the copy in the destination
store — source lost before the start, a partition, a source emptied
mid-flight, a refused put — is a *miss*, reported the same way whatever went
wrong, never an exception and never a silent success.  Each protocol turns a
miss into its retry currency: a pull leaves the argument missing and
``resolve`` hands the core the count; a push interrupts the attempts still
waiting on that (object, device) arrival, and each retry is pushed it again.

Whether an object has reached a device is that device's store's to say, and
nobody else's.  A PUSH attempt waits only for the arguments its store lacks,
each on an *arrival* that lives only while an attempt is blocked on it: the
copy landing, or found on the device at dispatch or at a commit, fires it and
it goes; an interrupted waiter takes it along unless another attempt there
still resolves on it.  A copy an LRU spill moves off a device is offered
again, so an attempt dispatched there before the spill is pushed it back.

"Who waits for this commit" is the readers the lineage records: PUSH
dispatches at once and pushes a commit to the readers' attempts still waiting
(one whose device already holds the object, the producer's own, is signalled
at the commit as at dispatch, so a wave carries only legs with bytes to move);
PULL parks a task until its arguments are all READY and keeps ``waiting``.  A
release pass rescans nothing: it takes the parked readers of every object that
turned READY since the last pass — not only of the one being reported: the
directory says READY at the commit, one ``done`` message before the report, and
another object's report in that window is what dispatches the task — and
confirms each before it goes.
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

_AWAITING = (TaskState.SCHEDULED, TaskState.RESOLVING)  # dispatched, arguments not all in


class DataPlane:
    """The waiting room, arrivals, the two protocols and what they share."""

    def __init__(self, runtime: Any):  # the core (it imports this module, not the reverse)
        self.rt = runtime
        self.push_mode = runtime.config.resolution == ResolutionMode.PUSH
        # a live store holding the object, else a miss (with recovery started)
        self._source = runtime.recovery.source
        # (object, device) -> landed: one lives only while an attempt on that
        # device is blocked on it, and goes as it fires (the store is the record)
        self.arrivals: Dict[Tuple[str, str], Signal] = {}
        # pushes of one object queued this instant, flushed as a single
        # spanning-tree distribution
        self.pending_pushes: Dict[str, List[Any]] = {}
        # PULL: task -> (parking number, ctx, preplaced), parked until every
        # argument is READY; and the objects that turned READY since the last pass
        self.waiting: Dict[str, Tuple[int, Any, bool]] = {}
        self._turned_ready: List[str] = []
        self._parkings = 0
        reg = runtime.telemetry.registry
        self._m_waiting = reg.gauge(
            "skadi_scheduler_waiting_tasks",
            "pull-mode tasks parked waiting for dependencies",
        )
        self._m_hits = reg.series(
            "counter",
            "skadi_store_hits_total",
            "task arguments already resident on the executing device",
            "device",
        )
        self._m_misses = reg.series(
            "counter",
            "skadi_store_misses_total",
            "task arguments that had to be fetched over the fabric",
            "device",
        )
        if not self.push_mode:
            runtime.ownership.observers.append(self._note_ready)
            runtime.scheduler.fetch_overhead = self.fetch_overhead

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
        """At dispatch (PUSH only): an argument the attempt's device already
        holds needs nothing, one already ready starts moving there, and the
        rest reach it when they commit."""
        if not self.push_mode:
            return
        for ref in ctx.spec.dependencies:
            oid = ref.object_id
            if not self._held(oid, ctx) and self.rt.ownership.is_ready(oid):
                self._queue_push(oid, ctx)

    def resolve(self, ctx: Any, raylet: Raylet, device: Device) -> Generator:
        """Inside the attempt: wait until the arguments are in ``device``'s
        own store, counting the ones already there (hits) and the rest
        (misses).  Returns how many still are not (a pull's misses)."""
        deps = ctx.spec.dependencies
        local_store = raylet.store_of(device.device_id)
        missing = [ref for ref in deps if not local_store.contains(ref.object_id)]
        if len(missing) < len(deps):
            self._m_hits.of(device.device_id).inc(len(deps) - len(missing))
        if missing:
            self._m_misses.of(device.device_id).inc(len(missing))
        sim = self.rt.sim
        if self.push_mode:
            # the store is the record: wait only for what it lacks
            sigs = {r.object_id: self._arrival(r.object_id, device.device_id) for r in missing}
            try:
                if sigs:
                    yield sim.all_of(sigs.values())
            finally:
                self._stop_waiting(ctx, device.device_id, sigs)
            self.rt.probe.arrived(ctx, deps, device.device_id)
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
        """At commit, and when an LRU spill moves a copy off a device (PUSH
        only): signal the attempts still waiting for the object (its readers'
        and their speculative twins') whose device holds it, as dispatch does,
        and push it to the rest as one wave.  A device is looked up once;
        every attempt on one that lacks the object is queued, since the first
        may lose its device before the wave leaves."""
        if self.push_mode:
            held: Dict[str, bool] = {}
            for attempt in self._waiting_for(object_id):
                device_id = attempt.device.device_id
                if device_id not in held:
                    held[device_id] = self._held(object_id, attempt)
                if not held[device_id]:
                    self._queue_push(object_id, attempt)

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
        self.rt.probe.site = site  # no yield between this and the mutation
        self.rt.ownership.add_location(oid, dst.device.device_id)
        if self.push_mode:
            self.rt.probe.land(site, oid, dst.device.device_id)
        return True

    def _join(
        self, pending: Signal, raylet: Raylet, device_id: str, oid: str, site: str
    ) -> Generator:
        """Ride the fetch already bringing the object to this device instead
        of paying the bytes again."""
        raylet.note_deduped_fetch(device_id, oid)
        ended = yield pending
        # an aborted fetch (the raylet died) has no end to join
        if ended is not False:
            self.rt.probe.fetch_join(site, oid, device_id)

    def _span(self, name: str, ctx: Any, device: Device, **attrs: Any) -> Any:
        """A transfer span under the attempt's task span, on its device."""
        return self.rt.telemetry.tracer.start_span(
            name, "transfer", parent=ctx.span,
            node=device.node_id, device=device.device_id, **attrs,
        )

    # -- push ------------------------------------------------------------------

    def _waiting_for(self, oid: str) -> Iterator[Any]:
        """The attempts that wait for ``oid`` to reach their device: each
        reader's and its speculative twin's, from dispatch until their
        arguments are in (a finished reader has no ctx, and waits for nothing)."""
        for ctx in self.rt._readers(oid):
            for attempt in (ctx, ctx.twin):
                # a dispatched attempt has a device; one whose process ended
                # (a backup that stood down) has let go of it and waits for nothing
                if attempt and attempt.state in _AWAITING and attempt.proc is not None:
                    yield attempt

    def _stop_waiting(self, ctx: Any, device_id: str, sigs: Dict[str, Signal]) -> None:
        """An attempt stopped waiting: a fired arrival is already gone, and an
        interrupted one goes unless another attempt there still resolves on it."""
        for oid, sig in sigs.items():
            if self.arrivals.get((oid, device_id)) is sig and not any(
                other is not ctx
                and other.state is TaskState.RESOLVING
                and other.device.device_id == device_id
                for other in self._waiting_for(oid)
            ):
                del self.arrivals[oid, device_id]

    def _arrival(self, oid: str, device_id: str) -> Signal:
        sig = self.arrivals.get((oid, device_id))
        if sig is None:
            sig = self.arrivals[oid, device_id] = Signal(self.rt.sim)
        return sig

    def _held(self, oid: str, ctx: Any) -> bool:
        """Whether the attempt's device holds ``oid``; if so, whoever waits
        for it there wakes now."""
        device_id = ctx.device.device_id
        if not self._landed(oid, device_id):
            return False
        self._delivered(oid, device_id)
        return True

    def _landed(self, oid: str, device_id: str) -> bool:
        return self.rt._raylet_of_device[device_id].store_of(device_id).contains(oid)

    def _delivered(self, oid: str, device_id: str) -> None:
        """The object is on the device: the attempts blocked on its arrival
        there wake, and the arrival goes."""
        sig = self.arrivals.pop((oid, device_id), None)
        if sig is not None:
            sig.succeed()

    def _missed(self, oid: str, device_id: str) -> None:
        """A push did not land: every attempt still waiting on this arrival
        (not just the one whose commit or dispatch started the push) retries."""
        if not self._landed(oid, device_id):
            self.rt._interrupt_attempts(
                lambda c: c.device.device_id == device_id,
                f"push of {oid} to {device_id} missed",
                among=self.rt._readers(oid),
            )

    def _queue_push(self, oid: str, ctx: Any) -> None:
        """Start (or coalesce) a push of one object to one consumer.  Pushes
        of the same object queued at the same virtual instant are flushed one
        event later as a single wave."""
        batch = self.pending_pushes.setdefault(oid, [])
        batch.append(ctx)
        if len(batch) == 1:
            self.rt.sim.schedule(0.0, self._flush_pushes, oid)

    def _flush_pushes(self, oid: str) -> None:
        wave: Dict[str, Any] = {}  # device -> the first consumer queued there
        for ctx in self.pending_pushes.pop(oid, ()):
            if ctx.device is not None:  # else between attempts: its retry pushes again
                wave.setdefault(ctx.device.device_id, ctx)
        if wave:
            self.rt.sim.process(self._push(oid, dict(sorted(wave.items()))), name=f"push:{oid}")

    def _push(self, oid: str, wave: Dict[str, Any]) -> Generator:
        """Distribute one ready object to a wave of consumer devices along a
        spanning tree: each fabric link serializes the payload once, however
        many consumers sit behind it (one device's tree is the route).  A leg
        whose device already has a fetch of the object pending rides it; each
        other leg leads the fetch-dedup registry for the transfer."""
        rt = self.rt
        targets = [device_id for device_id in wave if not self._landed(oid, device_id)]
        if not targets:
            return
        site = f"push:{oid}"
        rt.probe.push_start(site, oid, targets=len(targets))
        legs: Dict[str, Raylet] = {}  # the devices the bytes must travel to
        for device_id in targets:
            raylet = rt._raylet_of_device[device_id]
            pending = raylet.pending_fetch(oid, device_id)
            if pending is None:
                legs[device_id] = raylet
            else:
                # a push leads it (only pushes fetch under PUSH): its landing,
                # or its miss, reaches every waiter on this arrival
                rt.sim.process(self._join(pending, raylet, device_id, oid, site), name=site)
        if not legs:
            return
        src_store = self._source(oid)
        if src_store is None:
            for device_id in legs:
                self._missed(oid, device_id)
            return
        src_dev = src_store.device.device_id
        for device_id, raylet in legs.items():
            raylet.begin_fetch(oid, device_id)
        first = next(iter(legs))
        nbytes = rt.ownership.entry(oid).nbytes
        span = self._span(
            site, wave[first], legs[first].store_of(first).device,
            object_id=oid, nbytes=nbytes, consumers=len(legs),
        )
        try:
            delivered = yield rt.net.multicast(src_dev, list(legs), nbytes, label=site)
        finally:
            span.finish(rt.sim.now)
            for device_id, raylet in legs.items():
                raylet.end_fetch(oid, device_id)
        for device_id, raylet in legs.items():
            # a leg the partition cut off was never delivered
            if device_id in delivered and self._land(
                oid, src_store, raylet.store_of(device_id), site
            ):
                self._delivered(oid, device_id)
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
        rt, device_id = self.rt, device.device_id
        site = rt.probe.attempt_site(ctx.spec.task_id, ctx.attempt, ctx.is_clone)
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
                moved = yield rt.net.transfer(
                    src_store.device.device_id, device_id, nbytes, label=f"pull:{oid}"
                )
                if moved is not None:  # else a partition blocked it
                    self._land(oid, src_store, raylet.store_of(device_id), site)
            finally:
                raylet.end_fetch(oid, device_id)
        finally:
            span.finish(rt.sim.now)

    def fetch_overhead(self, src: str, dst: str) -> float:
        """What a pull of a copy on ``src`` into ``dst`` pays besides the
        transfer, for placement to price: ``_locate``'s round trips to the GCS
        and to the copy's raylet plus that raylet's handling, or only the
        handling when ``dst``'s own raylet manages the copy."""
        rt = self.rt
        raylet, src_raylet = rt._raylet_of_device[dst], rt._raylet_of_device.get(src)
        if src_raylet is raylet:
            return raylet.host_device.spec.dispatch_overhead
        message, here = rt.net.message_time_estimate, raylet.endpoint
        there = src if src_raylet is None else src_raylet.endpoint
        cost = message(here, rt.gcs_endpoint) + message(rt.gcs_endpoint, here)
        cost += message(here, there) + message(there, here)
        if src_raylet is not None:  # else a blade controller serves the spilled copy
            cost += src_raylet.host_device.spec.dispatch_overhead
        return cost

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
        # a stability-assuming read: the fetch plan built from this state
        # races with any concurrent LOST/reconcile transition
        rt.probe.dir_read(site, oid, entry.state.name)
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
