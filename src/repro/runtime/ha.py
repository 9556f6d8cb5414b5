"""Control-plane high availability: replicated GCS metadata and failover.

The GCS — ownership table, object directory, failure detector and
blacklist state — lives on the head node, which the core alone treats as
immortal.  This module makes it killable.  The leader appends every
control-plane mutation to a write-ahead log (:class:`WalRecord`) and
flushes the un-synced tail to N standby server nodes over the simulated
network every ``SYNC_INTERVAL`` virtual seconds; the flush doubles as
the liveness beacon the standbys watch.  When ``MISS_THRESHOLD``
consecutive intervals pass without a sync, a standby calls a seeded
deterministic election: the winner bumps the fencing epoch, replays its
replica of the log to rebuild the directory and failure views, re-points
the control endpoints at itself, re-registers every live raylet (which
re-sends its store inventory and any done-reports the dead head never
acknowledged), and restarts detection.  Leases stamped with the old
epoch are rejected at the raylet (:meth:`Raylet.accepts_epoch`), so a
deposed-but-alive leader — the network-partition case — cannot corrupt
the cluster it lost.

The whole protocol — its state and every step — lives in this module.
:func:`install` builds the controller only when
``RuntimeConfig.ha_replicas > 0``; it then subscribes itself to the
runtime's lifecycle seam and to the ownership table's observers.  With
the zero default nothing is installed: the seam lists stay empty and
existing event traces replay bit-for-bit.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

from ..cluster.node import NodeKind
from .events import declare_series
from .health import STALL_TICKS
from .ownership import DRIVER, ValueState
from .task import TaskState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import ServerlessRuntime

__all__ = ["WalRecord", "HAController", "install"]

# leader -> standby WAL flush cadence in virtual seconds; the flush doubles
# as the liveness beacon the standbys watch
SYNC_INTERVAL = 1e-3
# consecutive silent sync intervals before a standby calls an election
MISS_THRESHOLD = 3
# virtual seconds the election winner spends replaying one WAL record
REPLAY_COST = 2e-7
# seed mixed with the new epoch for the deterministic winner draw
ELECTION_SEED = 0


class WalRecord:
    """One replicated control-plane mutation.

    ``detail`` is a tuple of sorted ``(key, value)`` pairs — hashable,
    deterministic to iterate, cheap to copy to a replica.
    """

    __slots__ = ("seq", "epoch", "kind", "detail")

    def __init__(self, seq: int, epoch: int, kind: str, detail: Tuple):
        self.seq = seq
        self.epoch = epoch
        self.kind = kind
        self.detail = detail

    def get(self) -> Dict[str, Any]:
        return dict(self.detail)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WalRecord({self.seq}, e{self.epoch}, {self.kind}, {dict(self.detail)})"


def install(runtime: "ServerlessRuntime") -> Optional["HAController"]:
    """The controller, subscribed to ``runtime`` — or None with no standbys."""
    if runtime.config.ha_replicas <= 0:
        return None
    return HAController(runtime)


class HAController:
    """Replicated WAL, leader liveness, election, failover, fencing epochs."""

    def __init__(self, runtime: "ServerlessRuntime") -> None:
        self.runtime = runtime
        self.cfg = config = runtime.config
        self.sim = runtime.sim
        self.net = runtime.net
        servers = [n.node_id for n in runtime.cluster.nodes_of_kind(NodeKind.SERVER)]
        if not servers:
            raise ValueError("control-plane HA needs at least one server node")
        pool = servers[1:]  # servers[0] is the runtime's initial head
        if config.ha_replicas > len(pool):
            raise ValueError(
                f"ha_replicas={config.ha_replicas} but only {len(pool)} "
                f"non-head server node(s) can host a standby"
            )
        self.standbys: List[str] = pool[: config.ha_replicas]
        self.epoch = 1
        self.wal: List[WalRecord] = []
        self._seq = 0
        # per-standby replica state (leader-side) and the virtual time of the
        # last sync each standby *received* (standby-side knowledge: this is
        # what silence is measured against)
        self.replica_logs: Dict[str, List[WalRecord]] = {s: [] for s in self.standbys}
        self.last_sync: Dict[str, float] = {}
        self.cluster_lost = False
        self.syncs_delivered = 0
        self.records_replayed = 0
        self.unavailable_since: Optional[float] = None
        self.last_unavailability: Optional[float] = None
        # set by on_leader_killed / finalized by failover: READY-object audit
        self.last_failover_report: Dict[str, Any] = {}
        self._survivable_ready: Dict[str, int] = {}
        self._active = False
        self._gen = 0  # loops from an earlier generation exit on mismatch
        self._election_running = False
        self._failover_span = None
        reg = runtime.telemetry.registry
        self._m_epoch = reg.gauge("skadi_ha_epoch", "current GCS fencing epoch")
        self._m_up = reg.gauge("skadi_ha_gcs_up", "1 while a leader is serving")
        self._m_wal = reg.counter("skadi_ha_wal_records_total", "control-plane mutations logged")
        self._m_syncs = reg.counter("skadi_ha_sync_batches_total", "WAL batches standbys received")
        declare_series(
            reg, ("ha_election_started", "ha_failover_complete", "ha_stale_lease_rejected")
        )
        self._m_unavail = reg.histogram(
            "skadi_ha_unavailability_seconds", "head-kill to failover-complete windows"
        )
        self._m_epoch.set(float(self.epoch))
        self._m_up.set(1.0)
        # subscriptions: the seam points this protocol acts at, in place
        runtime.on_route.append(self.ensure_running)
        runtime.on_dispatch.append(self._stamp_lease)
        runtime.lease_gates.append(self._fence)
        runtime.on_commit.append(self._buffer_report)
        runtime.on_done.append(self._ack_report)
        runtime.on_view_change.append(self.append)  # verdicts are leader writes
        runtime.ownership.observers.append(self._on_ownership_op)
        runtime.failures.head_lost = self.on_leader_killed  # freeze and elect

    @property
    def leader_node(self) -> str:
        return self.runtime.head_node_id

    @property
    def failovers(self) -> int:
        """Failovers completed: the log's ``ha_failover_complete`` records."""
        return self.runtime.log.count("ha_failover_complete")

    # -- the write-ahead log --------------------------------------------------

    def append(self, kind: str, **detail: Any) -> None:
        """Log one leader write.  No-ops while no leader is serving: a dead
        head cannot make its mutations durable — that window is exactly what
        re-registration recovers."""
        if not self.runtime.gcs_up or self.cluster_lost:
            return
        self._seq += 1
        self.wal.append(
            WalRecord(self._seq, self.epoch, kind, tuple(sorted(detail.items())))
        )
        self._m_wal.inc()

    def _on_ownership_op(
        self, op: str, object_id: str, old: Optional[str], new: Optional[str], locs: int, site: str
    ) -> None:
        """Directory observer: snapshot the entry after every mutation.

        The WAL stores full snapshots rather than deltas, so replay is a
        last-write-wins upsert and needs no per-op semantics.
        """
        if new is None:  # freed
            self.append("own_drop", object=object_id)
            return
        e = self.runtime.ownership.entry(object_id)
        self.append(
            "own",
            object=object_id,
            owner=e.owner,
            task=e.task_id,
            state=e.state.name,
            nbytes=e.nbytes,
            locations=tuple(sorted(e.locations)),
            device=e.device_id,
        )

    # -- leases and done-reports (the per-task half of the protocol) ----------

    def _stamp_lease(self, ctx: Any) -> None:
        """Fencing: the lease carries the granting leader's epoch, and the
        grant itself is a replicated control-plane write."""
        ctx.lease_epoch = self.epoch
        self.append(
            "lease",
            task=ctx.spec.task_id,
            attempt=ctx.attempt,
            device=ctx.device.device_id,
            epoch=self.epoch,
        )

    def _fence(self, ctx: Any, raylet: Any) -> Optional[str]:
        """Split-brain fencing at the raylet: a lease stamped with an older
        epoch than the raylet has observed came from a deposed leader."""
        rt = self.runtime
        accepted = raylet.accepts_epoch(ctx.lease_epoch)
        if not accepted:
            rt._record(
                "ha_stale_lease_rejected",
                task=ctx.spec.task_id,
                lease_epoch=ctx.lease_epoch,
                raylet_epoch=raylet.gcs_epoch,
                endpoint=raylet.endpoint,
            )
        # an accepted lease is in no record: emitted here
        rt.probe.ha_fence(raylet.endpoint, ctx.lease_epoch, raylet.gcs_epoch, accepted)
        if not accepted:
            return f"lease epoch {ctx.lease_epoch} fenced (raylet saw {raylet.gcs_epoch})"
        raylet.observe_epoch(ctx.lease_epoch)
        return None

    @staticmethod
    def _report(ctx: Any, device: Any, committed: List[Tuple]) -> Tuple:
        """One done-report for every output the attempt committed."""
        outputs = tuple((oid, nbytes) for oid, _value, nbytes in committed)
        return (ctx.spec.task_id, device.device_id, outputs)

    def _buffer_report(self, ctx: Any, device: Any, committed: List[Tuple]) -> None:
        """The raylet holds the ready-report until the GCS acks it; a head
        that dies before acking gets it re-sent to the new leader at
        re-registration."""
        ctx.raylet.buffer_report(self._report(ctx, device, committed))

    def _ack_report(self, ctx: Any, device: Any, committed: List[Tuple], delivered: Any) -> None:
        if delivered is not False and self.runtime.gcs_up:
            ctx.raylet.ack_report(self._report(ctx, device, committed))

    # -- lifecycle ------------------------------------------------------------

    def _endpoint(self, node_id: str) -> str:
        return self.runtime.cluster.node(node_id).attachment_endpoint

    def _node_alive(self, node_id: str) -> bool:
        return any(
            r.alive for r in self.runtime._raylets_by_node.get(node_id, [])
        )

    def _live(self, gen: int) -> bool:
        return self._gen == gen and not self.cluster_lost

    def ensure_running(self) -> None:
        """Start (or restart) the sync pump and standby watch loops; called
        whenever work is routed, mirroring the heartbeat monitor."""
        if self._active or self.cluster_lost:
            return
        self._active = True
        self._gen += 1
        gen = self._gen
        now = self.sim.now
        for standby in self.standbys:
            self.last_sync.setdefault(standby, now)
            self.sim.process(
                self._watch_loop(standby, gen), name=f"ha:watch:{standby}"
            )
        self.sim.process(self._sync_loop(gen), name="ha:sync")

    def _restart_loops(self) -> None:
        self._active = False
        self._gen += 1
        self.ensure_running()

    # -- replication ----------------------------------------------------------

    def _sync_loop(self, gen: int) -> Generator:
        """Leader-side pump: every interval, ship the un-synced WAL tail to
        each standby as one message.  The batch is also the liveness beacon —
        an idle leader still syncs (empty batches), so silence means death
        or partition, never mere quiet."""
        stall = 0
        progress = self.runtime._progress_counter()
        while self._live(gen) and self.runtime._has_pending_work():
            yield self.sim.timeout(SYNC_INTERVAL)
            if not self._live(gen):
                return
            if not self.runtime.gcs_up:
                return  # the leader is dead; only the watch loops matter now
            leader_ep = self._endpoint(self.leader_node)
            for standby in list(self.standbys):
                delivered = yield self.net.message(
                    leader_ep, self._endpoint(standby), label="ha-sync"
                )
                if not self._live(gen) or not self.runtime.gcs_up:
                    return
                if delivered is False or not self._node_alive(standby):
                    continue
                replica = self.replica_logs.get(standby)
                if replica is None:
                    continue  # elected leader while this batch was in flight
                tail = self.wal[len(replica):]
                replica.extend(tail)
                self.last_sync[standby] = self.sim.now
                self.syncs_delivered += 1
                self._m_syncs.inc()
            latest = self.runtime._progress_counter()
            stall = stall + 1 if latest == progress else 0
            progress = latest
            if stall >= STALL_TICKS:
                # nothing is moving: park the pump (like the heartbeat
                # detector) so the simulation can drain and the driver's
                # get() can run its recovery pass
                self.runtime._record("ha_pump_stalled", loop="sync", ticks=stall)
                break
        if self._gen == gen:
            self._active = False

    # -- detection and election ----------------------------------------------

    def _watch_loop(self, node_id: str, gen: int) -> Generator:
        """Standby-side: count silent sync intervals; elect on the threshold."""
        deadline = MISS_THRESHOLD * SYNC_INTERVAL
        stall = 0
        progress = self.runtime._progress_counter()
        while self._live(gen) and self.runtime._has_pending_work():
            yield self.sim.timeout(SYNC_INTERVAL)
            if not self._live(gen):
                return
            if node_id == self.leader_node:
                return  # this standby won an election; it no longer watches
            if not self._node_alive(node_id):
                # a dead standby detects nothing — and if the leader is down
                # too and no standby anywhere is breathing, nobody is left to
                # rebuild the control plane: the cluster is lost, not waiting
                if not self.runtime.gcs_up and not any(
                    self._node_alive(s) for s in self.standbys
                ):
                    self._declare_cluster_lost("no live standby to elect")
                    return
                continue
            silent = self.sim.now - self.last_sync.get(node_id, 0.0)
            if silent > deadline and not self._election_running:
                self._election_running = True
                self.sim.process(
                    self._election(node_id, gen), name=f"ha:elect:{node_id}"
                )
            latest = self.runtime._progress_counter()
            stall = stall + 1 if latest == progress else 0
            progress = latest
            if stall >= STALL_TICKS and self.runtime.gcs_up and not self._election_running:
                # park only while a live leader is serving — a standby must
                # never stop watching mid-outage, that is its whole job
                self.runtime._record(
                    "ha_pump_stalled", loop=f"watch:{node_id}", ticks=stall
                )
                break
        if self._gen == gen:
            self._active = False

    def _election(self, initiator: str, gen: int) -> Generator:
        """Seeded deterministic election + failover, run by the initiator."""
        rt = self.runtime
        try:
            new_epoch = self.epoch + 1
            candidates = sorted(
                s for s in self.standbys
                if s != self.leader_node and self._node_alive(s)
            )
            if not candidates:
                self._declare_cluster_lost("no live standby to elect")
                return
            rt._record(
                "ha_election_started",
                initiator=initiator,
                epoch=new_epoch,
                candidates=candidates,
            )
            if self._failover_span is None:
                # partition-triggered election: the window opens here
                self._failover_span = rt.telemetry.tracer.start_span(
                    "ha-failover", "control", epoch=new_epoch, cause="sync silence"
                )
            # one vote round-trip from the initiator to each peer candidate:
            # agreement pays the fabric before anyone leads
            init_ep = self._endpoint(initiator)
            for peer in candidates:
                if peer == initiator:
                    continue
                yield self.net.rpc(init_ep, self._endpoint(peer), label="ha-vote")
            if not self._live(gen):
                return
            rng = random.Random((ELECTION_SEED << 16) ^ new_epoch)
            while True:
                winner = rng.choice(candidates)
                log = list(self.replica_logs.get(winner, ()))
                if log:
                    yield self.sim.timeout(REPLAY_COST * len(log))
                self.records_replayed += len(log)
                if self._node_alive(winner):
                    break
                # the winner died during the vote or its replay: a dead node
                # must not lead, so draw again among the live candidates
                candidates = [s for s in candidates if self._node_alive(s)]
                if not candidates:
                    if not self.cluster_lost:
                        self._declare_cluster_lost("no live standby to elect")
                    return
            yield from self._complete_failover(winner, new_epoch, log)
        finally:
            self._election_running = False

    # -- failover -------------------------------------------------------------

    def _complete_failover(
        self, winner: str, new_epoch: int, log: List[WalRecord]
    ) -> Generator:
        """The election winner becomes the head: rebuild control state from
        its WAL replica, adopt leadership under the bumped fencing epoch,
        re-point the control endpoints, re-register the driver and every
        live raylet, reconcile, restart detection, release parked work."""
        rt = self.runtime
        self._rebuild_control_state(log)
        # adopt *before* re-registration so everything the raylets report
        # lands in the new leader's WAL under the new epoch
        self.adopt(winner, new_epoch, log)
        rt._record("ha_leader_elected", epoch=new_epoch, node=winner, wal_records=len(log))
        self._reregister_driver()
        yield from self._reregister_raylets(rt.gcs_endpoint, new_epoch)
        if self.cluster_lost:
            return  # the new leader was killed with no standby left behind it
        self._reconcile_after_failover()
        if rt.health is not None:
            # the detector restarts seeded with the rebuilt dead-node view —
            # the dead old head gets no grace period it has not earned
            rt.health.reset_for_failover(set(rt.failures.dead_nodes))
        self.on_failover_complete()
        rt._record("ha_failover_complete", epoch=new_epoch, node=winner)
        rt._resume_parked()

    def _rebuild_control_state(self, log: List[WalRecord]) -> None:
        """Replay a WAL replica into fresh control-plane state.

        Records carry full snapshots, so replay is a last-write-wins forward
        pass.  Verdict records go through the failure view's only mutator:
        they rebuild the *views* (dead sets, blacklist) without re-running
        the reactions — the ownership snapshots in the same log already
        reflect every drop the old leader performed, and interrupts/actor
        restores happened on the old watch."""
        rt = self.runtime
        rt.ownership.clear()
        rt.failures.reset_view()
        for rec in log:
            d = rec.get()
            if rec.kind == "own":
                rt.ownership.restore(
                    d["object"],
                    d["owner"],
                    d["task"],
                    ValueState[d["state"]],
                    d["nbytes"],
                    d["locations"],
                    d["device"],
                )
            elif rec.kind == "own_drop":
                rt.ownership.remove(d["object"])
            elif rec.kind != "lease":  # leases are a fencing audit; no replay
                rt.failures.apply_view(rec.kind, **d)

    def _reregister_driver(self) -> None:
        """The driver re-asserts every ref it still holds: objects created in
        the un-synced window before the kill never reached a replica, so
        their entries come back as PENDING and the normal machinery — retry,
        re-sent done-reports, lineage — re-materializes them."""
        rt = self.runtime
        for oid in sorted(rt._ctx_of_object):
            ctx = rt._ctx_of_object[oid]
            if ctx.state in (TaskState.FAILED, TaskState.CANCELLED):
                continue
            if rt.ownership.contains(oid):
                continue
            rt.ownership.restore(
                oid, DRIVER, ctx.spec.task_id, ValueState.PENDING, 0, (), None
            )

    def _reregister_raylets(self, winner_ep: str, epoch: int) -> Generator:
        """Every live raylet re-registers with the new leader: it learns the
        fencing epoch, re-sends the done-reports the dead head never acked
        (commits the WAL missed), and reports its store inventory so every
        surviving copy re-enters the directory."""
        rt = self.runtime
        for raylet in sorted(
            (r for r in rt._raylets if r.alive), key=lambda r: r.endpoint
        ):
            delivered = yield self.net.rpc(
                winner_ep, raylet.endpoint, label="ha-register"
            )
            if delivered is False or not raylet.alive:
                continue
            raylet.observe_epoch(epoch)
            yield raylet.control()
            for report in raylet.unacked_reports():
                task_id, device_id, outputs = report
                store = rt._store_of_device.get(device_id)
                for oid, nbytes in outputs:
                    if not rt.ownership.contains(oid):
                        rt.ownership.restore(
                            oid, DRIVER, task_id, ValueState.PENDING, 0, (), None
                        )
                    if store is not None and store.contains(oid):
                        rt.ownership.mark_ready(oid, device_id, nbytes)
                raylet.ack_report(report)
            for dev_id in sorted(raylet.stores):
                device = rt._device_by_id.get(dev_id)
                if device is None or not device.alive:
                    continue
                store = raylet.stores[dev_id]
                for oid, stored in list(store._objects.items()):
                    if not rt.ownership.contains(oid):
                        continue  # freed, or a put the driver no longer holds
                    entry = rt.ownership.entry(oid)
                    if entry.state in (ValueState.READY, ValueState.LOST):
                        rt.ownership.add_location(oid, dev_id)
                    elif entry.state == ValueState.PENDING:
                        ctx = rt._ctx_of_object.get(oid)
                        if ctx is not None and ctx.state == TaskState.FINISHED:
                            rt.ownership.mark_ready(oid, dev_id, stored.nbytes)

    def _reconcile_after_failover(self) -> None:
        """PENDING entries whose producing task FINISHED but whose bytes
        survive on no live device: the commit landed and then died with its
        only copy.  Mark them LOST so lineage replay (or a driver ``get``)
        rebuilds them instead of waiting on a task that will never re-run."""
        rt = self.runtime
        lost: List[str] = []
        for entry in sorted(rt.ownership.objects(), key=lambda e: e.object_id):
            if entry.state is ValueState.LOST:
                lost.append(entry.object_id)
                continue
            if entry.state is not ValueState.PENDING:
                continue
            ctx = rt._ctx_of_object.get(entry.object_id)
            if ctx is None or ctx.state is not TaskState.FINISHED:
                continue
            rt.ownership.restore(
                entry.object_id,
                entry.owner,
                entry.task_id,
                ValueState.LOST,
                entry.nbytes,
                (),
                None,
            )
            lost.append(entry.object_id)
        # a consumer parked in backoff (or about to requeue) would otherwise
        # wait forever on an object no task will ever produce again
        rt.recovery.objects_lost(lost)

    # -- leader death and adoption --------------------------------------------

    def on_leader_killed(self, node_id: str) -> None:
        """The head node died (``FailureDomains.head_lost``, re-pointed here).
        Freeze the control plane: stop detection (a dead GCS counts
        nothing), park new dispatches, and let the standbys' watch loops
        notice the sync silence."""
        rt = self.runtime
        if not rt.gcs_up:
            return
        rt.gcs_up = False
        self._m_up.set(0.0)
        self.unavailable_since = self.sim.now
        # audit baseline for the zero-lost-READY claim: READY objects whose
        # bytes survive somewhere other than the dying head are the ones a
        # correct failover must bring back
        devices = rt._device_by_id
        self._survivable_ready = {
            e.object_id: e.nbytes
            for e in rt.ownership.objects()
            if e.state.name == "READY"
            and any(devices[store_id].node_id != node_id for store_id in e.locations)
        }
        if rt.health is not None:
            rt.health.pause()
        self._failover_span = rt.telemetry.tracer.start_span(
            "ha-failover", "control", epoch=self.epoch, cause="head killed"
        )
        if not self.standbys:
            # an earlier election used up the last standby: nobody is left
            # to watch the silence, let alone to elect
            self._declare_cluster_lost("no live standby to elect")
            return
        # the watch loops may have drained during an idle gap; the kill is
        # itself the event that must restart them
        self.ensure_running()

    def adopt(self, winner: str, new_epoch: int, log: List[WalRecord]) -> None:
        """Install the election winner: new epoch, new leader (the control
        endpoints re-point at it), the replayed replica becomes the
        authoritative WAL, surviving standbys re-sync from scratch (one
        batched flush catches them up)."""
        rt = self.runtime
        self.epoch = new_epoch
        rt.head_node_id = winner
        rt.gcs_endpoint = rt.scheduler.endpoint = self._endpoint(winner)
        self.standbys = [s for s in self.standbys if s != winner]
        self.wal = list(log)
        self._seq = len(self.wal)
        self.replica_logs = {s: [] for s in self.standbys}
        now = self.sim.now
        self.last_sync = {s: now for s in self.standbys}
        rt.gcs_up = True
        self.cluster_lost = False
        self._m_epoch.set(float(new_epoch))
        self._m_up.set(1.0)

    def on_failover_complete(self) -> None:
        rt = self.runtime
        restored = {
            e.object_id
            for e in rt.ownership.objects()
            if e.state.name == "READY"
        }
        survivable = set(self._survivable_ready)
        lost = sorted(survivable - restored)
        self.last_failover_report = {
            "epoch": self.epoch,
            "leader": self.leader_node,
            "ready_survivable": len(survivable),
            "ready_restored": len(survivable & restored),
            "ready_lost": len(lost),
            "lost_objects": lost,
            "wal_records": len(self.wal),
        }
        self._survivable_ready = {}
        if self.unavailable_since is not None:
            window = self.sim.now - self.unavailable_since
            self.last_unavailability = window
            self._m_unavail.observe(window)
            self.unavailable_since = None
        if self._failover_span is not None:
            self._failover_span.finish(self.sim.now)
            self._failover_span = None
        self._restart_loops()

    def _declare_cluster_lost(self, reason: str) -> None:
        """Every standby is gone too: nothing can rebuild the control plane."""
        rt = self.runtime
        self.cluster_lost = True
        self._m_up.set(0.0)
        rt._record("ha_cluster_lost", reason=reason)
        if self._failover_span is not None:
            self._failover_span.finish(self.sim.now)
            self._failover_span = None
        rt._fail_open_tasks(f"control plane lost: {reason}")
