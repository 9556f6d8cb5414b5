"""The stateful serverless runtime: Skadi's execution engine.

This is the paper's §2.3 built over the simulated cluster: a centralized
scheduler plus raylets (per-node in Gen-1, per-device in Gen-2), futures
resolved by a pull- or push-based protocol, a heterogeneity-aware ownership
table, per-device plasma stores with spill to disaggregated memory, lineage
or reliable-cache fault tolerance, and task/actor APIs.

Tasks carry real Python payloads — results are genuine values — while the
simulator charges virtual time for every control message, data transfer,
and device-seconds of compute, so the same run yields both correct answers
and performance shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Generator, List, Optional, Sequence, Tuple

from ..caching.kv import estimate_nbytes
from ..caching.store import CachingLayer, CacheNode
from ..cluster.cluster import Cluster
from ..cluster.durable import DurableStore
from ..cluster.hardware import Device, DeviceKind
from ..cluster.node import NodeKind
from ..cluster.simtime import Interrupt, Signal
from ..telemetry import Telemetry
from ..telemetry.critical_path import CriticalPathResult
from ..telemetry.critical_path import critical_path as extract_critical_path
from ..telemetry.spans import Span
from . import ha, overload
from .actors import ActorHandle, Actors
from .config import Generation, RuntimeConfig
from .dataplane import DataPlane
from .events import EventLog, RuntimeEvent
from .failures import FailureDomains
from .health import HeartbeatMonitor
from .ids import IdGenerator
from .lineage import LineageGraph, UnrecoverableObjectError
from .object_ref import ObjectRef, replace_refs
from .object_store import LocalObjectStore, SpillFailedError, StoreUnavailableError
from .ownership import DRIVER, OwnershipTable
from .raylet import Raylet
from .recovery import Recovery
from .scheduler import PlacementError, Scheduler
from .supervision import Supervisor
from .task import IN_FLIGHT_STATES, TERMINAL_STATES, TaskSpec, TaskState

__all__ = [
    "ServerlessRuntime",
    "ActorHandle",
    "TaskError",
    "TaskCancelledError",
    "GetTimeoutError",
    "TaskTimeline",
]

_TERMINAL = TERMINAL_STATES

# The lifecycle seam: one plain list per point on the runtime, called in list
# order at a fixed position in the task lifecycle.  DESIGN.md "Runtime core and
# components" tabulates each point's position, signature and subscribers.
SEAM = (
    "submit_gates", "on_task_open", "on_route", "dispatch_gates", "on_dispatch",
    "lease_gates", "on_commit", "on_done", "on_task_closed", "on_task_finished",
    "on_device_fault", "retry_gates", "on_attempt_concluded", "on_view_change",
    "on_view_rebuilt",
)


class TaskError(RuntimeError):
    """A task payload raised; surfaces at ``get``."""


class TaskCancelledError(TaskError):
    """The task (or an ancestor) was cancelled; surfaces at ``get``."""


class GetTimeoutError(TimeoutError):
    """``get(timeout=...)`` expired with refs still unresolved."""


class _TransientTaskError(Exception):
    """An attempt-level protocol failure (lost lease, failed fetch) that the
    retry policy — not the application — should absorb."""


class _DeadlineExceededError(Exception):
    """An attempt noticed its task's deadline already passed — the raylet
    skips the doomed work and the task is cancelled, not retried."""


@dataclass
class TaskTimeline:
    """Per-task virtual-time milestones (benchmark raw material)."""

    task_id: str
    name: str
    submitted: float = 0.0
    dispatched: float = 0.0  # lease reached the raylet
    inputs_ready: float = 0.0  # all arguments local
    started: float = 0.0  # device slot acquired
    finished: float = 0.0
    device_id: str = ""

    @property
    def input_stall(self) -> float:
        """Time spent waiting for arguments — pull vs push attacks this."""
        return self.inputs_ready - self.dispatched

    @property
    def latency(self) -> float:
        return self.finished - self.submitted


class _TaskCtx:
    """Book-keeping for one in-flight task."""

    __slots__ = (
        "spec", "ref", "device", "raylet", "done", "state", "timeline",
        "error", "proc", "attempt", "retries", "twin", "is_clone",
        "span", "pulls", "admitted", "admit_raylet", "lease_epoch",
    )

    def __init__(self, spec: TaskSpec, ref: ObjectRef, done: Signal):
        self.spec = spec
        self.ref = ref
        self.device: Optional[Device] = None
        self.raylet: Optional[Raylet] = None
        self.done = done
        self.state = TaskState.PENDING
        self.timeline = TaskTimeline(spec.task_id, spec.name)
        self.error: Optional[str] = None
        self.proc = None
        self.attempt = 0  # bumped per dispatch (watchdogs key off this)
        self.retries = 0  # transient-failure retries consumed
        self.twin: Optional["_TaskCtx"] = None  # speculative copy, if any
        self.is_clone = False
        self.span: Optional[Span] = None  # causal task span (telemetry)
        self.pulls: Tuple = ()  # this attempt's in-flight pull processes
        self.admitted = False  # holds a scheduler-level admission slot
        self.admit_raylet: Optional[Raylet] = None  # holds a raylet window slot
        self.lease_epoch = 0  # GCS fencing epoch stamped at dispatch (HA)


class ServerlessRuntime:
    """The distributed task execution engine over a simulated cluster."""

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[RuntimeConfig] = None,
        reliable_cache: Optional[CachingLayer] = None,
        durable_store: Optional["DurableStore"] = None,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.net = cluster.network
        self.config = config or RuntimeConfig()
        if self.config.sim_fast_forward:
            # Opt-in analytic idle fast-forward (see RuntimeConfig): the
            # kernel jumps over instants holding only poller ticks.
            self.sim.fast_forward = True
        self.reliable_cache = reliable_cache
        self.durable_store = durable_store
        self.ids = IdGenerator()
        # the telemetry plane must exist before raylets/stores are built so
        # the lower layers can be handed their (duck-typed) registries
        self.telemetry = Telemetry(clock=lambda: self.sim.now)
        self.net.metrics = self.telemetry.registry
        self.ownership = OwnershipTable()
        self.lineage = LineageGraph()
        # a component that is switched off is never constructed, so its
        # seam lists stay empty
        for point in SEAM:
            setattr(self, point, [])
        # the node hosting the GCS (an HA failover re-points it), whether a
        # leader is serving there, and the dispatches parked while none is
        servers = cluster.nodes_of_kind(NodeKind.SERVER)
        self.head_node_id: str = (servers or list(cluster.nodes.values()))[0].node_id
        self.gcs_up = True
        self._parked: List[_TaskCtx] = []

        self._raylets: List[Raylet] = []
        self._raylet_of_device: Dict[str, Raylet] = {}
        self._raylets_by_node: Dict[str, List[Raylet]] = {}
        self.recovery = Recovery(self)  # always: an object can always be lost
        self._build_raylets()

        self.gcs_endpoint = cluster.node(self.head_node_id).attachment_endpoint
        schedulable = [
            dev
            for dev in self.cluster.all_devices()
            if dev.kind in (DeviceKind.CPU, DeviceKind.GPU, DeviceKind.FPGA)
            and dev.device_id in self._raylet_of_device
        ]
        self.scheduler = Scheduler(
            cluster,
            self.ownership,
            self.config.scheduling,
            schedulable,
            endpoint=self.gcs_endpoint,
            metrics=self.telemetry.registry,
        )
        self.scheduler.alive_filter = self._device_alive

        self._ctxs: Dict[str, _TaskCtx] = {}
        self._ctx_of_object: Dict[str, _TaskCtx] = {}
        self._gangs: Dict[str, List[_TaskCtx]] = {}
        self.data = DataPlane(self)  # always: objects always move
        self.actors = Actors(self)  # always: an actor can always be created
        self.failures = FailureDomains(self)  # always: a fault can always happen
        self.supervisor = Supervisor(self)  # always: an attempt can always fail
        self.timelines: List[TaskTimeline] = []
        self.tasks_finished = 0
        self.tasks_failed = 0
        self.tasks_retried = 0
        self._open_tasks = 0  # not yet FINISHED/FAILED (heartbeat liveness)
        self.log = EventLog()
        # every event-log record mirrors into skadi_incidents_total, so
        # EventLog.counts() and the metrics plane agree by construction
        self.log.add_observer(self._on_incident)
        reg = self.telemetry.registry
        self._m_submitted = reg.counter(
            "skadi_tasks_submitted_total", "tasks submitted to the runtime"
        )
        self._m_finished = reg.counter(
            "skadi_tasks_finished_total", "tasks that committed a result"
        )
        self._m_failed = reg.counter(
            "skadi_tasks_failed_total", "tasks that permanently failed"
        )
        self._m_replays = reg.counter(
            "skadi_lineage_replays_total", "tasks re-executed to rebuild lost objects"
        )
        self._m_latency = reg.histogram(
            "skadi_task_latency_seconds", "submit-to-finish latency per task"
        )
        self._m_stall = reg.histogram(
            "skadi_task_input_stall_seconds",
            "dispatch-to-inputs-ready stall per task (pull vs push attacks this)",
        )
        self.tasks_cancelled = 0
        self.tasks_shed = 0
        # -- overload control (repro.runtime.overload): installed only when
        # one of its switches is on; None otherwise
        self.overload = overload.install(self)
        # observers poked whenever an object becomes ready (chaos uses this
        # for reactive fault injection: "kill the node when X materializes")
        self.object_ready_hooks: List[Callable[[str], None]] = []
        self.health: Optional[HeartbeatMonitor] = None
        if self.config.heartbeat_interval is not None:
            self.health = HeartbeatMonitor(
                self,
                self.config.heartbeat_interval,
                self.config.heartbeat_miss_threshold,
            )
        # -- distributed sanitizer ("Skadi-TSan"): built only when asked for,
        # so the empty default adds no state and no events — every hook below
        # is a ``probe is not None`` check on its legacy path.
        self.probe = None
        # handle for the hooks that only induce happens-before edges; stays
        # None in invariants-only mode so those (hot) call sites skip even
        # their argument evaluation
        self.probe_edges = None
        if self.config.sanitizers:
            from ..analysis.dist.probe import DistProbe  # lazy: analysis is optional

            self.probe = DistProbe(
                self.config.sanitizers,
                clock=lambda: self.sim.now,
                meta={"config": self.config.describe()},
            )
            if self.probe.any_live(*DistProbe.HB_EDGE_KINDS):
                self.probe_edges = self.probe
            self.ownership.observers.append(self.probe.ownership_op)
            for raylet in self._raylets:
                raylet.probe = self.probe
            self.log.add_observer(self._mirror_chaos_event)
        # -- control-plane HA (repro.runtime.ha): installed only when standby
        # replicas are requested; None otherwise.  After the probe, so the
        # WAL observes each directory mutation second.
        self.ha = ha.install(self)
        self.scheduler._meter_capacity()  # publish the healthy-cluster baseline

    # -- construction ----------------------------------------------------------

    def _build_raylets(self) -> None:
        spill_store = self._build_spill_store()
        self._spill_store = spill_store
        # device id -> live Device / its object store, takeover-stable views
        # (raylet adoption rewires _raylet_of_device; these two never change)
        self._device_by_id: Dict[str, Device] = {
            dev.device_id: dev for dev in self.cluster.all_devices()
        }
        self._store_of_device: Dict[str, LocalObjectStore] = {}
        for node in self.cluster.nodes.values():
            raylets = self._raylets_for_node(node, spill_store)
            self._raylets.extend(raylets)
            self._raylets_by_node[node.node_id] = raylets
            for raylet in raylets:
                raylet.metrics = self.telemetry.registry
                for dev_id, store in raylet.stores.items():
                    store.metrics = self.telemetry.registry
                    store.on_spill = self.recovery.on_spilled
                    self._store_of_device[dev_id] = store
                for dev in raylet.devices:
                    self._raylet_of_device[dev.device_id] = raylet
        if spill_store is not None:
            self._store_of_device[spill_store.device.device_id] = spill_store

    def _build_spill_store(self) -> Optional[LocalObjectStore]:
        blades = self.cluster.nodes_of_kind(NodeKind.MEMORY_BLADE)
        if not blades:
            return None
        store = LocalObjectStore(blades[0].attachment_device)
        store.metrics = self.telemetry.registry
        return store

    def _raylets_for_node(self, node, spill_store) -> List[Raylet]:
        if node.kind == NodeKind.SERVER:
            cpu = node.first_of_kind(DeviceKind.CPU)
            return [Raylet(self.sim, cpu, list(node.devices), spill_store)]
        if node.kind == NodeKind.MEMORY_BLADE:
            return []  # blades store spilled objects; no compute raylet
        if node.kind == NodeKind.ACCELERATOR:
            return [Raylet(self.sim, node.devices[0], [node.devices[0]], spill_store)]
        # physically-disaggregated card
        dpu = node.first_of_kind(DeviceKind.DPU)
        companions = [d for d in node.devices if d.kind != DeviceKind.DPU]
        if self.config.generation == Generation.GEN1:
            return [Raylet(self.sim, dpu, companions, spill_store)]
        # Gen-2: device-specific raylet on every heterogeneous device
        return [Raylet(self.sim, dev, [dev], spill_store) for dev in companions]

    # -- helpers -----------------------------------------------------------------

    def raylet_for_device(self, device_id: str) -> Raylet:
        raylet = self._raylet_of_device.get(device_id)
        if raylet is None:
            raise KeyError(f"no raylet manages device {device_id!r}")
        return raylet

    def _device_alive(self, device_id: str) -> bool:
        raylet = self._raylet_of_device.get(device_id)
        if raylet is None or self.scheduler.is_blacklisted(device_id):
            return False
        if self.health is not None:
            # with a failure detector, the control plane only knows what the
            # heartbeats told it — no peeking at the physical alive bit
            return True
        device = self._device_by_id.get(device_id)
        return raylet.alive and (device is None or device.alive)

    # -- event log / liveness -----------------------------------------------

    def _record(self, kind: str, **detail: Any) -> RuntimeEvent:
        return self.log.record(self.sim.now, kind, **detail)

    def _on_incident(self, ev: RuntimeEvent) -> None:
        self.telemetry.registry.counter(
            "skadi_incidents_total",
            "control-plane incidents by event-log kind",
            kind=ev.kind,
        ).inc()

    def _mirror_chaos_event(self, ev: RuntimeEvent) -> None:
        """Mirror chaos-monkey injections into the dist-sanitizer trace.

        Faults strike from outside the protocol, so chaos events carry no
        causal ancestry: they live on their own ``chaos`` site and anything
        they race with is a genuine finding, not a missing edge.
        """
        if self.probe is not None and ev.kind.startswith("chaos_"):
            self.probe.emit("chaos", ev.kind, ev.detail)

    def _probe_site(self, site: str) -> None:
        """Attribute the directly-following directory mutation to ``site``.

        Only meaningful with a probe; callers must not yield between this
        and the mutation or another process could re-attribute it.
        """
        if self.probe is not None:
            self.probe.site = site

    @property
    def events(self) -> List[RuntimeEvent]:
        return self.log.events

    def _has_pending_work(self) -> bool:
        """True while any task is neither finished nor permanently failed
        (drives the heartbeat loops' lifetime)."""
        return self._open_tasks > 0

    def _progress_counter(self) -> Tuple[int, ...]:
        """A cheap fingerprint of forward progress for the stall guard."""
        return (
            self.tasks_finished,
            self.tasks_failed,
            self.tasks_retried,
            self.lineage.replays,
            self.actor_restarts,
        )

    # -- public API: objects ------------------------------------------------------

    def put(self, value: Any, nbytes: Optional[int] = None) -> ObjectRef:
        """Driver-side put: store on the head node, immediately ready."""
        oid = self.ids.object_id()
        nbytes = nbytes if nbytes is not None else estimate_nbytes(value)
        self._probe_site("driver")
        self.ownership.create(oid, owner=DRIVER, task_id="")
        self._ready_at_head(oid, value, nbytes, "driver")
        self._on_object_ready(oid)
        return ObjectRef(oid, owner=DRIVER)

    def _ready_at_head(self, object_id: str, value: Any, nbytes: int, site: str) -> None:
        """Materialize a value in the head node's store and mark it READY
        there: a driver put, or recovery (a control-plane act, site ``gcs``)
        bringing a lost object back.  The caller pokes ``_on_object_ready``."""
        raylet = self._raylets_by_node[self.head_node_id][0]
        host = raylet.host_device
        store = raylet.store_of(host.device_id)
        if not store.contains(object_id):
            store.put(object_id, value, nbytes or estimate_nbytes(value))
        self._probe_site(site)
        self.ownership.mark_ready(object_id, host.node_id, nbytes, host.device_id)
        if self.probe_edges is not None:
            self.probe_edges.object_ready(site, object_id)

    def get(self, refs, timeout: Optional[float] = None) -> Any:
        """Block the driver until ref(s) resolve; returns real value(s).

        ``timeout`` is *relative* to the current virtual time; when it
        expires with refs still unresolved, :class:`GetTimeoutError` is
        raised (the refs stay valid — a later ``get`` can still resolve
        them once their producers finish).
        """
        single = isinstance(refs, ObjectRef)
        ref_list: List[ObjectRef] = [refs] if single else list(refs)
        deadline = None if timeout is None else self.sim.now + timeout
        object_ids = [ref.object_id for ref in ref_list]
        for _attempt in range(self.config.max_lineage_replays + 1):
            self.sim.run(until=deadline)
            failed, where, lost, unresolved = self.recovery.triage(object_ids)
            if failed is not None:
                who = f"task {failed.spec.task_id} ({failed.spec.name})"
                if failed.state == TaskState.CANCELLED:
                    raise TaskCancelledError(f"{who}{where} was {failed.error}")
                raise TaskError(f"{who} failed{where}: {failed.error}")
            if deadline is not None and unresolved and self.sim.now >= deadline:
                raise GetTimeoutError(
                    f"{unresolved}/{len(ref_list)} refs unresolved after "
                    f"timeout={timeout} (virtual time {self.sim.now:.6f})"
                )
            if not lost:
                break
            for oid in lost:
                self.recovery.recover(oid)
        else:
            raise UnrecoverableObjectError(
                f"objects still lost after {self.config.max_lineage_replays} replays"
            )
        if self.probe_edges is not None:
            # get() returning is the completion flowing back to the driver:
            # each producer's work is now ordered before whatever the driver
            # does next (a later free() is sanctioned, not racy).
            self.probe_edges.get_resolve(object_ids)
        values = [self.recovery.read_value(oid) for oid in object_ids]
        return values[0] if single else values

    def wait(
        self, refs: Sequence[ObjectRef], num_returns: int = 1
    ) -> Tuple[List[ObjectRef], List[ObjectRef]]:
        """Advance virtual time until ``num_returns`` of ``refs`` are ready."""
        refs = list(refs)
        if num_returns > len(refs):
            raise ValueError(f"num_returns={num_returns} > {len(refs)} refs")
        while True:
            ready = [r for r in refs if self.ownership.is_ready(r.object_id)]
            if len(ready) >= num_returns:
                not_ready = [r for r in refs if r not in ready]
                return ready[:num_returns], ready[num_returns:] + not_ready
            nxt = self.sim.peek()
            if nxt is None:
                raise RuntimeError(
                    f"wait() deadlocked: only {len(ready)}/{num_returns} refs can become ready"
                )
            self.sim.run(until=nxt)

    # -- public API: tasks -----------------------------------------------------------

    def submit(
        self,
        func: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        *,
        compute_cost: float = 1e-4,
        output_nbytes: Optional[int] = None,
        supported_kinds: FrozenSet[DeviceKind] = frozenset({DeviceKind.CPU}),
        pinned_device: Optional[str] = None,
        name: str = "",
        gang_group: Optional[str] = None,
        deadline: Optional[float] = None,
        priority: int = 0,
        tenant: Optional[str] = None,
    ) -> ObjectRef:
        """Launch a task; returns the future for its (single) output.

        ``deadline`` is an *absolute* virtual time; with deadline propagation
        enabled it flows to downstream consumers (min over producers) and
        attempts past it are skipped and cancelled.  ``priority`` only
        matters under shed-lowest-priority admission.  ``tenant`` attributes
        the task to a serving tenant: cancellation and admission-rejection
        events/metrics carry it as a label (and nothing else changes).
        """
        spec = TaskSpec(
            task_id=self.ids.task_id(),
            func=func,
            args=tuple(args),
            kwargs=dict(kwargs or {}),
            compute_cost=compute_cost,
            output_nbytes=output_nbytes,
            supported_kinds=frozenset(supported_kinds),
            pinned_device=pinned_device,
            name=name,
            gang_group=gang_group,
            deadline=deadline,
            priority=priority,
            tenant=tenant,
        )
        return self._submit_spec(spec)

    def _submit_spec(self, spec: TaskSpec) -> ObjectRef:
        if self.config.deadline_propagation:
            self._inherit_deadline(spec)
        # a gate may raise (AdmissionRejectedError) — before any ownership
        # state exists, so a rejected submission is cleanly retryable
        parked = any([gate(spec) for gate in self.submit_gates])
        oid = self.ids.object_id()
        self._probe_site("driver")
        self.ownership.create(oid, owner=DRIVER, task_id=spec.task_id)
        ref = ObjectRef(oid, owner=DRIVER, task_id=spec.task_id)
        self.lineage.record(spec, [oid])
        if self.probe is not None:
            self.probe.lineage_record(
                oid, spec.task_id, [r.object_id for r in spec.dependencies]
            )
            # after the gate (a rejected submission never became a task) and
            # after the owner record: the submit message the dispatch joins
            # on represents the fully-registered task
            self.probe.submit(spec.task_id)
        ctx = _TaskCtx(spec, ref, Signal(self.sim))
        ctx.timeline.submitted = self.sim.now
        self._open_task_span(ctx)
        self._m_submitted.inc()
        self._ctxs[spec.task_id] = ctx
        self._ctx_of_object[oid] = ctx
        self._open_tasks += 1
        for hook in self.on_task_open:
            hook(ctx, parked)
        if parked:
            return ref  # whoever parked it re-routes it
        if spec.gang_group is not None:
            self._gangs.setdefault(spec.gang_group, []).append(ctx)
            return ref
        self._route(ctx)
        return ref

    def launch_gang(self, gang_group: str) -> List[ObjectRef]:
        """Dispatch all tasks submitted under ``gang_group`` atomically."""
        ctxs = self._gangs.pop(gang_group, [])
        # a member cancelled while the gang waited stays cancelled
        pending = [c for c in ctxs if c.state is TaskState.PENDING]
        if not pending:
            raise KeyError(f"no pending tasks in gang {gang_group!r}")
        placements = self.scheduler.place_gang([c.spec for c in pending])
        for ctx in pending:
            ctx.device = placements[ctx.spec.task_id]
            self._route(ctx, preplaced=True)
        return [c.ref for c in ctxs]

    def _route(self, ctx: _TaskCtx, preplaced: bool = False) -> None:
        """Dispatch now, unless the data plane holds the task for its arguments."""
        if self._deadline_expired(ctx.spec):
            # scheduler-side skip: never dispatch work that is already doomed
            self._cancel_and_propagate(ctx, reason="deadline_exceeded")
            return
        if self.health is not None and self.gcs_up:
            # a dead GCS counts no silence: detection stays down until a
            # failover restarts it on the election winner
            self.health.ensure_running()
        for hook in self.on_route:
            hook()
        if not self.data.hold(ctx, preplaced):
            self._dispatch(ctx, preplaced=preplaced)

    def _readers(self, object_id: str) -> List[_TaskCtx]:
        """The live incarnation of every task that lists ``object_id`` as a
        dependency, in submission order: the one answer to who reads it."""
        return [self._ctxs[task_id] for task_id in self.lineage.consumers(object_id)]

    def _task_closed(self, ctx: "_TaskCtx") -> None:
        """A task reached a terminal state."""
        if self.recovery.deferred_frees:
            # drain before any subscriber's bookkeeping
            self.recovery.consumer_concluded()
        self.data.release(ctx)
        for hook in self.on_task_closed:
            hook(ctx)

    def _count_shed(self, reason: str) -> None:
        self.tasks_shed += 1
        self.telemetry.registry.counter(
            "skadi_shed_tasks_total",
            "tasks shed by overload control, by reason",
            reason=reason,
        ).inc()

    # -- overload control: deadlines ------------------------------------------

    def _inherit_deadline(self, spec: TaskSpec) -> None:
        """Effective deadline = min(own, every producer's) — a consumer can
        never outlive the data it waits for."""
        own = spec.deadline
        inherited: Optional[float] = None
        for dep in spec.dependencies:
            producer = self._ctx_of_object.get(dep.object_id)
            if producer is None:
                continue
            upstream = producer.spec.deadline
            if upstream is not None and (inherited is None or upstream < inherited):
                inherited = upstream
        deadline = own
        if inherited is not None and (deadline is None or inherited < deadline):
            deadline = inherited
        spec.deadline = deadline
        if self.probe is not None:
            self.probe.deadline_inherit(spec.task_id, own, inherited, deadline)

    def _deadline_expired(self, spec: TaskSpec) -> bool:
        return (
            self.config.deadline_propagation
            and spec.deadline is not None
            and self.sim.now >= spec.deadline
        )

    # -- overload control: cancellation ---------------------------------------

    def cancel(self, ref: ObjectRef, reason: str = "user") -> bool:
        """Cooperatively cancel the task producing ``ref`` (and every
        downstream consumer that can no longer run).  Returns False when the
        task already reached a terminal state.  A timed-out ``get`` leaves
        its task running — this is how a caller abandons it for real."""
        ctx = self._ctx_of_object.get(ref.object_id)
        if ctx is None:
            return False
        return self._cancel_and_propagate(ctx, reason=reason)

    def task_state(self, ref: ObjectRef) -> TaskState:
        """The producing task's current state (serving layers poll this to
        classify a concluded request without touching internals)."""
        ctx = self._ctx_of_object.get(ref.object_id)
        if ctx is None:
            raise KeyError(f"no task produces object {ref.object_id!r}")
        return ctx.state

    def when_done(self, ref: ObjectRef, callback: Callable[[ObjectRef], None]) -> None:
        """Invoke ``callback(ref)`` when the producing task reaches *any*
        terminal state (FINISHED, FAILED or CANCELLED).  Fires on the event
        loop if the task is already terminal.  This is the completion hook
        the serving frontend builds request lifecycles on; it adds no
        events and no virtual time of its own."""
        ctx = self._ctx_of_object.get(ref.object_id)
        if ctx is None:
            raise KeyError(f"no task produces object {ref.object_id!r}")
        ctx.done.add_callback(lambda _sig: callback(ref))

    def _cancel_and_propagate(self, ctx: "_TaskCtx", reason: str) -> bool:
        if not self._cancel_ctx(ctx, reason=reason):
            return False
        self._cancel_downstream(ctx)
        return True

    def _cancel_ctx(self, ctx: "_TaskCtx", reason: str) -> bool:
        """Move one task to CANCELLED: stop its attempt, its in-flight pulls
        (an interrupted dedup leader releases its followers), and its
        speculative twin.  Every cancellation source funnels here, so
        every one lands in the event log with its ``reason``."""
        if ctx.state in _TERMINAL:
            return False
        ctx.state = TaskState.CANCELLED
        ctx.error = f"cancelled: {reason}"
        self.tasks_cancelled += 1
        if self.probe is not None:
            self.probe.task_cancel(ctx.spec.task_id, reason)
        # tenant attribution only when the submitter carried one — the
        # label-less legacy series and event detail stay byte-identical
        tenant_label = {} if ctx.spec.tenant is None else {"tenant": ctx.spec.tenant}
        self.telemetry.registry.counter(
            "skadi_tasks_cancelled_total",
            "tasks cancelled before completion, by reason",
            reason=reason,
            **tenant_label,
        ).inc()
        self._close_failed_span(ctx, ctx.error)
        self._record(
            "task_cancelled",
            task=ctx.spec.task_id,
            name=ctx.spec.name,
            reason=reason,
            **tenant_label,
        )
        self._open_tasks = max(0, self._open_tasks - 1)
        for pull in ctx.pulls:  # a finished one ignores the interrupt
            pull.interrupt(f"cancelled: {reason}")
        ctx.pulls = ()
        twin, ctx.twin = ctx.twin, None
        if twin is not None and twin.proc is not None and not twin.proc.triggered:
            twin.proc.interrupt(f"cancelled: {reason}")
        if ctx.proc is not None and not ctx.proc.triggered:
            ctx.proc.interrupt(f"cancelled: {reason}")
        self._task_closed(ctx)
        if not ctx.done.triggered:
            ctx.done.succeed()
        return True

    def _cancel_downstream(self, root: "_TaskCtx") -> None:
        """Cascade a cancellation to transitive consumers that have not run
        yet — their inputs will never materialize.  Level by level over the
        readers, each level in task-id order."""
        level = [root.ref.object_id]
        seen = set(level)
        while level:
            readers = {c.spec.task_id: c for oid in level for c in self._readers(oid)}
            level = []
            for task_id in sorted(readers):
                ctx = readers[task_id]
                if (
                    ctx.state in (TaskState.PENDING, TaskState.SCHEDULED, TaskState.RESOLVING)
                    and self._cancel_ctx(ctx, reason="upstream_cancelled")
                    and ctx.ref.object_id not in seen
                ):
                    seen.add(ctx.ref.object_id)
                    level.append(ctx.ref.object_id)

    # -- span tracing --------------------------------------------------------

    def _open_task_span(self, ctx: _TaskCtx, replayed: bool = False) -> None:
        """Open the task's causal span.  Links point at the spans of the
        input producers; the trace id propagates from the first one, so a
        connected DAG shares one trace."""
        spec = ctx.spec
        links: List[str] = []
        trace_id: Optional[str] = None
        for dep in spec.dependencies:
            producer = self._ctx_of_object.get(dep.object_id)
            if producer is not None and producer.span is not None:
                links.append(producer.span.span_id)
                if trace_id is None:
                    trace_id = producer.span.trace_id
        ctx.span = self.telemetry.tracer.start_span(
            spec.name or spec.task_id,
            "task",
            trace_id=trace_id,
            links=tuple(links),
            start=self.sim.now,
            task_id=spec.task_id,
            replayed=replayed,
        )

    def _span_of(self, ctx: _TaskCtx) -> Optional[Span]:
        """The task's span — clones borrow the original's."""
        if ctx.span is not None:
            return ctx.span
        main = self._ctxs.get(ctx.spec.task_id)
        return main.span if main is not None else None

    def _finish_task_span(self, main: _TaskCtx, winner: _TaskCtx) -> None:
        """Close the task span with the winning attempt's milestones and
        emit its phase children (the critical-path extractor's raw input)."""
        span = main.span
        if span is None or not span.is_open:
            return
        tl = winner.timeline
        if winner.device is not None:
            span.node = winner.device.node_id
            span.device = winner.device.device_id
        span.attrs.update(
            dispatched=tl.dispatched,
            inputs_ready=tl.inputs_ready,
            started=tl.started,
            retries=main.retries,
        )
        span.finish(tl.finished)
        for phase, category, lo, hi in (
            ("schedule", "queue", tl.submitted, tl.dispatched),
            ("resolve-inputs", "transfer", tl.dispatched, tl.inputs_ready),
            ("wait-device", "queue", tl.inputs_ready, tl.started),
            ("execute", "compute", tl.started, tl.finished),
        ):
            if hi - lo > 0:
                self.telemetry.tracer.emit(
                    f"{span.name}:{phase}",
                    category,
                    lo,
                    hi,
                    parent=span,
                    node=span.node,
                    device=span.device,
                )

    def _close_failed_span(self, ctx: _TaskCtx, error: str) -> None:
        if ctx.span is not None and ctx.span.is_open:
            ctx.span.attrs.update(error=error, retries=ctx.retries)
            ctx.span.finish(self.sim.now)

    def _dispatch(self, ctx: _TaskCtx, preplaced: bool = False) -> None:
        spec = ctx.spec
        if not self.gcs_up:
            # the control plane is down: no leader can grant a lease.  Park
            # the dispatch; a failover re-routes everything parked here.
            ctx.state = TaskState.PENDING
            if ctx not in self._parked:
                self._parked.append(ctx)
            return
        if spec.actor_id is not None:
            self.actors.home(spec)
        if not preplaced or ctx.device is None:
            ctx.device = self.scheduler.place(spec)
            # only a pinned device can be dead here: candidates() filters the rest
            if not self._device_alive(ctx.device.device_id):
                raise PlacementError(f"no live device for task {spec.task_id}")
        ctx.raylet = self.raylet_for_device(ctx.device.device_id)
        for gate in self.dispatch_gates:
            if not gate(ctx, preplaced):
                return  # the gate that held it back re-dispatches it
        ctx.state = TaskState.SCHEDULED
        ctx.attempt += 1
        for hook in self.on_dispatch:
            hook(ctx)
        if self.probe_edges is not None and not ctx.is_clone:
            self.probe_edges.dispatch(
                spec.task_id,
                ctx.attempt,
                ctx.device.device_id,
                [r.object_id for r in spec.dependencies],
            )
        self.data.subscribe(ctx)
        ctx.proc = self.sim.process(self._run_task(ctx), name=f"task:{spec.task_id}")
        self.supervisor.watch(ctx)

    # -- the task lifecycle -------------------------------------------------------------

    def _run_task(self, ctx: _TaskCtx) -> Generator:
        """One attempt, phase by phase; however a phase ends, the attempt is
        judged here."""
        spec, device, raylet = ctx.spec, ctx.device, ctx.raylet
        assert device is not None and raylet is not None
        try:
            yield from self._lease(ctx, device, raylet)
            yield from self._resolve(ctx, device, raylet)
            value, nbytes = yield from self._execute(ctx, device, raylet)
            if self._attempt_superseded(ctx):
                return
            main = self._ctxs.get(spec.task_id, ctx)
            self._commit(ctx, device, raylet, value, nbytes)
            try:
                yield from self._announce(ctx, device, raylet, value, nbytes)
            except Interrupt:
                # first commit wins, and the winner closes the task: while the
                # commit stands nobody else will, however its announcement
                # ended.  Whoever closed the task first (a cancel, a lost
                # control plane, a twin) still wins; a commit a verdict already
                # revoked is a failed attempt like any other.
                if main.state in _TERMINAL or not self.ownership.is_ready(ctx.ref.object_id):
                    raise
            self._finish(ctx, main, device)
        except Interrupt as intr:
            # a backup copy stands down silently: the original (or the
            # winner) carries on
            if not (ctx.is_clone or self._attempt_superseded(ctx)):
                self.supervisor.failed(ctx, cause=str(intr.cause or "interrupted"))
        except _DeadlineExceededError:
            if not (ctx.is_clone or self._attempt_superseded(ctx)):
                self._cancel_and_propagate(
                    self._ctxs.get(spec.task_id, ctx), reason="deadline_exceeded"
                )
        except _TransientTaskError as exc:
            if not (ctx.is_clone or self._attempt_superseded(ctx)):
                self.supervisor.failed(ctx, cause=str(exc))
        except Exception as exc:  # payload error: permanent, not retried
            if isinstance(exc, (UnrecoverableObjectError, PlacementError)):
                raise
            if ctx.is_clone:
                return  # the original will hit (and report) the same error
            self._fail_ctx(ctx, f"{type(exc).__name__}: {exc}")
        finally:  # however the attempt ended
            for hook in self.on_attempt_concluded:
                hook(ctx, device)

    def _lease(self, ctx: _TaskCtx, device: Device, raylet: Raylet) -> Generator:
        """Phase 1: the lease travels scheduler -> raylet; the raylet handles
        it.  A dropped lease, or a raylet that died before handling it, is a
        transient failure the retry policy absorbs."""
        delivered = yield self.net.message(
            self.scheduler.endpoint, raylet.endpoint, label="lease"
        )
        if delivered is False or not raylet.alive:
            raise _TransientTaskError("lease lost in transit")
        for gate in self.lease_gates:
            refusal = gate(ctx, raylet)
            if refusal is not None:
                raise _TransientTaskError(refusal)
        if self.probe_edges is not None:
            self.probe_edges.attempt_start(ctx.spec.task_id, ctx.attempt, ctx.is_clone)
        yield raylet.control()
        if not device.alive:
            # the raylet can see its own silicon (local knowledge, no
            # network): it refuses to launch onto a dead companion
            raise _TransientTaskError(f"device {device.device_id} is dead")
        if self._deadline_expired(ctx.spec):
            # raylet-side skip: the lease arrived past the deadline
            raise _DeadlineExceededError()
        ctx.timeline.dispatched = self.sim.now
        ctx.state = TaskState.RESOLVING

    def _resolve(self, ctx: _TaskCtx, device: Device, raylet: Raylet) -> Generator:
        """Phase 2: the arguments must reach *this device's* store — a copy
        on a sibling device of the same card still has to cross the intra-card
        link (through the DPU)."""
        spec = ctx.spec
        local_store = raylet.store_of(device.device_id)
        missing = [ref for ref in spec.dependencies if not local_store.contains(ref.object_id)]
        hits = len(spec.dependencies) - len(missing)
        reg = self.telemetry.registry
        if hits:
            reg.counter(
                "skadi_store_hits_total",
                "task arguments already resident on the executing device",
                device=device.device_id,
            ).inc(hits)
        if missing:
            reg.counter(
                "skadi_store_misses_total",
                "task arguments that had to be fetched over the fabric",
                device=device.device_id,
            ).inc(len(missing))
        unfetched = yield from self.data.resolve(ctx, raylet, device, missing)
        if unfetched:
            raise _TransientTaskError(f"failed to fetch {unfetched} argument(s)")
        if self._deadline_expired(spec):
            # inputs took too long: skip the doomed execution
            raise _DeadlineExceededError()
        ctx.timeline.inputs_ready = self.sim.now

    def _execute(self, ctx: _TaskCtx, device: Device, raylet: Raylet) -> Generator:
        """Phase 3: take the actor's turn if any, burn device time, run the
        real payload.  Returns ``(value, nbytes)``."""
        spec = ctx.spec
        # Gen-1: the DPU raylet must poke the companion device
        if raylet.endpoint != device.device_id:
            yield self.net.message(raylet.endpoint, device.device_id, label="launch")
        turn = None
        if spec.actor_id is not None:
            turn = yield from self.actors.turn(spec.actor_id)
        try:
            ctx.state = TaskState.RUNNING
            self.scheduler.task_started(device.device_id)
            try:
                started_proc = device.execute(spec.compute_cost, label=spec.name)
                ctx.timeline.started = self.sim.now
                yield started_proc
                if not raylet.alive:
                    raise _TransientTaskError("raylet died during execution")
                if not device.alive:
                    raise _TransientTaskError("device died during execution")
                value, nbytes = self._execute_payload(ctx)
                if spec.actor_id is not None:
                    yield from self.actors.called(spec.actor_id)
            finally:
                self.scheduler.task_finished(device.device_id)
        finally:
            if turn is not None:
                turn.release()  # the one taken: a restore gives the actor a fresh one
        return value, nbytes

    def _commit(
        self, ctx: _TaskCtx, device: Device, raylet: Raylet, value: Any, nbytes: int
    ) -> None:
        """Phase 4, the commit point: store the output locally and tell the
        directory.  No ``yield``: an attempt either committed or it did not."""
        spec, oid = ctx.spec, ctx.ref.object_id
        store = raylet.store_of(device.device_id)
        if store.contains(oid):  # replay may have raced
            store.delete(oid)
        try:
            store.put(oid, value, nbytes)
        except (SpillFailedError, StoreUnavailableError) as exc:
            # a dead blade refusing the spill (or an output device dying
            # under us) is a fault to retry around, not an app error
            raise _TransientTaskError(str(exc)) from None
        if self.probe is not None:
            self.probe.site = self.probe.attempt_site(spec.task_id, ctx.attempt, ctx.is_clone)
        self.ownership.mark_ready(oid, device.node_id, nbytes, device.device_id)
        if self.probe_edges is not None:
            # the commit point: the done/ready announcements every
            # downstream recv pairs with originate here
            self.probe_edges.attempt_commit(spec.task_id, ctx.attempt, oid, ctx.is_clone)
            self.probe_edges.object_ready(self.probe_edges.site, oid)

    def _announce(
        self, ctx: _TaskCtx, device: Device, raylet: Raylet, value: Any, nbytes: int
    ) -> Generator:
        """Phase 4, after the commit point: pay the optional reliable-cache
        write, report ``done`` to the scheduler/GCS."""
        oid = ctx.ref.object_id
        if self.reliable_cache is not None:  # replication/EC
            cost = self.reliable_cache.put(oid, value, nbytes, preferred_node=device.node_id)
            yield self.sim.timeout(cost)
        for hook in self.on_commit:
            hook(ctx, device, nbytes)
        delivered = yield self.net.message(
            raylet.endpoint, self.scheduler.endpoint, label="done"
        )
        for hook in self.on_done:
            hook(ctx, device, nbytes, delivered)

    def _finish(self, ctx: _TaskCtx, main: _TaskCtx, device: Device) -> None:
        """Phase 5: first commit wins — close the task on its main record,
        stand the loser down, then push to subscribed consumers and wake the
        parked ones."""
        if self.probe is not None:
            self.probe.task_finish(ctx.spec.task_id)
        ctx.state = TaskState.FINISHED
        ctx.timeline.finished = self.sim.now
        ctx.timeline.device_id = device.device_id
        if main is not ctx:  # a clone won: reflect completion on the main ctx
            main.state = TaskState.FINISHED
            main.timeline.finished = self.sim.now
            main.timeline.device_id = device.device_id
        loser = main.twin if ctx is main else main
        main.twin = None
        if loser is not None and loser.proc is not None and loser.state in IN_FLIGHT_STATES:
            loser.proc.interrupt("speculative twin won")
        self.tasks_finished += 1
        self._m_finished.inc()
        self._m_latency.observe(ctx.timeline.latency)
        self._m_stall.observe(ctx.timeline.input_stall)
        self._finish_task_span(main, ctx)
        self._open_tasks = max(0, self._open_tasks - 1)
        self._task_closed(main)
        for hook in self.on_task_finished:
            hook(main, ctx, device)
        self.timelines.append(ctx.timeline)
        self.data.publish(ctx.ref.object_id)
        self._on_object_ready(ctx.ref.object_id)
        if not main.done.triggered:
            main.done.succeed()

    def _attempt_superseded(self, ctx: _TaskCtx) -> bool:
        """This attempt's outcome no longer matters: its task concluded, its
        result already committed (a speculative twin or a lineage replay got
        there first), or the task was reincarnated under it.  First commit
        wins; the rest stand down."""
        main = self._ctxs.get(ctx.spec.task_id, ctx)
        return (
            (ctx is not main and ctx is not main.twin)  # a replay took the task over
            or main.state in _TERMINAL
            or self.ownership.is_ready(ctx.ref.object_id)
        )

    def _place_or_retry(
        self, step: Callable[[_TaskCtx, bool], None], ctx: _TaskCtx, preplaced: bool = False
    ) -> None:
        """Run a placement step (``_route`` or ``_dispatch``); mid-chaos the
        cluster may have nowhere to run it right now — back off and retry."""
        try:
            step(ctx, preplaced)
        except PlacementError as exc:
            self.supervisor.failed(ctx, cause=str(exc))

    def _fail_ctx(self, ctx: _TaskCtx, error: str) -> None:
        ctx.state = TaskState.FAILED
        ctx.error = error
        if self.probe is not None:
            self.probe.task_fail(ctx.spec.task_id, ctx.attempt, error)
        self.tasks_failed += 1
        self._m_failed.inc()
        self._close_failed_span(ctx, error)
        self._open_tasks = max(0, self._open_tasks - 1)
        self._record(
            "task_failed", task=ctx.spec.task_id, name=ctx.spec.name, error=error
        )
        self._task_closed(ctx)
        if not ctx.done.triggered:
            ctx.done.succeed()

    def _execute_payload(self, ctx: _TaskCtx) -> Tuple[Any, int]:
        """Run the real Python function with resolved arguments."""
        spec = ctx.spec
        assert ctx.raylet is not None
        resolved: Dict[str, Any] = {}
        for ref in spec.dependencies:
            store = ctx.raylet.find_object(ref.object_id)
            if store is None:
                raise _TransientTaskError(
                    f"argument {ref.object_id!r} vanished before execution"
                )
            resolved[ref.object_id] = store.get(ref.object_id).value
        args = replace_refs(list(spec.args), resolved)
        kwargs = replace_refs(dict(spec.kwargs), resolved)
        if spec.actor_id is not None:
            epitaph = self.actors.epitaph(spec.actor_id)
            if epitaph is not None:
                raise TaskError(epitaph)
            value = spec.func(self.actors.state[spec.actor_id], *args, **kwargs)
        else:
            value = spec.func(*args, **kwargs)
        nbytes = (
            spec.output_nbytes
            if spec.output_nbytes is not None
            else estimate_nbytes(value)
        )
        return value, nbytes

    def _on_object_ready(self, object_id: str) -> None:
        """Newly-ready objects poke observers and may unblock waiting tasks."""
        for hook in list(self.object_ready_hooks):
            hook(object_id)
        for ctx, preplaced in self.data.released():
            self._place_or_retry(self._dispatch, ctx, preplaced)

    # -- actors ------------------------------------------------------------------------

    def create_actor(
        self,
        ctor: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        *,
        supported_kinds: FrozenSet[DeviceKind] = frozenset({DeviceKind.CPU}),
        pinned_device: Optional[str] = None,
    ) -> ActorHandle:
        """Instantiate a stateful actor on a device chosen by the scheduler
        (or pinned explicitly)."""
        return self.actors.create(
            ctor, args, kwargs or {}, frozenset(supported_kinds), pinned_device
        )

    @property
    def actor_restarts(self) -> int:
        return self.actors.restarts

    # -- explicit memory management -----------------------------------------------------

    def free(self, refs, force: bool = False) -> int:
        """Release objects the application no longer needs.

        Drops every in-cluster copy and the directory entry; afterwards the
        ref cannot be ``get`` (KeyError), and lineage will not resurrect it.
        Returns the number of bytes released *now*.

        A free targeting an object some in-flight consumer still depends on
        is **deferred**: dropping the entry under a running attempt makes
        its argument unrecoverable (the perturbation hunt in
        tests/test_dist_perturb.py pinned exactly that ordering bug), so
        the GCS quiesces first — the free completes when the last open
        consumer concludes (``free_deferred`` / ``free_completed`` events).
        ``force=True`` bypasses quiescing and replays the legacy unsafe
        drop; it exists for the sanitizer's seeded-race fixtures.
        """
        refs = [refs] if isinstance(refs, ObjectRef) else list(refs)
        return self.recovery.free([ref.object_id for ref in refs], force)

    def checkpoint(self, refs) -> None:
        """Persist ready objects to durable storage.

        Recovery consults checkpoints before replaying lineage, so a
        checkpoint bounds the replay depth of everything downstream of it
        (the lineage-stash style trade: durable writes now vs. replay later).
        """
        refs = [refs] if isinstance(refs, ObjectRef) else list(refs)
        self.recovery.checkpoint([ref.object_id for ref in refs])

    # -- failures & recovery (the driver's handle on repro.runtime.failures) --------------

    def fail_node(self, node_id: str) -> List[str]:
        """Kill a node *and* tell the control plane (driver omniscience; chaos
        crashes leave the telling to detection).  Returns the ids now LOST."""
        return self.failures.fail_node(node_id, "killed by driver", announce=True)

    def restart_node(self, node_id: str) -> None:
        self.failures.restart_node(node_id)

    def fail_device(self, device_id: str) -> List[str]:
        """Kill one device *and* tell the control plane.  Returns the ids now LOST."""
        return self.failures.fail_device(device_id, "killed by driver", announce=True)

    def restore_device(self, device_id: str) -> None:
        self.failures.restore_device(device_id)

    def _interrupt_attempts(
        self, hit: Callable[[_TaskCtx], bool], cause: str, among: Optional[List[_TaskCtx]] = None
    ) -> None:
        """Interrupt every in-flight attempt (speculative twins included)
        that ``hit`` selects among these tasks (a fault strikes by device: all
        of them); each resubmits itself via the retry path."""
        for ctx in list(self._ctxs.values()) if among is None else among:
            for victim in (ctx, ctx.twin):
                if (
                    victim is not None
                    and victim.state in IN_FLIGHT_STATES
                    and victim.proc is not None
                    and hit(victim)
                ):
                    victim.proc.interrupt(cause)

    # -- losing the control plane ----------------------------------------------
    #
    # The chaos monkey can kill the head node (ChaosSchedule.fail_gcs).  With
    # the HA component installed (repro.runtime.ha) its standbys notice the
    # sync silence, elect a winner and fail over; what stays here is the
    # unreplicated baseline the E25 benchmark measures replication against,
    # and the two steps every outcome shares.

    def _fail_open_tasks(self, reason: str) -> None:
        """Permanently fail every non-terminal task: the control plane is
        unrecoverable (no standby, or none left alive).  Failing before
        interrupting matters — the Interrupt handler sees a terminal state
        and returns instead of scheduling a retry against a dead GCS."""
        for task_id in sorted(self._ctxs):
            ctx = self._ctxs[task_id]
            if ctx.state in _TERMINAL:
                continue
            self._fail_ctx(ctx, reason)
            for victim in (ctx, ctx.twin):
                if victim is not None and victim.proc is not None:
                    victim.proc.interrupt(reason)

    def _on_gcs_lost(self, node_id: str) -> None:
        """Unreplicated head death: the GCS state — ownership table, detector
        views, blacklist — died with the node and nothing holds a copy.
        Every open task fails and driver handles surface the loss."""
        self._record("gcs_lost", node=node_id)
        self.gcs_up = False
        if self.health is not None:
            self.health.pause()
        self.ownership.clear()
        self._fail_open_tasks(
            f"control plane lost: GCS on {node_id} died with no standby"
        )

    def _resume_parked(self) -> None:
        """A leader serves again: dispatches frozen during the leaderless
        window go back through routing (the new leader's scheduler,
        blacklist, and epoch)."""
        parked, self._parked = self._parked, []
        for ctx in parked:
            if ctx.state is not TaskState.PENDING:
                continue
            self._place_or_retry(self._route, ctx)

    def _replay_task(self, spec: TaskSpec) -> None:
        """Reincarnate a concluded task so its lost output is rebuilt
        (lineage recovery's way into the task lifecycle)."""
        old_ids = self.lineage.outputs_of(spec.task_id)
        if self.probe is not None:
            # reincarnation: later attempts of this task get distinct
            # sites and lease keys, so a replay is not confused with
            # the task's first life
            self.probe.replay(spec.task_id)
            self.probe.site = "gcs"  # recovery is a control-plane act
        for out_oid in old_ids:
            self.ownership.reset_pending(out_oid)
        ctx = _TaskCtx(spec, ObjectRef(old_ids[0], task_id=spec.task_id), Signal(self.sim))
        ctx.timeline.submitted = self.sim.now
        self._open_task_span(ctx, replayed=True)
        self._m_replays.inc()
        self._ctxs[spec.task_id] = ctx
        self._ctx_of_object[old_ids[0]] = ctx
        self._open_tasks += 1
        self._place_or_retry(self._route, ctx)

    # -- introspection ---------------------------------------------------------------------

    @property
    def control_messages(self) -> int:
        return self.net.stats.messages

    @property
    def bytes_moved(self) -> int:
        return self.net.stats.bytes_moved

    def run(self, until: Optional[float] = None) -> float:
        """Drive the simulation (drains everything unless ``until``)."""
        return self.sim.run(until=until)

    def timeline_of(self, ref: ObjectRef) -> TaskTimeline:
        ctx = self._ctx_of_object.get(ref.object_id)
        if ctx is None:
            raise KeyError(f"no task produced {ref.object_id!r}")
        return ctx.timeline

    # -- telemetry introspection ---------------------------------------------

    def metrics_summary(self) -> Dict[str, float]:
        """Flat ``{name{labels}: value}`` snapshot of every instrument
        (histograms report their observation count)."""
        out: Dict[str, float] = {}
        for family in self.telemetry.registry.families():
            for inst in family.instruments():
                labels = inst.labels_dict
                suffix = (
                    "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                    if labels
                    else ""
                )
                out[family.name + suffix] = float(inst.value)
        return out

    def span_of(self, ref: ObjectRef) -> Optional[Span]:
        """The task span that produced ``ref`` (None for driver puts)."""
        ctx = self._ctx_of_object.get(ref.object_id)
        return None if ctx is None else ctx.span

    def critical_path(self, ref: ObjectRef) -> CriticalPathResult:
        """Latency attribution for the chain ending at ``ref``'s producer."""
        span = self.span_of(ref)
        if span is None:
            raise KeyError(f"no traced task produced {ref.object_id!r}")
        return extract_critical_path(self.telemetry.tracer.finished_spans(), span)

    def telemetry_report(
        self, critical_path: Optional[CriticalPathResult] = None
    ):
        """Paper-style summary tables over the metrics plane."""
        from ..telemetry.report import TelemetryReport  # sits above this layer

        return TelemetryReport(self, critical_path)


def make_reliable_cache(cluster: Cluster, redundancy) -> CachingLayer:
    """A CachingLayer spanning the cluster's nodes, with network-true costs."""
    node_ids = [n.node_id for n in cluster.nodes.values()]

    def transfer_time(src: str, dst: str, nbytes: int) -> float:
        if src == dst:
            return 0.0
        src_ep = cluster.node(src).dominant_device.device_id
        dst_ep = cluster.node(dst).dominant_device.device_id
        return cluster.network.transfer_time_estimate(src_ep, dst_ep, nbytes)

    return CachingLayer(
        [CacheNode(nid) for nid in node_ids],
        redundancy=redundancy,
        transfer_time=transfer_time,
    )
