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

from functools import partial
from typing import Any, Callable, Dict, FrozenSet, Generator, List, Optional, Sequence, Tuple, Union

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
from ..telemetry.spans import TaskSpan
from . import ha, health, overload
from .actors import ActorHandle, Actors
from .config import Generation, RuntimeConfig
from .dataplane import DataPlane
from .events import EventLog, NoProbe, RuntimeEvent, declare_series, incident_counter
from .failures import FailureDomains
from .ids import IdGenerator
from .lineage import LineageGraph, UnrecoverableObjectError
from .object_ref import ObjectRef, replace_refs
from .object_store import LocalObjectStore, SpillFailedError, StoreUnavailableError
from .ownership import DRIVER, OwnershipTable
from .raylet import Raylet
from .recovery import Recovery
from .scheduler import PlacementError, Scheduler
from .supervision import Supervisor
from .task import (
    IN_FLIGHT_STATES, NO_KWARGS, TERMINAL_STATES, FinishedTask, TaskSpec, TaskState,
    split_returns,
)

__all__ = [
    "ServerlessRuntime",
    "ActorHandle",
    "TaskError",
    "TaskCancelledError",
    "GetTimeoutError",
]

_TERMINAL = TERMINAL_STATES
# rounds of lineage replay one ``get`` runs before UnrecoverableObjectError
MAX_LINEAGE_REPLAYS = 32
_Committed = List[Tuple[str, Any, int]]  # (object id, value, nbytes) an attempt committed

# The lifecycle seam: one plain list per point on the runtime, called in list
# order at a fixed position in the task lifecycle.  DESIGN.md "Runtime core and
# components" tabulates each point's position, signature and subscribers.
SEAM = (
    "submit_gates", "on_task_open", "on_route", "on_dispatch", "lease_gates",
    "on_commit", "on_done", "on_task_closed", "on_task_finished", "retry_gates",
    "on_view_change",
)


class TaskError(RuntimeError):
    """A task payload raised; surfaces at ``get``."""


class TaskCancelledError(TaskError):
    """The task (or an ancestor) was cancelled; surfaces at ``get``."""


class GetTimeoutError(TimeoutError):
    """``get(timeout=...)`` expired with refs still unresolved."""


class ControlPlaneLostError(TaskError, overload.AdmissionRejectedError):
    """A submit after the control plane became unrecoverable: refused before
    any state exists, as an admission is, but no retry will ever run it."""


def _refuse(reason: str, spec: TaskSpec) -> None:
    """The submit gate of a lost control plane: no leader will ever run a task."""
    raise ControlPlaneLostError(f"task {spec.task_id} ({spec.name}) refused: {reason}")


class _TransientTaskError(Exception):
    """An attempt-level protocol failure (lost lease, failed fetch) that the
    retry policy — not the application — should absorb."""


class _TaskCtx:
    """Book-keeping for one task until it finishes (a ``FinishedTask`` takes
    over); a failed or cancelled task keeps it, with its error.  A backup is
    one too, sharing its task's outputs, completion and span."""

    __slots__ = (
        "spec", "outputs", "device", "raylet", "done", "state", "span",
        "dispatched", "inputs_ready", "started",
        "error", "proc", "attempt", "retries", "twin", "is_clone",
        "pulls", "lease_epoch", "avoid",
    )

    def __init__(self, spec: TaskSpec, outputs: List[str], done: Signal, span: TaskSpan):
        self.spec = spec
        self.outputs = outputs  # the task's output object ids, in return order
        self.device: Optional[Device] = None
        self.raylet: Optional[Raylet] = None
        self.done = done
        self.state = TaskState.PENDING
        self.span = span  # the task's one record: submitted at its start
        # this attempt's milestones: the winner's go onto the span
        self.dispatched = self.inputs_ready = self.started = 0.0
        self.error: Optional[str] = None
        self.proc = None
        self.attempt = 0  # bumped per dispatch (watchdogs key off this)
        self.retries = 0  # transient-failure retries consumed
        self.twin: Optional["_TaskCtx"] = None  # speculative copy, if any
        self.is_clone = False
        self.pulls: Tuple = ()  # this attempt's in-flight pull processes
        self.lease_epoch = 0  # GCS fencing epoch stamped at dispatch (HA)
        self.avoid: Optional[str] = None  # the next placement leaves it out (a timeout's)


def _log_count(kind: str) -> property:
    """A read-only attribute: how many ``kind`` records the runtime's log holds."""
    return property(lambda rt: rt.log.count(kind))


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
        self.reliable_cache = reliable_cache
        self.durable_store = durable_store
        self.ids = IdGenerator()
        # the telemetry plane must exist before raylets/stores are built so
        # the lower layers can be handed their (duck-typed) registries
        self.telemetry = Telemetry(clock=self.sim.clock)
        # the one registry set from outside: a cluster outlives a runtime, so
        # each runtime re-binds the shared network to its own registry
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
        # -- distributed sanitizer ("Skadi-TSan"): a DistProbe replaces the
        # do-nothing probe only when asked for, so the empty default adds no
        # state and no events, and every hook site is a plain call.  Chosen
        # before the raylets, which are built with it.
        self.probe = NoProbe()
        if self.config.sanitizers:
            from ..analysis.dist.probe import DistProbe  # lazy: analysis is optional

            self.probe = DistProbe(
                self.config.sanitizers,
                clock=self.sim.clock,
                meta={"config": self.config.describe()},
            )
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

        self._ctxs: Dict[str, _TaskCtx] = {}
        self._ctx_of_object: Dict[str, _TaskCtx] = {}
        self._gangs: Dict[str, List[_TaskCtx]] = {}
        self.data = DataPlane(self)  # always: objects always move
        self.actors = Actors(self)  # always: an actor can always be created
        self.failures = FailureDomains(self)  # always: a fault can always happen
        self.supervisor = Supervisor(self)  # always: an attempt can always fail
        self.timelines: List[TaskSpan] = []  # every finished task's span, in finish order
        self._open_tasks = 0  # not yet FINISHED/FAILED (heartbeat liveness)
        self.log = EventLog()
        reg = self.telemetry.registry
        # an incident site only records: the metrics plane counts the record
        # (events.INCIDENTS names its series), so EventLog.counts() and the
        # metrics plane agree by construction
        self.log.add_observer(incident_counter(reg))
        declare_series(
            reg, ("task_failed", "lineage_replay", "task_retry", "speculate", "actor_restart")
        )
        self._m_submitted = reg.counter(
            "skadi_tasks_submitted_total", "tasks submitted to the runtime"
        )
        self._m_finished = reg.counter(
            "skadi_tasks_finished_total", "tasks that committed a result"
        )
        self._m_latency = reg.histogram(
            "skadi_task_latency_seconds", "submit-to-finish latency per task"
        )
        self._m_stall = reg.histogram(
            "skadi_task_input_stall_seconds",
            "dispatch-to-inputs-ready stall per task (pull vs push attacks this)",
        )
        self._m_shed = reg.series(
            "counter", "skadi_shed_tasks_total", "tasks shed by overload control, by reason", "reason"
        )
        self.tasks_shed = 0
        # -- overload control (repro.runtime.overload): installed only when
        # one of its switches is on; None otherwise
        self.overload = overload.install(self)
        # observers poked whenever an object becomes ready (chaos uses this
        # for reactive fault injection: "kill the node when X materializes")
        self.object_ready_hooks: List[Callable[[str], None]] = []
        # -- heartbeat failure detection (repro.runtime.health): installed
        # only when a heartbeat interval is set; None otherwise
        self.health = health.install(self)
        if self.config.sanitizers:  # the probe observes after the data plane, before HA
            self.ownership.observers.append(self.probe.ownership_op)
            self.log.add_observer(self.probe.incident)  # the incidents the log already states
        # -- control-plane HA (repro.runtime.ha): installed only when standby
        # replicas are requested; None otherwise.  After the probe, so the
        # WAL observes each directory mutation second.
        self.ha = ha.install(self)

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
            for raylet in raylets:  # a raylet's stores are its devices'
                self._store_of_device.update(raylet.stores)
                self._raylet_of_device.update(dict.fromkeys(raylet.stores, raylet))
        if spill_store is not None:
            self._store_of_device[spill_store.device.device_id] = spill_store

    def _build_spill_store(self) -> Optional[LocalObjectStore]:
        blades = self.cluster.nodes_of_kind(NodeKind.MEMORY_BLADE)
        if not blades:
            return None
        return LocalObjectStore(
            blades[0].attachment_device,
            metrics=self.telemetry.registry,
            on_spill=self.recovery.on_spilled,
        )

    def _raylets_for_node(self, node, spill_store) -> List[Raylet]:
        def raylet(host: Device, devices: List[Device]) -> Raylet:
            return Raylet(
                self.sim, host, devices, spill_store, metrics=self.telemetry.registry,
                probe=self.probe, on_spill=self.recovery.on_spilled,
            )

        if node.kind == NodeKind.SERVER:
            return [raylet(node.first_of_kind(DeviceKind.CPU), list(node.devices))]
        if node.kind == NodeKind.MEMORY_BLADE:
            return []  # blades store spilled objects; no compute raylet
        if node.kind == NodeKind.ACCELERATOR:
            return [raylet(node.devices[0], [node.devices[0]])]
        # physically-disaggregated card
        dpu = node.first_of_kind(DeviceKind.DPU)
        companions = [d for d in node.devices if d.kind != DeviceKind.DPU]
        if self.config.generation == Generation.GEN1:
            return [raylet(dpu, companions)]
        # Gen-2: device-specific raylet on every heterogeneous device
        return [raylet(dev, [dev]) for dev in companions]

    # -- helpers -----------------------------------------------------------------

    def raylet_for_device(self, device_id: str) -> Raylet:
        raylet = self._raylet_of_device.get(device_id)
        if raylet is None:
            raise KeyError(f"no raylet manages device {device_id!r}")
        return raylet

    # -- event log / liveness -----------------------------------------------

    def _record(self, kind: str, **detail: Any) -> RuntimeEvent:
        return self.log.record(self.sim.now, kind, **detail)

    # the counters benchmarks and tests read are counts of what was recorded
    tasks_failed = _log_count("task_failed")
    tasks_cancelled = _log_count("task_cancelled")
    tasks_retried = _log_count("task_retry")
    actor_restarts = _log_count("actor_restart")
    tasks_finished = property(lambda rt: len(rt.timelines))  # each finished task's span

    @property
    def events(self) -> List[RuntimeEvent]:
        return self.log.events

    def _has_pending_work(self) -> bool:
        """True while any task is neither finished nor permanently failed
        (drives the heartbeat loops' lifetime)."""
        return self._open_tasks > 0

    # -- public API: objects ------------------------------------------------------

    def put(self, value: Any, nbytes: Optional[int] = None) -> ObjectRef:
        """Driver-side put: store on the head node, immediately ready."""
        oid = self.ids.object_id()
        nbytes = nbytes if nbytes is not None else estimate_nbytes(value)
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
        self.ownership.mark_ready(object_id, host.device_id, nbytes, site)
        self.probe.object_ready(site, object_id)

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
        for _attempt in range(MAX_LINEAGE_REPLAYS + 1):
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
                f"objects still lost after {MAX_LINEAGE_REPLAYS} replays"
            )
        # get() returning is the completion flowing back to the driver: each
        # producer's work is now ordered before whatever the driver does next
        # (a later free() is sanctioned, not racy).
        self.probe.get_resolve(object_ids)
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
        tenant: Optional[str] = None,
        num_returns: int = 1,
    ) -> Union[ObjectRef, List[ObjectRef]]:
        """Launch a task; returns the future for its output.

        With ``num_returns=n`` above 1 the function returns an n-sequence and
        the task has n outputs: ``submit`` returns a list of n futures, one
        attempt commits all n objects and one ``done`` message reports them.
        They share one producer, so lineage replays it once for any of them,
        and a replay rebuilds only the outputs that were lost.
        ``output_nbytes`` is the size of each output.

        ``tenant`` attributes the task to a serving tenant: cancellation and
        admission-rejection events/metrics carry it as a label (and nothing
        else changes).
        """
        spec = TaskSpec(
            task_id=self.ids.task_id(),
            func=func,
            args=tuple(args),
            kwargs=dict(kwargs) if kwargs else NO_KWARGS,
            compute_cost=compute_cost,
            output_nbytes=output_nbytes,
            supported_kinds=frozenset(supported_kinds),
            pinned_device=pinned_device,
            name=name,
            gang_group=gang_group,
            tenant=tenant,
            num_returns=num_returns,
        )
        return self._submit_spec(spec)

    def _submit_spec(self, spec: TaskSpec) -> Union[ObjectRef, List[ObjectRef]]:
        # a pin nothing can place (PlacementError) and a gate (AdmissionRejectedError)
        # refuse before any ownership state exists: a refusal is cleanly retryable
        if spec.pinned_device is not None:
            self.scheduler.check_pin(spec)
        for gate in self.submit_gates:
            gate(spec)
        outputs = [self.ids.object_id() for _ in range(spec.num_returns)]
        for oid in outputs:
            self.ownership.create(oid, owner=DRIVER, task_id=spec.task_id)
        self.lineage.record(spec, outputs)  # keeps the list, which the ctx shares
        # after the gate (a rejected submission never became a task) and after
        # the owner record: the submit message the dispatch joins on
        # represents the fully-registered task
        self.probe.submit(spec, outputs)
        ctx = _TaskCtx(spec, outputs, Signal(self.sim), self._open_task_span(spec))
        self._m_submitted.inc()
        self._ctxs[spec.task_id] = ctx
        for oid in outputs:
            self._ctx_of_object[oid] = ctx
        self._open_tasks += 1
        for hook in self.on_task_open:
            hook(ctx)
        if spec.gang_group is not None:
            self._gangs.setdefault(spec.gang_group, []).append(ctx)
        else:
            self._route(ctx)
        return self._returned(ctx)

    @staticmethod
    def _returned(ctx: _TaskCtx) -> Union[ObjectRef, List[ObjectRef]]:
        """What ``submit`` returns: the task's future, or a list of them."""
        task_id = ctx.spec.task_id
        if ctx.spec.num_returns == 1:
            return ObjectRef(ctx.outputs[0], owner=DRIVER, task_id=task_id)
        return [ObjectRef(oid, owner=DRIVER, task_id=task_id) for oid in ctx.outputs]

    def _outputs_ready(self, ctx: _TaskCtx) -> bool:
        """A commit is in and nothing is left to commit."""
        return self.ownership.committed(ctx.outputs)

    def launch_gang(self, gang_group: str) -> List[Union[ObjectRef, List[ObjectRef]]]:
        """Dispatch all tasks submitted under ``gang_group`` atomically."""
        ctxs = self._gangs.pop(gang_group, [])
        # a member cancelled while the gang waited stays cancelled
        pending = [c for c in ctxs if c.state is TaskState.PENDING]
        if not pending:
            raise KeyError(f"no pending tasks in gang {gang_group!r}")
        placements = self.scheduler.place_gang([c.spec for c in pending])
        for ctx in pending:
            ctx.device = placements[ctx.spec.task_id]
            self._route(ctx)
        return [self._returned(c) for c in ctxs]

    def _route(self, ctx: _TaskCtx) -> None:
        """Dispatch now, unless the data plane holds the task for its arguments."""
        for hook in self.on_route:
            hook()
        if not self.data.hold(ctx):
            self._dispatch(ctx)

    def _readers(self, object_id: str) -> List[_TaskCtx]:
        """Who reads ``object_id``: the live incarnation of every task listing it
        as a dependency, in submission order (a finished task has none)."""
        ctxs = self._ctxs
        return [ctxs[task_id] for task_id in self.lineage.consumers(object_id) if task_id in ctxs]

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
        self._m_shed.of(reason).inc()

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
        if type(ctx) is FinishedTask:  # its signal went with it: fire as a fired one does
            self.sim.schedule(0.0, callback, ref)
        else:
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
        self._close_task_span(ctx)
        # tenant attribution only when the submitter carried one — the
        # label-less legacy series and event detail stay byte-identical
        tenant_label = {} if ctx.spec.tenant is None else {"tenant": ctx.spec.tenant}
        self._record(
            "task_cancelled", task=ctx.spec.task_id, name=ctx.spec.name, reason=reason,
            **tenant_label,
        )
        self._open_tasks -= 1
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
        level = list(root.outputs)
        seen = set(level)
        while level:
            readers = {c.spec.task_id: c for oid in level for c in self._readers(oid)}
            level = []
            for task_id in sorted(readers):
                ctx = readers[task_id]
                if ctx.state in (
                    TaskState.PENDING, TaskState.SCHEDULED, TaskState.RESOLVING
                ) and self._cancel_ctx(ctx, reason="upstream_cancelled"):
                    fresh = [oid for oid in ctx.outputs if oid not in seen]
                    seen.update(fresh)
                    level += fresh

    # -- span tracing --------------------------------------------------------

    def _open_task_span(self, spec: TaskSpec, replayed: bool = False) -> TaskSpan:
        """Open the task's causal span.  Links point at the spans of the
        input producers; the trace id propagates from the first one, so a
        connected DAG shares one trace."""
        links: List[str] = []
        trace_id: Optional[str] = None
        for dep in spec.dependencies:
            producer = self._ctx_of_object.get(dep.object_id)
            if producer is not None:
                links.append(producer.span.span_id)
                if trace_id is None:
                    trace_id = producer.span.trace_id
        return self.telemetry.tracer.start_span(
            spec.name or spec.task_id,
            "task",
            trace_id=trace_id,
            links=tuple(links),
            start=self.sim.now,
            task_id=spec.task_id,
            replayed=replayed,
        )

    def _close_task_span(self, ctx: _TaskCtx, winner: Optional[_TaskCtx] = None) -> TaskSpan:
        """Close the task span, once: with the winning attempt's milestones
        and device, or with the error that concluded the task."""
        span = ctx.span
        if winner is None:
            span.attrs["error"] = ctx.error
        else:
            span.dispatched, span.inputs_ready, span.started = (
                winner.dispatched, winner.inputs_ready, winner.started,
            )
            span.node, span.device = winner.device.node_id, winner.device.device_id
        span.attrs["retries"] = ctx.retries
        return span.finish(self.sim.now)

    def _dispatch(self, ctx: _TaskCtx) -> None:
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
        if ctx.device is None:  # a gang member and a backup come placed
            ctx.device = self.scheduler.place(spec, ctx.avoid)
            self.scheduler.check_pin(spec)  # the view may have lost a pinned device since submit
        ctx.raylet = self.raylet_for_device(ctx.device.device_id)
        ctx.state = TaskState.SCHEDULED
        ctx.attempt += 1
        for hook in self.on_dispatch:
            hook(ctx)
        self.probe.dispatch(ctx)
        self.data.subscribe(ctx)
        ctx.proc = self.sim.process(self._run_task(ctx), name=f"task:{spec.task_id}")
        self.supervisor.watch(ctx)

    # -- the task lifecycle -------------------------------------------------------------

    def _run_task(self, ctx: _TaskCtx) -> Generator:
        """One attempt, phase by phase; however a phase ends, the attempt is
        judged here, and the ctx lets go of its process."""
        spec, device, raylet, attempt = ctx.spec, ctx.device, ctx.raylet, ctx.attempt
        assert device is not None and raylet is not None
        try:
            yield from self._lease(ctx, device, raylet)
            yield from self._resolve(ctx, device, raylet)
            values = yield from self._execute(ctx, device, raylet)
            if self._attempt_superseded(ctx):
                return
            main = self._ctxs.get(spec.task_id, ctx)
            committed = self._commit(ctx, device, raylet, values)
            try:
                yield from self._announce(ctx, device, raylet, committed)
            except Interrupt:
                # first commit wins, and the winner closes the task: while the
                # commit stands nobody else will, however its announcement
                # ended.  Whoever closed the task first (a cancel, a lost
                # control plane, a twin) still wins; a commit a verdict already
                # revoked is a failed attempt like any other.
                if main.state in _TERMINAL or not self._outputs_ready(ctx):
                    raise
            self._finish(ctx, main, device, committed)
        except Interrupt as intr:
            # a backup copy stands down silently: the original (or the
            # winner) carries on
            if not (ctx.is_clone or self._attempt_superseded(ctx)):
                self.supervisor.failed(ctx, cause=str(intr.cause or "interrupted"))
        except _TransientTaskError as exc:
            if not (ctx.is_clone or self._attempt_superseded(ctx)):
                self.supervisor.failed(ctx, cause=str(exc))
        except Exception as exc:  # payload error: permanent, not retried
            if isinstance(exc, (UnrecoverableObjectError, PlacementError)):
                raise
            if ctx.is_clone:
                return  # the original will hit (and report) the same error
            self._fail_ctx(ctx, f"{type(exc).__name__}: {exc}")
        finally:
            if ctx.attempt == attempt:  # else a later dispatch holds the ctx's process
                ctx.proc = None

    def _lease(self, ctx: _TaskCtx, device: Device, raylet: Raylet) -> Generator:
        """Phase 1: the lease travels scheduler -> raylet (in flight for placement
        until it ends); the raylet handles it.  A dropped lease, or a raylet that
        died before handling it, is a transient failure the retry policy absorbs."""
        handling = raylet.host_device.spec.dispatch_overhead
        sent = self.scheduler.lease_sent(device.device_id, handling)
        try:
            delivered = yield self.net.message(
                self.scheduler.endpoint, raylet.endpoint, label="lease"
            )
            if delivered is False or not raylet.alive:
                raise _TransientTaskError("lease lost in transit")
            for gate in self.lease_gates:
                refusal = gate(ctx, raylet)
                if refusal is not None:
                    raise _TransientTaskError(refusal)
            self.probe.attempt_start(ctx)
            yield raylet.control()
        finally:
            self.scheduler.lease_ended(device.device_id, sent)
        if not device.alive:
            # the raylet can see its own silicon (local knowledge, no
            # network): it refuses to launch onto a dead companion
            raise _TransientTaskError(f"device {device.device_id} is dead")
        ctx.dispatched = self.sim.now
        ctx.state = TaskState.RESOLVING

    def _resolve(self, ctx: _TaskCtx, device: Device, raylet: Raylet) -> Generator:
        """Phase 2: the arguments must reach *this device's* store — a copy
        on a sibling device of the same card still has to cross the intra-card
        link (through the DPU)."""
        unfetched = yield from self.data.resolve(ctx, raylet, device)
        if unfetched:
            raise _TransientTaskError(f"failed to fetch {unfetched} argument(s)")
        ctx.inputs_ready = self.sim.now

    def _execute(self, ctx: _TaskCtx, device: Device, raylet: Raylet) -> Generator:
        """Phase 3: take the actor's turn if any, burn device time, run the
        real payload.  Returns its outputs."""
        spec = ctx.spec
        # Gen-1: the DPU raylet must poke the companion device
        if raylet.endpoint != device.device_id:
            yield self.net.message(raylet.endpoint, device.device_id, label="launch")
        turn = None
        if spec.actor_id is not None:
            turn = yield from self.actors.turn(spec.actor_id)
        try:
            ctx.state = TaskState.RUNNING
            started_proc = device.execute(spec.compute_cost, label=spec.name)
            ctx.started = self.sim.now
            yield started_proc
            if not raylet.alive:
                raise _TransientTaskError("raylet died during execution")
            if not device.alive:
                raise _TransientTaskError("device died during execution")
            values = self._execute_payload(ctx)
            if spec.actor_id is not None:
                yield from self.actors.called(spec.actor_id)
        finally:
            if turn is not None:
                turn.release()  # the one taken: a restore gives the actor a fresh one
        return values

    def _commit(
        self, ctx: _TaskCtx, device: Device, raylet: Raylet, values: Tuple[Any, ...]
    ) -> _Committed:
        """Phase 4, the commit point: store the outputs locally and tell the
        directory.  No ``yield``: an attempt either committed or it did not.
        An output still READY (a replay's sibling that was not lost) keeps
        its copies, and a freed one stays freed; returns ``(object id,
        value, nbytes)`` of each output this attempt committed."""
        spec, store = ctx.spec, raylet.store_of(device.device_id)
        size = spec.output_nbytes
        committed = [
            (oid, value, estimate_nbytes(value) if size is None else size)
            for oid, value in zip(ctx.outputs, values)
            if self.ownership.awaits_commit(oid)
        ]
        try:
            for oid, value, nbytes in committed:
                if store.contains(oid):  # replay may have raced
                    store.delete(oid)
                store.put(oid, value, nbytes)
        except (SpillFailedError, StoreUnavailableError) as exc:
            # a dead blade refusing the spill (or an output device dying
            # under us) is a fault to retry around, not an app error; what
            # was stored goes too, so nothing half-commits
            for oid, _value, _nbytes in committed:
                store.delete(oid)
            raise _TransientTaskError(str(exc)) from None
        site = self.probe.attempt_site(spec.task_id, ctx.attempt, ctx.is_clone)
        for oid, _value, nbytes in committed:
            self.ownership.mark_ready(oid, device.device_id, nbytes, site)
            self.probe.attempt_commit(ctx, oid)
        return committed

    def _announce(
        self, ctx: _TaskCtx, device: Device, raylet: Raylet, committed: _Committed
    ) -> Generator:
        """Phase 4, after the commit point: pay the optional reliable-cache
        writes, report ``done`` to the scheduler/GCS (one message, however
        many outputs were committed)."""
        if self.reliable_cache is not None:  # replication/EC
            cost = sum(
                self.reliable_cache.put(oid, value, nbytes, preferred_node=device.node_id)
                for oid, value, nbytes in committed
            )
            yield self.sim.timeout(cost)
        for hook in self.on_commit:
            hook(ctx, device, committed)
        delivered = yield self.net.message(
            raylet.endpoint, self.scheduler.endpoint, label="done"
        )
        for hook in self.on_done:
            hook(ctx, device, committed, delivered)

    def _finish(self, ctx: _TaskCtx, main: _TaskCtx, device: Device, committed: _Committed) -> None:
        """Phase 5: first commit wins — close the task on its main record,
        stand the loser down, then push to subscribed consumers and wake the
        parked ones."""
        self.probe.task_finish(ctx.spec.task_id)
        ctx.state = main.state = TaskState.FINISHED  # main is not ctx when a clone won
        loser = main.twin if ctx is main else main
        main.twin = None
        if loser is not None and loser.proc is not None and loser.state in IN_FLIGHT_STATES:
            loser.proc.interrupt("speculative twin won")
        span = self._close_task_span(main, ctx)
        self.timelines.append(span)
        self._m_finished.inc()
        self._m_latency.observe(span.latency)
        self._m_stall.observe(span.input_stall)
        self._open_tasks -= 1
        self._task_closed(main)
        for hook in self.on_task_finished:
            hook(main, ctx, device)
        for oid, _value, _nbytes in committed:
            self.data.publish(oid)
            self._on_object_ready(oid)
        if not main.done.triggered:
            main.done.succeed()
        # the driver and recovery still read the task's state, spec and span;
        # the ctx, its signal and its attempts go
        if self._ctxs.get(main.spec.task_id) is main:
            del self._ctxs[main.spec.task_id]
        kept = FinishedTask(main.spec, span)
        for oid in main.outputs:
            if self._ctx_of_object.get(oid) is main:
                self._ctx_of_object[oid] = kept

    def _attempt_superseded(self, ctx: _TaskCtx) -> bool:
        """This attempt's outcome no longer matters: its task concluded, its
        results already committed (a speculative twin or a lineage replay got
        there first), or the task was reincarnated under it.  First commit
        wins; the rest stand down."""
        main = self._ctxs.get(ctx.spec.task_id)
        return (
            main is None  # the task finished (and its ctx was released)
            or (ctx is not main and ctx is not main.twin)  # a replay took the task over
            or main.state in _TERMINAL
            or self._outputs_ready(ctx)
        )

    def _place_or_retry(self, step: Callable[[_TaskCtx], None], ctx: _TaskCtx) -> None:
        """Run a placement step (``_route`` or ``_dispatch``); mid-chaos the
        cluster may have nowhere to run it right now — back off and retry."""
        try:
            step(ctx)
        except PlacementError as exc:
            self.supervisor.failed(ctx, cause=str(exc))

    def _fail_ctx(self, ctx: _TaskCtx, error: str) -> None:
        ctx.state = TaskState.FAILED
        ctx.error = error
        # the attempt it closes is in no record: emitted here
        self.probe.task_fail(ctx.spec.task_id, ctx.attempt, error)
        self._close_task_span(ctx)
        self._open_tasks -= 1
        self._record(
            "task_failed", task=ctx.spec.task_id, name=ctx.spec.name, error=error
        )
        self._task_closed(ctx)
        if not ctx.done.triggered:
            ctx.done.succeed()

    def _execute_payload(self, ctx: _TaskCtx) -> Tuple[Any, ...]:
        """Run the real Python function with resolved arguments; returns its
        outputs."""
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
        return split_returns(value, spec.num_returns, spec.name)

    def _on_object_ready(self, object_id: str) -> None:
        """Newly-ready objects poke observers and may unblock waiting tasks."""
        for hook in list(self.object_ready_hooks):
            hook(object_id)
        for ctx in self.data.released():
            self._place_or_retry(self._dispatch, ctx)

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
        that ``hit`` selects among these tasks (a fault strikes by device: every
        task with a ctx, in submission order); each resubmits itself via the retry path."""
        if among is None:  # a replay re-registers at the end of the table
            among = sorted(
                self._ctxs.values(), key=lambda c: (len(c.spec.task_id), c.spec.task_id)
            )
        for ctx in among:
            for victim in (ctx, ctx.twin):
                if victim is not None and victim.state in IN_FLIGHT_STATES and (
                    victim.proc is not None and hit(victim)
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
        """Permanently fail every non-terminal task, and refuse every later
        submit before it becomes one: the control plane is unrecoverable (no
        standby, or none left alive).  Failing before interrupting matters —
        the Interrupt handler sees a terminal state and returns instead of
        scheduling a retry against a dead GCS."""
        self.submit_gates.insert(0, partial(_refuse, reason))
        for task_id in sorted(self._ctxs):
            ctx = self._ctxs[task_id]
            if ctx.state in _TERMINAL:
                continue
            self._fail_ctx(ctx, reason)
            for victim in (ctx, ctx.twin):
                if victim is not None and victim.proc is not None:
                    victim.proc.interrupt(reason)

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
        """Reincarnate a concluded task so its lost outputs are rebuilt
        (lineage recovery's way into the task lifecycle).  A READY output
        keeps its entry and copies, and a freed one is not brought back."""
        outputs = self.lineage.outputs_of(spec.task_id)
        # reincarnation: later attempts of this task get distinct sites and
        # lease keys, so a replay is not confused with the task's first life
        self.probe.replay(spec.task_id)
        lost = [oid for oid in outputs if self.ownership.awaits_commit(oid)]
        for oid in lost:
            self.ownership.reset_pending(oid)
        ctx = _TaskCtx(spec, outputs, Signal(self.sim), self._open_task_span(spec, replayed=True))
        self._ctxs[spec.task_id] = ctx
        for oid in lost:
            self._ctx_of_object[oid] = ctx
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

    def timeline_of(self, ref: ObjectRef) -> TaskSpan:
        """The span of the task that produced ``ref``: its milestones (a
        KeyError for driver puts)."""
        ctx = self._ctx_of_object.get(ref.object_id)
        if ctx is None:
            raise KeyError(f"no task produced {ref.object_id!r}")
        return ctx.span

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

    def span_of(self, ref: ObjectRef) -> Optional[TaskSpan]:
        """The task span that produced ``ref`` (None for driver puts)."""
        ctx = self._ctx_of_object.get(ref.object_id)
        return None if ctx is None else ctx.span

    def critical_path(self, ref: ObjectRef) -> CriticalPathResult:
        """Latency attribution for the chain ending at ``ref``'s producer."""
        span = self.span_of(ref)
        if span is None:
            raise KeyError(f"no traced task produced {ref.object_id!r}")
        return extract_critical_path(self.telemetry.tracer.finished_spans(), span)


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
