"""Task placement: the control plane's scheduling policies.

§2.3: "the control plane embraces data-centric scheduling for higher
utilization, and forgoes the CPU-centric model to better support
short-lived operators on heterogeneous hardware.  If necessary, it could
also integrate gang-scheduling to support SPMD-style sub-graphs."

The scheduler is a pure placement engine: given a task, the candidate
devices, and the object directory, pick a device.  The runtime owns the
event-driven plumbing around it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from ..cluster.cluster import Cluster
from ..cluster.hardware import Device
from .config import SchedulingPolicy
from .ownership import OwnershipTable, ValueState
from .task import TaskSpec

__all__ = ["Scheduler", "PlacementError"]


class PlacementError(RuntimeError):
    """No device can host the task."""


class Scheduler:
    """Centralized scheduler with pluggable placement policy."""

    def __init__(
        self,
        cluster: Cluster,
        ownership: OwnershipTable,
        policy: SchedulingPolicy,
        schedulable_devices: Sequence[Device],
        endpoint: str,
        metrics=None,
    ):
        if not schedulable_devices:
            raise PlacementError("no schedulable devices in the cluster")
        self.cluster = cluster
        self.ownership = ownership
        self.policy = policy
        self.endpoint = endpoint  # where the scheduler runs (control messages)
        self.metrics = metrics  # optional telemetry MetricsRegistry
        self._devices = list(schedulable_devices)
        self._outstanding: Dict[str, int] = {d.device_id: 0 for d in self._devices}
        self._rr_cursor = 0
        # the runtime narrows this to "raylet is alive" after node failures
        self.alive_filter: Callable[[str], bool] = lambda _device_id: True
        # devices on suspected/dead nodes, excluded at placement time until
        # the failure detector (or an explicit restart) clears them
        self._blacklisted: set[str] = set()
        # overload control: the runtime installs a circuit-breaker predicate
        # here; devices it rejects are skipped *if* other candidates remain
        # (a fully-tripped pool falls back to ignoring breakers rather than
        # refusing placement outright)
        self.breaker_filter: Callable[[str], bool] = lambda _device_id: True

    # -- blacklisting (failure detection feeds this) -------------------------

    def blacklist(self, device_id: str) -> None:
        self._blacklisted.add(device_id)
        self._meter_capacity()

    def unblacklist(self, device_id: str) -> None:
        self._blacklisted.discard(device_id)
        self._meter_capacity()

    def _meter_capacity(self) -> None:
        """Degraded-mode visibility: how much of the cluster can still be
        scheduled onto.  Killing a single GPU shrinks these gauges without
        failing the job — the telemetry face of device-granular failure."""
        if self.metrics is None:
            return
        live = [
            d
            for d in self._devices
            if d.device_id not in self._blacklisted and self.alive_filter(d.device_id)
        ]
        self.metrics.gauge(
            "skadi_scheduler_capacity_slots",
            "total task slots across schedulable (non-blacklisted, live) devices",
        ).set(float(sum(d.spec.slots for d in live)))
        self.metrics.gauge(
            "skadi_scheduler_schedulable_devices",
            "devices the scheduler may currently place work on",
        ).set(float(len(live)))

    def clear_blacklist(self) -> None:
        """Forget every placement exclusion (control-plane HA failover: the
        winner re-derives the blacklist from its replicated WAL)."""
        self._blacklisted.clear()
        self._meter_capacity()

    def is_blacklisted(self, device_id: str) -> bool:
        return device_id in self._blacklisted

    @property
    def blacklisted_devices(self) -> frozenset:
        return frozenset(self._blacklisted)

    # -- bookkeeping the runtime drives -------------------------------------

    def task_started(self, device_id: str) -> None:
        self._outstanding[device_id] = self._outstanding.get(device_id, 0) + 1
        self._meter_outstanding(device_id)

    def task_finished(self, device_id: str) -> None:
        self._outstanding[device_id] = max(0, self._outstanding.get(device_id, 0) - 1)
        self._meter_outstanding(device_id)

    def _meter_outstanding(self, device_id: str) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "skadi_device_outstanding_tasks",
                "tasks running or queued on each device",
                device=device_id,
            ).set(float(self._outstanding.get(device_id, 0)))

    def outstanding(self, device_id: str) -> int:
        return self._outstanding.get(device_id, 0)

    # -- static plan sanitation ----------------------------------------------

    def sanitize_plan(self, pgraph):
        """Statically check a physical plan against this scheduler's world
        view: the schedulable device list plus everything currently
        blacklisted or failed.  Returns the full ``DiagnosticSet``; strict
        callers raise on ``not diags.ok``."""
        from ..analysis.sanitizer import DeviceView, sanitize_plan

        dead = set(self._blacklisted)
        dead.update(
            d.device_id for d in self._devices if not self.alive_filter(d.device_id)
        )
        view = getattr(self, "_plan_view", None)
        if view is None or view.blacklist != dead:
            view = DeviceView(self._devices, dead)
            self._plan_view = view
        return sanitize_plan(pgraph, devices=view)

    # -- placement -----------------------------------------------------------

    def candidates(self, task: TaskSpec) -> List[Device]:
        if task.pinned_device is not None:
            matches = [d for d in self._devices if d.device_id == task.pinned_device]
            if not matches:
                raise PlacementError(
                    f"task {task.task_id} pinned to unknown/unschedulable device "
                    f"{task.pinned_device!r}"
                )
            return matches
        matches = [
            d
            for d in self._devices
            if d.kind in task.supported_kinds
            and d.device_id not in self._blacklisted
            and self.alive_filter(d.device_id)
        ]
        if not matches:
            raise PlacementError(
                f"task {task.task_id} supports {sorted(k.value for k in task.supported_kinds)} "
                f"but cluster has no schedulable device of those kinds"
            )
        unbroken = [d for d in matches if self.breaker_filter(d.device_id)]
        return unbroken or matches

    def place(self, task: TaskSpec) -> Device:
        return self._meter_placement(self._pick(task))

    def _pick(self, task: TaskSpec) -> Device:
        candidates = self.candidates(task)
        if len(candidates) == 1:
            return candidates[0]
        if self.policy == SchedulingPolicy.ROUND_ROBIN:
            device = candidates[self._rr_cursor % len(candidates)]
            self._rr_cursor += 1
            return device
        if self.policy == SchedulingPolicy.LEAST_LOADED:
            return min(candidates, key=lambda d: (self.outstanding(d.device_id), d.device_id))
        if self.policy == SchedulingPolicy.LOCALITY:
            return self._place_locality(task, candidates)
        raise ValueError(f"unknown policy {self.policy}")

    def _meter_placement(self, device: Device) -> Device:
        if self.metrics is not None:
            self.metrics.counter(
                "skadi_placements_total",
                "placement decisions by policy and chosen device",
                policy=self.policy.value,
                device=device.device_id,
            ).inc()
        return device

    def _place_locality(self, task: TaskSpec, candidates: List[Device]) -> Device:
        """Data-centric: minimize estimated bytes-over-links to gather inputs,
        then compute time, then queueing.

        The estimates price in each link's queued backlog and residual busy
        window, so a candidate behind a hot link loses to an equally-distant
        candidate on an idle path."""
        deps = task.dependencies

        def cost(device: Device) -> tuple:
            move_time = 0.0
            for ref in deps:
                if not self.ownership.contains(ref.object_id):
                    continue
                entry = self.ownership.entry(ref.object_id)
                if entry.state != ValueState.READY or not entry.locations:
                    continue
                # cheapest source copy
                best = min(
                    self.cluster.network.transfer_time_estimate(
                        self._node_data_endpoint(loc),
                        device.device_id,
                        entry.nbytes,
                        contended=True,
                    )
                    for loc in sorted(entry.locations)
                )
                move_time += best
            compute_time = device.spec.scaled_duration(task.compute_cost)
            queue_penalty = self.outstanding(device.device_id) * device.spec.dispatch_overhead
            return (move_time + compute_time + queue_penalty, device.device_id)

        return min(candidates, key=cost)

    def _node_data_endpoint(self, node_id: str) -> str:
        return self.cluster.node(node_id).dominant_device.device_id

    # -- gang scheduling -------------------------------------------------------

    def place_gang(self, tasks: Sequence[TaskSpec]) -> Dict[str, Device]:
        """Place an SPMD gang onto *distinct* devices, all-or-nothing.

        Raises :class:`PlacementError` when the gang cannot fit.
        """
        if not tasks:
            return {}
        placements: Dict[str, Device] = {}
        taken: set[str] = set()
        # Greedy by most-constrained-first for determinism and better packing.
        for task in sorted(tasks, key=lambda t: (len(self.candidates(t)), t.task_id)):
            options = [d for d in self.candidates(task) if d.device_id not in taken]
            if not options:
                raise PlacementError(
                    f"gang {task.gang_group!r}: no distinct device left for {task.task_id}"
                )
            device = min(
                options, key=lambda d: (self.outstanding(d.device_id), d.device_id)
            )
            placements[task.task_id] = self._meter_placement(device)
            taken.add(device.device_id)
        return placements
