"""Task placement: the control plane's scheduling policies.

§2.3: "the control plane embraces data-centric scheduling for higher
utilization, and forgoes the CPU-centric model to better support
short-lived operators on heterogeneous hardware.  If necessary, it could
also integrate gang-scheduling to support SPMD-style sub-graphs."

The scheduler is a pure placement engine behind three verbs: ``blacklist``
and ``unblacklist`` change the placement view it keeps, ``place`` (and
``place_gang``) pick from it.  One rule picks: the configured policy, which a
gang member and a speculative backup go through too, each with the devices it
must not share left out.  The runtime owns the event-driven plumbing and
reports what placement prices: the leases in flight to each device's raylet
(``lease_sent``/``lease_ended``, read by the locality rule, which prices the
queue a new task would join: those leases, each at its raylet's handling
cost, plus the device's tasks waiting for a slot).  A lease counts from the
instant after it was sent, so every placement made in one instant sees the
same view.  Under PULL the data plane sets ``fetch_overhead``, what a pull
pays besides its bytes.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Collection, Dict, FrozenSet, Optional, Sequence, Tuple

from ..cluster.cluster import Cluster
from ..cluster.hardware import Device, DeviceKind
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
        metrics: Any,
    ):
        if not schedulable_devices:
            raise PlacementError("no schedulable devices in the cluster")
        self.cluster = cluster
        self.ownership = ownership
        self.policy = policy
        self.endpoint = endpoint  # where the scheduler runs (control messages)
        # ``metrics`` is a telemetry MetricsRegistry (duck-typed)
        self._m_placements = metrics.series(
            "counter",
            "skadi_placements_total",
            "placement decisions by policy and chosen device",
            "policy",
            "device",
        )
        # degraded mode: killing a single GPU shrinks these without failing the job
        self._m_capacity = metrics.gauge(
            "skadi_scheduler_capacity_slots",
            "total task slots across schedulable (non-blacklisted, live) devices",
        )
        self._m_schedulable = metrics.gauge(
            "skadi_scheduler_schedulable_devices",
            "devices the scheduler may currently place work on",
        )
        self._devices = list(schedulable_devices)
        self._by_id: Dict[str, Device] = {d.device_id: d for d in self._devices}
        # leases in flight per device: those sent before ``_fresh_at`` count,
        # those sent at it wait for the next instant; each costs its raylet
        # ``_lease_cost`` seconds of handling
        self._leases: Dict[str, int] = {}
        self._fresh: Dict[str, int] = {}
        self._fresh_at = -math.inf
        self._lease_cost: Dict[str, float] = {}
        # (copy endpoint, destination) -> seconds a pull pays besides the
        # transfer; None prices the transfer alone (PUSH)
        self.fetch_overhead: Optional[Callable[[str, str], float]] = None
        self._rr_cursor = 0
        # the placement view: every schedulable device not blacklisted (by a
        # verdict, a down raylet or the driver); only the two verbs change it
        self._blacklisted: set[str] = set()
        self._view_changed()  # builds self.placeable

    # -- the view: the verbs that change it ----------------------------------

    def blacklist(self, device_id: str) -> None:
        """Take a device out of the placement view."""
        self._blacklisted.add(device_id)
        self._view_changed()

    def unblacklist(self, device_id: str) -> None:
        """Put a device back into the placement view."""
        self._blacklisted.discard(device_id)
        self._view_changed()

    def is_blacklisted(self, device_id: str) -> bool:
        return device_id in self._blacklisted

    def _view_changed(self) -> None:
        self.placeable = tuple(d for d in self._devices if d.device_id not in self._blacklisted)
        # kind set -> its candidates, kept until the view changes again
        self._by_kinds: Dict[FrozenSet[DeviceKind], Tuple[Device, ...]] = {}
        self._plan_view = None
        self._m_capacity.set(float(sum(d.spec.slots for d in self.placeable)))
        self._m_schedulable.set(float(len(self.placeable)))

    # -- bookkeeping the runtime drives -------------------------------------

    def lease_sent(self, device_id: str, handling: float) -> float:
        """A lease left for ``device_id``'s raylet, which spends ``handling``
        seconds on it.  Returns the instant, which :meth:`lease_ended` takes."""
        self._count_fresh()
        self._fresh[device_id] = self._fresh.get(device_id, 0) + 1
        self._lease_cost[device_id] = handling
        return self._fresh_at

    def lease_ended(self, device_id: str, sent_at: float) -> None:
        """The lease sent at ``sent_at`` is over, however it ended."""
        leases = self._fresh if sent_at == self._fresh_at else self._leases
        left = leases[device_id] - 1
        if left:
            leases[device_id] = left
        else:
            del leases[device_id]

    def leases_in_flight(self, device_id: str) -> int:
        return self._leases.get(device_id, 0) + self._fresh.get(device_id, 0)

    def _count_fresh(self) -> None:
        """At a new instant, the leases sent at an earlier one start to count."""
        now = self.cluster.sim.now
        if now != self._fresh_at:
            leases = self._leases
            for device_id, n in self._fresh.items():
                leases[device_id] = leases.get(device_id, 0) + n
            self._fresh.clear()
            self._fresh_at = now

    # -- static plan sanitation ----------------------------------------------

    def sanitize_plan(self, pgraph):
        """Statically check a physical plan against the placement view.
        Returns the full ``DiagnosticSet``; strict callers raise on
        ``not diags.ok``."""
        from ..analysis.sanitizer import DeviceView, sanitize_plan

        if self._plan_view is None:
            self._plan_view = DeviceView(self._devices, self._blacklisted)
        return sanitize_plan(pgraph, devices=self._plan_view)

    # -- placement -----------------------------------------------------------

    def candidates(self, task: TaskSpec) -> Tuple[Device, ...]:
        """The devices in the view that can run ``task``.  A pinned task gets
        its device whether or not it is in the view."""
        if task.pinned_device is not None:
            device = self._by_id.get(task.pinned_device)
            if device is None:
                raise PlacementError(
                    f"task {task.task_id} pinned to unknown/unschedulable device "
                    f"{task.pinned_device!r}"
                )
            return (device,)
        kinds = task.supported_kinds
        matches = self._by_kinds.get(kinds)
        if matches is None:
            matches = self._by_kinds[kinds] = tuple(d for d in self.placeable if d.kind in kinds)
        if not matches:
            raise PlacementError(
                f"task {task.task_id} supports {sorted(k.value for k in task.supported_kinds)} "
                f"but cluster has no schedulable device of those kinds"
            )
        return matches

    def check_pin(self, task: TaskSpec) -> None:
        """Raise :class:`PlacementError` when ``task`` is pinned to a device no
        placement can give it now: one the cluster does not schedule, or one
        out of the view."""
        if task.pinned_device is None:
            return
        (device,) = self.candidates(task)
        if self.is_blacklisted(device.device_id):
            raise PlacementError(f"no live device for task {task.task_id}")

    def place(self, task: TaskSpec, avoid: Optional[str] = None) -> Device:
        """Pick ``task``'s device by the policy; ``avoid`` (a device the last
        attempt timed out on) is left out unless it is the only candidate."""
        candidates = self.candidates(task)
        if avoid is not None and len(candidates) > 1:
            candidates = tuple(d for d in candidates if d.device_id != avoid)
        return self._meter_placement(self._choose(task, candidates))

    def place_apart(self, task: TaskSpec, excluded: Collection[str]) -> Optional[Device]:
        """Pick ``task``'s device by the policy among its candidates outside
        ``excluded`` (a gang's members placed so far, a backup's straggler);
        None when none is left.  Unmetered: a backup is no placement."""
        candidates = tuple(d for d in self.candidates(task) if d.device_id not in excluded)
        return self._choose(task, candidates) if candidates else None

    def _choose(self, task: TaskSpec, candidates: Sequence[Device]) -> Device:
        """The one placement rule: the configured policy over ``candidates``."""
        if len(candidates) == 1:
            return candidates[0]
        if self.policy == SchedulingPolicy.ROUND_ROBIN:
            device = candidates[self._rr_cursor % len(candidates)]
            self._rr_cursor += 1
            return device
        if self.policy == SchedulingPolicy.LOCALITY:
            return self._place_locality(task, candidates)
        raise ValueError(f"unknown policy {self.policy}")

    def _meter_placement(self, device: Device) -> Device:
        self._m_placements.of(self.policy.value, device.device_id).inc()
        return device

    def _place_locality(self, task: TaskSpec, candidates: Sequence[Device]) -> Device:
        """Data-centric: the candidate with the least ``(cost, device_id)``,
        where cost is one summed time, ``move + compute + queue``.

        * ``move`` adds up, input by input, what bringing each READY input
          from its cheapest copy costs (a copy is priced at the store the
          directory records for it, so a copy in a GPU's store is priced from
          that GPU): the contended transfer estimate, which prices in each
          link's queued backlog (a candidate behind a hot link loses to an
          equally-distant one on an idle path), plus,
          under PULL, ``fetch_overhead``: the locate round trip to the GCS,
          the pull-request round trip to the copy's raylet and that
          raylet's handling.  A candidate holding a copy moves nothing.
        * ``compute`` is the task's scaled duration on the device.
        * ``queue`` is the queue the task would join there: the leases in
          flight to it (sent at an earlier instant, not yet handled), each
          at its raylet's handling cost, plus its tasks waiting for a slot,
          each at its dispatch overhead.  Tasks that hold a slot are no
          queue: a slow device does not look busy.

        Only candidates that can win are priced.  Each gets an exact lower
        bound, ``compute + queue``, plus the fabric's smallest hop latency
        first when it holds no copy of some input: that input's every route
        has a hop, and degradation never makes a hop faster (the fetch
        overhead only adds).  Float addition is monotone, so the bound never
        exceeds the cost summed in the same order.  Candidates are priced in
        ``(bound, device_id)`` order, popped from a heap built for this
        placement, and the scan stops at the first whose ``(bound,
        device_id)`` is above the best ``(cost, device_id)``: no later
        candidate can beat it."""
        # each READY input's copy stores and size, read once
        inputs = []
        for ref in task.dependencies:
            if not self.ownership.contains(ref.object_id):
                continue
            entry = self.ownership.entry(ref.object_id)
            if entry.state != ValueState.READY or not entry.locations:
                continue
            inputs.append((tuple(sorted(entry.locations)), entry.nbytes))
        # the stores holding a copy of every input: only they may move nothing
        holders = set.intersection(*(set(sources) for sources, _ in inputs)) if inputs else set()
        hop = self.cluster.topology.min_link_latency() if inputs else 0.0
        self._count_fresh()
        leases, lease_cost, compute_cost = self._leases, self._lease_cost, task.compute_cost
        order = []
        for device in candidates:
            device_id, spec = device.device_id, device.spec
            compute_time = spec.scaled_duration(compute_cost)
            queue_time = device.slots.queued * spec.dispatch_overhead
            if device_id in leases:
                queue_time += leases[device_id] * lease_cost[device_id]
            bound = (0.0 if device_id in holders else hop) + compute_time + queue_time
            order.append((bound, device_id, compute_time, queue_time, device))
        heapq.heapify(order)

        estimate, fetch = self.cluster.network.transfer_time_estimate, self.fetch_overhead
        best = best_device = None
        while order:
            bound, device_id, compute_time, queue_time, device = heapq.heappop(order)
            if best is not None and (bound, device_id) > best:
                break
            move_time = 0.0
            for sources, nbytes in inputs:
                if device_id in sources:
                    continue
                move_time += min(
                    estimate(src, device_id, nbytes, contended=True)
                    + (0.0 if fetch is None else fetch(src, device_id))
                    for src in sources
                )
            cost = (move_time + compute_time + queue_time, device_id)
            if best is None or cost < best:
                best, best_device = cost, device
        return best_device

    # -- gang scheduling -------------------------------------------------------

    def place_gang(self, tasks: Sequence[TaskSpec]) -> Dict[str, Device]:
        """Place an SPMD gang onto *distinct* devices, all-or-nothing.

        Raises :class:`PlacementError` when the gang cannot fit.
        """
        placements: Dict[str, Device] = {}
        taken: set[str] = set()
        # Greedy by most-constrained-first for determinism and better packing.
        for task in sorted(tasks, key=lambda t: (len(self.candidates(t)), t.task_id)):
            device = self.place_apart(task, taken)
            if device is None:
                raise PlacementError(
                    f"gang {task.gang_group!r}: no distinct device left for {task.task_id}"
                )
            placements[task.task_id] = self._meter_placement(device)
            taken.add(device.device_id)
        return placements
