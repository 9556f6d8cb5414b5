"""Static plan sanitizer: check a physical graph before any task launches.

The runtime's failures at launch time (``PlacementError``, ``KeyError`` on a
missing input) surface one at a time, deep inside the event loop.  The
sanitizer walks the whole :class:`PhysicalGraph` up front, against the
simulated cluster spec and the scheduler's live blacklist, and reports every
hazard at once:

* ``plan-cycle`` — the task dependency relation is not a DAG
* ``unknown-input`` — a task reads a producer id the plan does not contain
* ``no-input-compute`` — a compute task with no inputs (it would starve)
* ``orphan-task`` — a non-sink task whose output nothing consumes
* ``pin-unknown-device`` / ``pin-kind-mismatch`` / ``pin-dead-device`` —
  placement hazards for pinned tasks
* ``unplaceable-kind`` — no schedulable device of any supported kind
* ``input-unresolvable`` — a task is placeable but one of its producers is
  not: its inputs can never resolve
* ``device-memory-oversubscribed`` / ``kind-memory-oversubscribed`` —
  static output-size accounting exceeds the device (ERROR) or the device
  kind's aggregate memory (WARNING)
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from ..cluster.hardware import Device, DeviceKind
from ..flowgraph.physical import PhysicalGraph, PhysicalTask
from .diagnostics import DiagnosticSet

__all__ = ["DeviceView", "sanitize_plan", "PlanSanitizerError"]


class DeviceView:
    """Prebuilt placement view of the cluster (id index, blacklist, and the
    set of kinds with at least one live device).  The scheduler keeps one
    and reuses it across launches until the blacklist changes, so repeated
    sanitizer runs skip rebuilding these structures."""

    __slots__ = ("devices", "by_id", "blacklist", "placeable_kinds")

    def __init__(self, devices: Iterable[Device], blacklisted: Iterable[str] = ()):
        self.devices: List[Device] = list(devices)
        self.by_id: Dict[str, Device] = {d.device_id: d for d in self.devices}
        self.blacklist: Set[str] = set(blacklisted)
        self.placeable_kinds: Set[DeviceKind] = {
            d.kind for d in self.devices if d.device_id not in self.blacklist
        }


class PlanSanitizerError(RuntimeError):
    """Raised in strict mode; carries the full diagnostic set."""

    def __init__(self, diags: DiagnosticSet):
        self.diagnostics = diags
        super().__init__("plan sanitizer found errors:\n" + diags.render())


def _task_text(task: PhysicalTask) -> str:
    pins = f" pin={task.pinned_device}" if task.pinned_device else ""
    kinds = ",".join(sorted(k.value for k in task.supported_kinds))
    return f"{task.ptask_id} [{task.kind}] {task.name} kinds={kinds}{pins}"


def sanitize_plan(
    pgraph: PhysicalGraph,
    devices: Optional[Iterable[Device]] = None,
    blacklisted: Iterable[str] = (),
    diags: Optional[DiagnosticSet] = None,
) -> DiagnosticSet:
    """Check every static invariant of a physical plan.

    ``devices`` is the schedulable device list (omit to skip placement and
    capacity checks); ``blacklisted`` holds device ids the failure detector
    currently excludes.
    """
    diags = diags if diags is not None else DiagnosticSet()
    graph_name = pgraph.logical.name
    tasks = pgraph.tasks

    placement = devices is not None
    if placement:
        if isinstance(devices, DeviceView) and not blacklisted:
            view = devices
        else:
            extra = set(blacklisted)
            if isinstance(devices, DeviceView):
                view = DeviceView(devices.devices, devices.blacklist | extra)
            else:
                view = DeviceView(devices, extra)
        device_list = view.devices
        by_id = view.by_id
        blacklist = view.blacklist
        placeable_kinds = view.placeable_kinds
        kind_verdicts: Dict[frozenset, bool] = {}
        pinned_bytes: Dict[str, int] = {}
        kind_only_bytes: Dict[DeviceKind, int] = {}

    # one fused walk in plan order: flatten inputs, build the consumer
    # relation, and run the per-task structural / placement / capacity
    # checks together — the sanitizer sits on every strict-mode launch, so
    # its cost must stay a small fraction of building the plan itself
    inputs_by_task: Dict[str, List[str]] = {}
    consumers: Dict[str, List[str]] = {pid: [] for pid in tasks}
    unplaceable: Set[str] = set()
    seen: Set[str] = set()
    order_is_topological = True

    for order_index, ptask_id in enumerate(pgraph.order):
        task = tasks[ptask_id]
        inputs = [pid for pids in task.inputs for pid in pids]
        inputs_by_task[ptask_id] = inputs
        for pid in inputs:
            feeds = consumers.get(pid)
            if feeds is None:
                diags.error(
                    "unknown-input",
                    f"reads {pid!r}, which is not a task in this plan",
                    func=graph_name,
                    op_index=order_index,
                    op_text=_task_text(task),
                )
            else:
                feeds.append(ptask_id)
                if pid not in seen:
                    order_is_topological = False
        seen.add(ptask_id)
        if not inputs and task.kind != "source":
            diags.error(
                "no-input-compute",
                f"{task.kind} task has no inputs and would starve",
                func=graph_name,
                op_index=order_index,
                op_text=_task_text(task),
                hint="sources must carry a source_table; everything else "
                "needs at least one in-edge",
            )

        if not placement:
            continue

        pin = task.pinned_device
        if pin is None:
            kinds = task.supported_kinds
            placeable = kind_verdicts.get(kinds)
            if placeable is None:
                placeable = bool(kinds & placeable_kinds)
                kind_verdicts[kinds] = placeable
            if not placeable:
                diags.error(
                    "unplaceable-kind",
                    "no schedulable (non-blacklisted) device of kinds "
                    f"{sorted(k.value for k in kinds)}",
                    func=graph_name,
                    op_index=order_index,
                    op_text=_task_text(task),
                )
                unplaceable.add(ptask_id)
            size = (task.output_nbytes or 0) * task.num_outputs
            if size and len(task.supported_kinds) == 1:
                (kind,) = tuple(task.supported_kinds)
                kind_only_bytes[kind] = kind_only_bytes.get(kind, 0) + size
        else:
            if not _check_pin(
                task, order_index, by_id, blacklist, diags, graph_name
            ):
                unplaceable.add(ptask_id)
            size = (task.output_nbytes or 0) * task.num_outputs
            if size and pin in by_id:
                pinned_bytes[pin] = pinned_bytes.get(pin, 0) + size

    if not order_is_topological:
        _check_cycles(tasks, inputs_by_task, consumers, diags, graph_name)
    _check_orphans(pgraph, consumers, diags, graph_name)

    if not placement:
        return diags

    # a placeable task whose producer is unplaceable still can never run
    if unplaceable:
        _check_inputs_resolvable(
            pgraph, inputs_by_task, unplaceable, diags, graph_name
        )

    if pinned_bytes or kind_only_bytes:
        _report_capacity(
            pinned_bytes, kind_only_bytes, device_list, by_id, diags, graph_name
        )
    return diags


def _check_inputs_resolvable(
    pgraph: PhysicalGraph,
    inputs_by_task: Dict[str, List[str]],
    unplaceable: Set[str],
    diags: DiagnosticSet,
    graph_name: str,
) -> None:
    tasks = pgraph.tasks
    for order_index, ptask_id in enumerate(pgraph.order):
        task = tasks[ptask_id]
        if ptask_id in unplaceable:
            continue
        bad = [pid for pid in inputs_by_task[ptask_id] if pid in unplaceable]
        if bad:
            diags.error(
                "input-unresolvable",
                f"inputs {bad} can never be produced (their tasks are "
                "unplaceable), so this task would wait forever",
                func=graph_name,
                op_index=order_index,
                op_text=_task_text(task),
            )


def _check_cycles(
    tasks: Dict[str, PhysicalTask],
    inputs_by_task: Dict[str, List[str]],
    consumers: Dict[str, List[str]],
    diags: DiagnosticSet,
    graph_name: str,
) -> None:
    """Kahn's algorithm; only reached when the plan order itself is not a
    valid topological order (some task reads a producer listed later)."""
    indegree = {
        pid: sum(1 for dep in inputs_by_task[pid] if dep in tasks)
        for pid in tasks
    }
    ready = sorted(pid for pid, deg in indegree.items() if deg == 0)
    visited = 0
    while ready:
        pid = ready.pop()
        visited += 1
        for consumer in consumers[pid]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
    if visited != len(tasks):
        stuck = sorted(pid for pid, deg in indegree.items() if deg > 0)
        diags.error(
            "plan-cycle",
            f"dependency cycle through {stuck[:6]}"
            + ("..." if len(stuck) > 6 else ""),
            func=graph_name,
            hint="physical plans must be DAGs; break the cycle with an "
            "explicit materialization",
        )


def _check_orphans(
    pgraph: PhysicalGraph,
    consumers: Dict[str, List[str]],
    diags: DiagnosticSet,
    graph_name: str,
) -> None:
    sink_ids = {pid for pids in pgraph.sink_tasks().values() for pid in pids}
    tasks = pgraph.tasks
    for order_index, ptask_id in enumerate(pgraph.order):
        if not consumers[ptask_id] and ptask_id not in sink_ids:
            diags.warning(
                "orphan-task",
                "output feeds no consumer and is not a sink shard; the task "
                "would run for nothing",
                func=graph_name,
                op_index=order_index,
                op_text=_task_text(tasks[ptask_id]),
                hint="drop the task or wire its output somewhere",
            )


def _check_pin(
    task: PhysicalTask,
    order_index: int,
    by_id: Dict[str, Device],
    blacklist: Set[str],
    diags: DiagnosticSet,
    graph_name: str,
) -> bool:
    """Returns False when the pinned task can never be placed."""
    device = by_id.get(task.pinned_device)
    if device is None:
        diags.error(
            "pin-unknown-device",
            f"pinned to {task.pinned_device!r}, which is not a "
            "schedulable device in this cluster",
            func=graph_name,
            op_index=order_index,
            op_text=_task_text(task),
        )
        return False
    if task.pinned_device in blacklist:
        diags.error(
            "pin-dead-device",
            f"pinned to {task.pinned_device!r}, which the failure "
            "detector has blacklisted",
            func=graph_name,
            op_index=order_index,
            op_text=_task_text(task),
            hint="unpin the task or wait for the device to recover",
        )
        return False
    if device.kind not in task.supported_kinds:
        diags.error(
            "pin-kind-mismatch",
            f"pinned to {task.pinned_device!r} ({device.kind.value}) but "
            f"only supports "
            f"{sorted(k.value for k in task.supported_kinds)}",
            func=graph_name,
            op_index=order_index,
            op_text=_task_text(task),
        )
        return False
    return True


def _report_capacity(
    pinned_bytes: Dict[str, int],
    kind_only_bytes: Dict[DeviceKind, int],
    devices: List[Device],
    by_id: Dict[str, Device],
    diags: DiagnosticSet,
    graph_name: str,
) -> None:
    """Static output-size accounting against the cluster spec.

    Conservative in both directions — it assumes every output is resident
    at once (no eviction), so findings are sized-based warnings/errors, not
    proofs; a single pinned device asked to hold more bytes than it has is
    still always a real hazard."""
    for device_id, total in sorted(pinned_bytes.items()):
        budget = by_id[device_id].spec.memory_bytes
        if total > budget:
            diags.error(
                "device-memory-oversubscribed",
                f"tasks pinned to {device_id!r} produce {total} bytes but the "
                f"device has {budget}",
                func=graph_name,
                hint="spread the pins or raise the device's memory in the "
                "cluster spec",
            )

    for kind, total in sorted(kind_only_bytes.items(), key=lambda kv: kv[0].value):
        budget = sum(d.spec.memory_bytes for d in devices if d.kind == kind)
        if budget and total > budget:
            diags.warning(
                "kind-memory-oversubscribed",
                f"tasks restricted to {kind.value} produce {total} bytes; all "
                f"{kind.value} devices together hold {budget}",
                func=graph_name,
                hint="relax supported_kinds or shrink shard outputs",
            )

