"""The chaos monkey: arms a fault schedule against a live runtime.

Injection is *physical*: a :class:`NodeCrash` kills raylets, wipes their
stores, and interrupts the task attempts running there.  What each strike
does to the hardware, and whether the control plane hears of it at once or
has to detect it (suspicion → blacklist → retry → actor reconstruction),
is :mod:`repro.runtime.failures`' business; the monkey only decides *when*.

Every injection lands in the runtime's event log as a ``chaos_*`` event,
so traces show faults next to the recovery storms they trigger and two
seeded runs can be compared signature-for-signature.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set, TYPE_CHECKING

from ..runtime.overload import AdmissionRejectedError
from ..serving.arrivals import uniform_offsets
from .events import (
    BladeFailure,
    ChaosSchedule,
    DeviceFailure,
    DpuFailure,
    Fault,
    HeadFailure,
    LinkDegradation,
    LoadBurst,
    MessageLoss,
    NetworkPartition,
    NodeCrash,
    Straggler,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.runtime import ServerlessRuntime

__all__ = ["ChaosMonkey"]


class ChaosMonkey:
    """Schedules a :class:`ChaosSchedule`'s faults on the simulator clock."""

    def __init__(
        self,
        runtime: "ServerlessRuntime",
        schedule: ChaosSchedule,
        task_source: Optional[Callable[[int], object]] = None,
    ):
        self.runtime = runtime
        self.sim = runtime.sim
        self.schedule = schedule
        self.injected: List[Fault] = []
        # LoadBurst needs a workload to inject: task_source(i) submits the
        # i-th burst task (and may raise AdmissionRejectedError, counted below)
        self.task_source = task_source
        self.load_submitted = 0
        self.load_rejected = 0
        self._armed = False
        self._reactive_fired: Set[str] = set()

    def arm(self) -> "ChaosMonkey":
        """Pin every fault to its virtual time; call once, before running.

        Validates the schedule against the runtime's cluster first, so a
        typo'd victim or an impossible recovery window fails loudly here
        instead of as a silent no-op mid-run.
        """
        if self._armed:
            raise RuntimeError("chaos monkey is already armed")
        if self.task_source is None and any(
            isinstance(f, LoadBurst) for f in self.schedule.faults
        ):
            raise RuntimeError(
                "schedule contains a LoadBurst but the monkey has no "
                "task_source to draw submissions from"
            )
        cluster = self.runtime.cluster
        self.schedule.validate(
            node_ids=[n for n in cluster.nodes],
            device_ids=[d.device_id for d in cluster.all_devices()],
            extra_endpoints=(cluster.switch_id,),
        )
        self._armed = True
        for fault in self.schedule.ordered():
            self.sim.schedule_at(fault.at, self._inject, fault)
        return self

    def crash_on_object_ready(
        self, object_id: str, node_id: str, restart_after: Optional[float] = None
    ) -> None:
        """Reactive injection: kill ``node_id`` the instant ``object_id``
        materializes (fires once).  Useful for racing recovery paths."""

        def hook(ready_oid: str) -> None:
            key = f"{object_id}->{node_id}"
            if ready_oid == object_id and key not in self._reactive_fired:
                self._reactive_fired.add(key)
                self._inject(NodeCrash(self.sim.now, node_id, restart_after))

        self.runtime.object_ready_hooks.append(hook)

    # -- injection -----------------------------------------------------------

    def _inject(self, fault: Fault) -> None:
        self.injected.append(fault)
        inject = self._INJECTORS.get(type(fault))
        if inject is None:  # pragma: no cover - future fault kinds
            raise TypeError(f"unknown fault {fault!r}")
        inject(self, fault)

    # -- failure domains: record the injection, strike, schedule the revival --

    def _crash(self, fault: NodeCrash) -> None:
        self.runtime._record("chaos_node_crash", node=fault.node_id)
        self.runtime.failures.fail_node(fault.node_id, cause="chaos crash")
        if fault.restart_after is not None:
            self.sim.schedule(fault.restart_after, self._restart, fault.node_id)

    def _restart(self, node_id: str) -> None:
        self.runtime._record("chaos_node_restart", node=node_id)
        self.runtime.failures.restart_node(node_id)

    def _fail_head(self, fault: HeadFailure) -> None:
        # resolved at fire time: after a failover the head is the elected
        # standby, not the original server0
        node_id = self.runtime.head_node_id
        self.runtime._record("chaos_head_failure", node=node_id)
        self.runtime.failures.fail_head()
        if fault.restart_after is not None:
            self.sim.schedule(fault.restart_after, self._restart, node_id)

    def _fail_device(self, fault: DeviceFailure) -> None:
        rt = self.runtime
        node_id = rt.cluster.device(fault.device_id).node_id
        rt._record("chaos_device_failure", device=fault.device_id, node=node_id)
        rt.failures.fail_device(fault.device_id, cause="chaos device failure")
        if fault.recover_after is not None:
            self.sim.schedule(fault.recover_after, self._recover_device, fault.device_id)

    def _recover_device(self, device_id: str) -> None:
        self.runtime._record("chaos_device_recovery", device=device_id)
        self.runtime.failures.restore_device(device_id)

    def _fail_blade(self, fault: BladeFailure) -> None:
        self.runtime._record("chaos_blade_failure", node=fault.node_id)
        self.runtime.failures.fail_blade(fault.node_id, cause="chaos blade failure")
        if fault.recover_after is not None:
            self.sim.schedule(fault.recover_after, self._recover_blade, fault.node_id)

    def _recover_blade(self, node_id: str) -> None:
        self.runtime._record("chaos_blade_recovery", node=node_id)
        self.runtime.failures.restore_blade(node_id)

    def _fail_dpu(self, fault: DpuFailure) -> None:
        self.runtime._record("chaos_dpu_failure", node=fault.node_id)
        self.runtime.failures.fail_dpu(fault.node_id, cause="chaos dpu failure")
        if fault.recover_after is not None:
            self.sim.schedule(fault.recover_after, self._recover_dpu, fault.node_id)

    def _recover_dpu(self, node_id: str) -> None:
        self.runtime._record("chaos_dpu_recovery", node=node_id)
        self.runtime.failures.restore_dpu(node_id)

    # -- the fabric and the clock ----------------------------------------------

    def _partition(self, fault: NetworkPartition) -> None:
        rt = self.runtime
        rt._record("chaos_partition", groups=fault.groups)
        rt.net.partition(*[set(g) for g in fault.groups])
        if fault.heal_after is not None:
            self.sim.schedule(fault.heal_after, self._heal)

    def _heal(self) -> None:
        self.runtime._record("chaos_partition_heal")
        self.runtime.net.heal_partition()

    def _degrade(self, fault: LinkDegradation) -> None:
        rt = self.runtime
        rt._record("chaos_link_degraded", a=fault.a, b=fault.b, factor=fault.factor)
        rt.net.degrade_link(fault.a, fault.b, fault.factor)
        if fault.duration is not None:
            self.sim.schedule(fault.duration, self._restore_link, fault.a, fault.b)

    def _restore_link(self, a: str, b: str) -> None:
        self.runtime._record("chaos_link_restored", a=a, b=b)
        self.runtime.net.restore_link(a, b)

    def _lose(self, fault: MessageLoss) -> None:
        rt = self.runtime
        rt._record("chaos_message_loss", rate=fault.rate, seed=fault.seed)
        rt.net.set_message_loss(fault.rate, seed=fault.seed)
        if fault.duration is not None:
            self.sim.schedule(fault.duration, self._stop_loss)

    def _stop_loss(self) -> None:
        self.runtime._record("chaos_message_loss_end")
        self.runtime.net.set_message_loss(0.0)

    def _slow(self, fault: Straggler) -> None:
        rt = self.runtime
        device = rt.cluster.device(fault.device_id)
        rt._record("chaos_straggler", device=fault.device_id, factor=fault.factor)
        device.slowdown = fault.factor
        if fault.duration is not None:
            self.sim.schedule(fault.duration, self._unslow, fault.device_id)

    def _unslow(self, device_id: str) -> None:
        self.runtime._record("chaos_straggler_end", device=device_id)
        self.runtime.cluster.device(device_id).slowdown = 1.0

    # -- overload (open-loop arrival spikes) ----------------------------------

    def _burst(self, fault: LoadBurst) -> None:
        """Open-loop load: the offered rate is fixed by the schedule, not by
        how fast the runtime absorbs it.  Submissions are spread evenly over
        the window (plus optional seeded jitter) by the shared arrival
        helper, so two runs of the same seed offer a bit-identical arrival
        pattern (``uniform_offsets`` pins the legacy float sequence)."""
        rt = self.runtime
        rt._record(
            "chaos_load_burst", n_tasks=fault.n_tasks, duration=fault.duration
        )
        offsets = uniform_offsets(
            fault.n_tasks, fault.duration, fault.seed, fault.jitter
        )
        for i, delay in enumerate(offsets):
            self.sim.schedule(delay, self._submit_load, i)

    def _submit_load(self, i: int) -> None:
        try:
            self.task_source(i)
        except AdmissionRejectedError:
            self.load_rejected += 1
        else:
            self.load_submitted += 1

    _INJECTORS = {
        NodeCrash: _crash,
        NetworkPartition: _partition,
        LinkDegradation: _degrade,
        MessageLoss: _lose,
        Straggler: _slow,
        DeviceFailure: _fail_device,
        BladeFailure: _fail_blade,
        DpuFailure: _fail_dpu,
        HeadFailure: _fail_head,
        LoadBurst: _burst,
    }
