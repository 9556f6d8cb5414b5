"""Device models for the disaggregated data center.

Each device is characterized by the handful of parameters the paper's
arguments turn on: how fast it computes (relative throughput), how much
memory it has, how long dispatching a task onto it takes, and how many
tasks it can run at once.  Absolute values are calibrated to public
datasheets only loosely — the experiments compare *shapes*, not silicon.

Units throughout the cluster package: seconds and bytes.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace

from .simtime import Hold, Resource, Simulator

__all__ = [
    "DeviceKind",
    "DeviceSpec",
    "Device",
    "CPU_SERVER_SPEC",
    "GPU_SPEC",
    "FPGA_SPEC",
    "DPU_SPEC",
    "MEMORY_BLADE_SPEC",
    "KB",
    "MB",
    "GB",
    "USEC",
    "MSEC",
]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

USEC = 1e-6
MSEC = 1e-3


class DeviceKind(enum.Enum):
    """The device taxonomy of Figure 2/3."""

    CPU = "cpu"
    GPU = "gpu"
    FPGA = "fpga"
    DPU = "dpu"
    MEMORY_BLADE = "memory_blade"

    @property
    def is_accelerator(self) -> bool:
        return self in (DeviceKind.GPU, DeviceKind.FPGA)


@dataclass(frozen=True)
class DeviceSpec:
    """Static parameters of a device model.

    ``compute_scale`` is relative throughput for compute work: a task whose
    nominal cost is ``c`` seconds of CPU work runs in ``c / compute_scale``
    on this device (for op kinds the device supports).

    ``dispatch_overhead`` is the control-plane cost of launching one task on
    the device — the quantity Gen-2 attacks for short-lived ops.
    """

    kind: DeviceKind
    name: str
    compute_scale: float
    memory_bytes: int
    memory_bandwidth: float  # bytes/sec, local memory
    dispatch_overhead: float  # seconds per task launch
    slots: int = 1  # concurrent task slots

    def scaled_duration(self, cpu_seconds: float) -> float:
        """Virtual compute time for work costing ``cpu_seconds`` on a CPU."""
        if cpu_seconds < 0:
            raise ValueError(f"negative compute cost: {cpu_seconds}")
        return cpu_seconds / self.compute_scale

    def with_overrides(self, **kwargs) -> "DeviceSpec":
        return replace(self, **kwargs)


# Default catalog.  compute_scale: CPU core = 1.0.
CPU_SERVER_SPEC = DeviceSpec(
    kind=DeviceKind.CPU,
    name="cpu-server",
    compute_scale=1.0,
    memory_bytes=64 * GB,
    memory_bandwidth=25 * GB,
    dispatch_overhead=50 * USEC,
    slots=16,
)

GPU_SPEC = DeviceSpec(
    kind=DeviceKind.GPU,
    name="gpu",
    compute_scale=40.0,
    memory_bytes=40 * GB,
    memory_bandwidth=1500 * GB,
    dispatch_overhead=20 * USEC,
    slots=4,
)

FPGA_SPEC = DeviceSpec(
    kind=DeviceKind.FPGA,
    name="fpga",
    compute_scale=12.0,
    memory_bytes=16 * GB,
    memory_bandwidth=460 * GB,
    dispatch_overhead=15 * USEC,
    slots=2,
)

DPU_SPEC = DeviceSpec(
    kind=DeviceKind.DPU,
    name="dpu",
    compute_scale=0.5,
    memory_bytes=16 * GB,
    memory_bandwidth=20 * GB,
    dispatch_overhead=30 * USEC,
    slots=8,
)

MEMORY_BLADE_SPEC = DeviceSpec(
    kind=DeviceKind.MEMORY_BLADE,
    name="memory-blade",
    compute_scale=0.1,  # a weak controller, not a compute device
    memory_bytes=512 * GB,
    memory_bandwidth=50 * GB,
    dispatch_overhead=100 * USEC,
    slots=4,
)

_device_ids = itertools.count()


@dataclass
class Device:
    """A live device in a simulation: spec + execution slots + memory ledger."""

    sim: Simulator
    spec: DeviceSpec
    node_id: str
    device_id: str = ""
    slots: Resource = field(init=False)
    busy_seconds: float = field(init=False, default=0.0)  # slot-seconds burned
    slowdown: float = field(init=False, default=1.0)  # straggler injection (chaos)
    alive: bool = field(init=False, default=True)  # device-granular failure domain
    failures: int = field(init=False, default=0)  # times this device has died
    _mem_used: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not self.device_id:
            self.device_id = f"{self.spec.name}-{next(_device_ids)}"
        self.slots = Resource(self.sim, capacity=self.spec.slots, name=self.device_id)

    @property
    def kind(self) -> DeviceKind:
        return self.spec.kind

    @property
    def memory_used(self) -> int:
        return self._mem_used

    def reserve_memory(self, nbytes: int) -> bool:
        """Reserve local memory; returns False when it would not fit."""
        if nbytes < 0:
            raise ValueError(f"negative reservation: {nbytes}")
        if self._mem_used + nbytes > self.spec.memory_bytes:
            return False
        self._mem_used += nbytes
        return True

    def free_memory(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative free: {nbytes}")
        if nbytes > self._mem_used:
            raise ValueError(
                f"freeing {nbytes} bytes but only {self._mem_used} reserved on {self.device_id}"
            )
        self._mem_used -= nbytes

    def fail(self) -> None:
        """The device dies: its memory contents are gone, its slots useless.

        Purely physical — the control plane is not told.  The node around
        the device keeps running (the whole point of device-granular
        failure domains): a dead GPU does not take its host down.
        """
        if self.alive:
            self.failures += 1
        self.alive = False

    def restore(self) -> None:
        """The device comes back — empty (its memory did not survive)."""
        self.alive = True

    def execute(self, cpu_seconds: float, label: str = "task") -> Hold:
        """An awaitable that occupies one slot for the scaled duration.

        Includes the device's dispatch overhead; this is the leaf primitive
        the runtime layers use to burn virtual compute time.  ``slowdown``
        (straggler injection) is sampled at launch time: tasks started
        while a device is degraded run slow for their whole duration.
        """
        duration = self.slowdown * (
            self.spec.dispatch_overhead + self.spec.scaled_duration(cpu_seconds)
        )
        return Hold(self.slots, duration, self._burned, label)

    def _burned(self, duration: float) -> None:
        self.busy_seconds += duration

    def utilization(self, horizon: float) -> float:
        """Busy slot-seconds over capacity across ``horizon`` seconds."""
        if horizon <= 0:
            return 0.0
        return self.busy_seconds / (horizon * self.spec.slots)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Device({self.device_id}, node={self.node_id}, kind={self.kind.value})"
