"""Task and actor specifications for the distributed task API.

A task carries its *real* Python payload (so results are genuine) plus a
*cost model* (CPU-seconds of nominal work and output size) so the simulator
can charge virtual time on whatever device the scheduler picks.  The
``supported_kinds`` set is how hardware-agnostic IR vertices advertise that
they can run on several backends, while handcrafted ops pin one kind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..cluster.hardware import DeviceKind
from .object_ref import ObjectRef, collect_refs

__all__ = [
    "TaskSpec", "TaskState", "TERMINAL_STATES", "IN_FLIGHT_STATES", "TaskResult", "ActorSpec",
    "ANY_COMPUTE_KIND",
]

ANY_COMPUTE_KIND: FrozenSet[DeviceKind] = frozenset(
    {DeviceKind.CPU, DeviceKind.GPU, DeviceKind.FPGA}
)


class TaskState(enum.Enum):
    PENDING = "pending"  # submitted, deps not ready / not scheduled
    SCHEDULED = "scheduled"  # leased to a raylet
    RESOLVING = "resolving"  # raylet fetching arguments
    RUNNING = "running"  # occupying a device slot
    FINISHED = "finished"
    FAILED = "failed"
    CANCELLED = "cancelled"  # deadline passed, shed under overload, or upstream cancelled


# the task has concluded, one way or another: nothing more will run for it
TERMINAL_STATES = (TaskState.FINISHED, TaskState.FAILED, TaskState.CANCELLED)
# an attempt is live on a device (leased, fetching arguments, or executing)
IN_FLIGHT_STATES = (TaskState.SCHEDULED, TaskState.RESOLVING, TaskState.RUNNING)


@dataclass
class TaskSpec:
    """One invocation of a remote function."""

    task_id: str
    func: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    # cost model ------------------------------------------------------------
    compute_cost: float = 1e-4  # CPU-seconds of nominal work
    output_nbytes: Optional[int] = None  # None: estimate from the real result
    # placement --------------------------------------------------------------
    supported_kinds: FrozenSet[DeviceKind] = frozenset({DeviceKind.CPU})
    pinned_device: Optional[str] = None  # explicit device id, overrides policy
    gang_group: Optional[str] = None  # SPMD gang id (gang scheduling)
    # overload control --------------------------------------------------------
    deadline: Optional[float] = None  # absolute sim time; propagates to consumers
    priority: int = 0  # higher survives shed-lowest-priority admission
    # multi-tenant serving -----------------------------------------------------
    tenant: Optional[str] = None  # submitting tenant id (serving attribution)
    # bookkeeping --------------------------------------------------------------
    name: str = ""
    actor_id: Optional[str] = None  # set for actor method calls

    def __post_init__(self) -> None:
        if self.compute_cost < 0:
            raise ValueError(f"negative compute cost on {self.task_id}")
        if not self.supported_kinds:
            raise ValueError(f"task {self.task_id} supports no device kinds")
        if not self.name:
            self.name = getattr(self.func, "__name__", "task")

    @cached_property
    def dependencies(self) -> List[ObjectRef]:
        # args/kwargs are fixed at submission, so the recursive ref walk
        # only needs to happen once; this sits on the dispatch hot path
        return collect_refs((self.args, self.kwargs))

    def __repr__(self) -> str:
        return f"TaskSpec({self.task_id}, {self.name})"


@dataclass
class TaskResult:
    task_id: str
    object_id: str
    nbytes: int
    node_id: str
    device_id: str
    finished_at: float
    state: TaskState = TaskState.FINISHED
    error: Optional[str] = None


@dataclass
class ActorSpec:
    """A stateful worker: methods run serially against retained state."""

    actor_id: str
    ctor: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    supported_kinds: FrozenSet[DeviceKind] = frozenset({DeviceKind.CPU})
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = getattr(self.ctor, "__name__", "actor")
