"""Task specifications for the distributed task API.

A task carries its *real* Python payload (so results are genuine) plus a
*cost model* (CPU-seconds of nominal work and output size) so the simulator
can charge virtual time on whatever device the scheduler picks.  The
``supported_kinds`` set is how hardware-agnostic IR vertices advertise that
they can run on several backends, while handcrafted ops pin one kind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..cluster.hardware import DeviceKind
from .object_ref import ObjectRef, collect_refs

__all__ = [
    "TaskSpec", "FinishedTask", "TaskState", "TERMINAL_STATES",
    "IN_FLIGHT_STATES", "ANY_COMPUTE_KIND", "NO_KWARGS", "check_num_returns", "split_returns",
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
    CANCELLED = "cancelled"  # cancel(), shed under overload, or upstream cancelled


# the task has concluded, one way or another: nothing more will run for it
TERMINAL_STATES = (TaskState.FINISHED, TaskState.FAILED, TaskState.CANCELLED)
# an attempt is live on a device (leased, fetching arguments, or executing)
IN_FLIGHT_STATES = (TaskState.SCHEDULED, TaskState.RESOLVING, TaskState.RUNNING)


# the keyword arguments of every task submitted without any: one shared dict,
# never written (an attempt copies a spec's kwargs before it substitutes refs)
NO_KWARGS: Dict[str, Any] = {}


@dataclass(slots=True)
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
    # multi-tenant serving -----------------------------------------------------
    tenant: Optional[str] = None  # submitting tenant id (serving attribution)
    # bookkeeping --------------------------------------------------------------
    name: str = ""
    actor_id: Optional[str] = None  # set for actor method calls
    num_returns: int = 1  # outputs one attempt commits (see ``split_returns``)
    # the refs among args/kwargs, found once: both are fixed at submission,
    # and every spec is read at submit (lineage records its readers)
    dependencies: List[ObjectRef] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.compute_cost < 0:
            raise ValueError(f"negative compute cost on {self.task_id}")
        if not self.supported_kinds:
            raise ValueError(f"task {self.task_id} supports no device kinds")
        check_num_returns(self.num_returns)
        if not self.name:
            self.name = getattr(self.func, "__name__", "task")
        self.dependencies = collect_refs((self.args, self.kwargs))

    def __repr__(self) -> str:
        return f"TaskSpec({self.task_id}, {self.name})"


class FinishedTask:
    """What a finished task leaves in the runtime's object table, by output:
    the reads the driver (``task_state``, ``timeline_of``, ``span_of``) and
    recovery still make of it.  Its ctx, done signal and attempts are gone; a
    failed or cancelled task keeps its ctx, which carries the error."""

    __slots__ = ("spec", "span")
    state = TaskState.FINISHED

    def __init__(self, spec: TaskSpec, span: Any):
        self.spec = spec
        self.span = span


def check_num_returns(num_returns: int) -> None:
    if num_returns < 1:
        raise ValueError(f"num_returns must be >= 1, got {num_returns}")


def split_returns(value: Any, num_returns: int, name: str) -> Tuple[Any, ...]:
    """A payload's outputs: the value itself for one return, else the
    ``num_returns`` items of the sequence it returned (a wrong count is the
    payload's error, like any exception it raises)."""
    if num_returns == 1:
        return (value,)
    values = tuple(value)
    if len(values) != num_returns:
        raise ValueError(f"{name} returned {len(values)} values for num_returns={num_returns}")
    return values

