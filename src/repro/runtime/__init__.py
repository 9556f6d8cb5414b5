"""The stateful serverless runtime (the paper's §2.3, built from scratch).

A mini-Ray over the simulated disaggregated cluster: distributed task and
actor APIs, futures with a heterogeneity-aware ownership table, per-device
plasma stores with spill to disaggregated memory, pull/push future
resolution, data-centric and gang scheduling, lineage and reliable-cache
fault tolerance.
"""

from .config import (
    Generation,
    ResolutionMode,
    RuntimeConfig,
    SchedulingPolicy,
)
from .events import EventLog, RuntimeEvent
from .ha import HAController, WalRecord
from .health import HeartbeatMonitor
from .ids import IdGenerator
from .lineage import LineageGraph, UnrecoverableObjectError
from .local import LocalActorHandle, LocalRuntime
from .object_ref import ObjectRef, collect_refs, replace_refs
from .overload import AdmissionRejectedError, RetryBudget
from .object_store import (
    LocalObjectStore,
    ObjectStoreFullError,
    SpillFailedError,
    StoredObject,
    StoreUnavailableError,
)
from .ownership import OwnershipEntry, OwnershipTable, ValueState
from .raylet import Raylet
from .runtime import (
    ActorHandle,
    ControlPlaneLostError,
    GetTimeoutError,
    ServerlessRuntime,
    TaskCancelledError,
    TaskError,
    make_reliable_cache,
)
from .scheduler import PlacementError, Scheduler
from .supervision import backoff_jitter_fraction, retry_backoff_delay
from .task import ANY_COMPUTE_KIND, TaskSpec, TaskState
from .trace import to_chrome_trace, write_chrome_trace

__all__ = [
    "Generation",
    "ResolutionMode",
    "SchedulingPolicy",
    "RuntimeConfig",
    "AdmissionRejectedError",
    "ControlPlaneLostError",
    "RetryBudget",
    "backoff_jitter_fraction",
    "retry_backoff_delay",
    "TaskCancelledError",
    "IdGenerator",
    "LineageGraph",
    "UnrecoverableObjectError",
    "ObjectRef",
    "collect_refs",
    "replace_refs",
    "LocalObjectStore",
    "StoredObject",
    "ObjectStoreFullError",
    "SpillFailedError",
    "StoreUnavailableError",
    "OwnershipTable",
    "OwnershipEntry",
    "ValueState",
    "Raylet",
    "ServerlessRuntime",
    "ActorHandle",
    "TaskError",
    "GetTimeoutError",
    "HeartbeatMonitor",
    "HAController",
    "WalRecord",
    "EventLog",
    "RuntimeEvent",
    "make_reliable_cache",
    "Scheduler",
    "PlacementError",
    "TaskSpec",
    "TaskState",
    "ANY_COMPUTE_KIND",
    "LocalRuntime",
    "LocalActorHandle",
    "to_chrome_trace",
    "write_chrome_trace",
]
