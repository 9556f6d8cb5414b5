"""Runtime configuration knobs (the axes the benchmarks sweep)."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "Generation",
    "ResolutionMode",
    "SchedulingPolicy",
    "RuntimeConfig",
]


class Generation(enum.Enum):
    """Figure 3: where raylets run on physically-disaggregated cards."""

    GEN1 = 1  # DPU-centric: card's DPU raylet manages companion devices
    GEN2 = 2  # device-centric: device-specific raylet per heterogeneous device


class ResolutionMode(enum.Enum):
    """§2.3.2: how futures are resolved."""

    PULL = "pull"  # consumer pulls data from the producer on demand (Ray default)
    PUSH = "push"  # producer pushes data to consumers proactively (Gen-2 addition)


class SchedulingPolicy(enum.Enum):
    ROUND_ROBIN = "round_robin"  # CPU-centric baseline
    LOCALITY = "locality"  # data-centric: minimize estimated input movement
    LEAST_LOADED = "least_loaded"


@dataclass
class RuntimeConfig:
    generation: Generation = Generation.GEN2
    resolution: ResolutionMode = ResolutionMode.PUSH
    scheduling: SchedulingPolicy = SchedulingPolicy.LOCALITY
    # fault tolerance: lineage replay is always available (at most
    # ``runtime.MAX_LINEAGE_REPLAYS`` rounds per ``get``); a reliable cache
    # (replication/EC) can be layered on via ``reliable_cache``.
    # -- retry policy (transient failures: interrupts, lost leases, fetch
    # failures).  Backoff is exponential (doubling, see
    # ``supervision.RETRY_BACKOFF_FACTOR``) with deterministic per-attempt
    # jitter (``supervision.RETRY_JITTER`` of the backoff, hashed from the
    # task id and attempt, see ``supervision.retry_backoff_delay``) so reruns
    # of a seeded chaos schedule are bit-identical.
    max_retries: int = 4
    retry_backoff_base: float = 1e-3  # seconds before the first retry
    # execution watchdog: interrupt + retry a task attempt that has not
    # finished this long after dispatch (None disables)
    task_timeout: Optional[float] = None
    # speculative re-execution: launch a second copy of a task on another
    # device once an attempt exceeds ``speculation_factor`` x its expected
    # duration (None disables; actor tasks are never speculated)
    speculation_factor: Optional[float] = None
    # -- failure detection: raylets emit heartbeats over the simulated
    # network every ``heartbeat_interval`` virtual seconds (None disables,
    # leaving only the omniscient ``fail_node`` driver path); a node is
    # suspected dead after ``heartbeat_miss_threshold`` silent intervals.
    heartbeat_interval: Optional[float] = None
    heartbeat_miss_threshold: int = 3
    # -- actor reconstruction: checkpoint actor state into the reliable
    # cache every N completed method calls (0 disables).  A checkpointed
    # actor restarts on a surviving node when its home dies; methods are
    # at-least-once across a restart (calls after the last checkpoint
    # may re-execute), so recoverable actors should be idempotent.
    actor_checkpoint_every: int = 1
    # -- strict plans: statically sanitize every physical plan (cycles,
    # orphan tasks, placement hazards, memory over-subscription) before any
    # task is submitted, and refuse to launch plans with errors.
    strict_plans: bool = False
    # -- overload control (repro.runtime.overload).  Two independent
    # mechanisms, each behind its own switch; a switch that is on *installs*
    # its subscribers on the runtime's lifecycle seam, and the all-off
    # default installs nothing, so pre-overload event traces replay
    # bit-for-bit (no extra events, no extra virtual time).
    # bounded admission: refuse work beyond ``admission_queue_depth`` open
    # tasks (AdmissionRejectedError) instead of queueing without bound.
    admission_control: bool = False
    admission_queue_depth: int = 64
    # retry budgets: a per-node token bucket (start/cap ``retry_budget_cap``)
    # drained 1 token per retry, refilled ``retry_budget_ratio`` per
    # first-attempt success — retries cannot exceed ~ratio x useful work.
    retry_budget: bool = False
    retry_budget_ratio: float = 0.2
    retry_budget_cap: float = 16.0
    # -- serving frontend (repro.serving).  These gate how a
    # ServingFrontend attached to this runtime behaves; none of them touch
    # the single-driver path, so the all-off defaults (and any setting,
    # absent a frontend) leave legacy traces bit-for-bit identical.
    # weighted fair queueing: drain the frontend's waiting room by
    # per-tenant virtual finish time (throughput proportional to tenant
    # weight) instead of strict FIFO.
    serving_fair_queueing: bool = False
    # per-tenant quotas: shed a tenant's requests beyond its profile's
    # max_open open requests.
    serving_tenant_isolation: bool = False
    # unread, and stamps nothing: kept only because the benchmark ledger's
    # serving workload still passes it.
    serving_slo_deadlines: bool = False
    # pacing: at most this many requests in flight in the runtime (None:
    # unbounded — every request dispatches the instant it arrives); excess
    # waits in a bounded room of serving_queue_depth, shed beyond.
    serving_max_inflight: Optional[int] = None
    serving_queue_depth: int = 256
    # -- distributed sanitizer (repro.analysis.dist, "Skadi-TSan").  Which
    # probe modes to arm: "trace" collects the protocol-event stream,
    # "invariants" runs the protocol monitors online, "hb" collects the
    # stream and enables happens-before race detection at report time.
    # The empty default constructs no probe at all — every hook site is a
    # ``probe is not None`` check, so the legacy event traces (and their
    # virtual timings) are reproduced bit-for-bit.
    sanitizers: Tuple[str, ...] = ()
    # -- control-plane HA (repro.runtime.ha).  ``ha_replicas > 0`` keeps a
    # write-ahead log of control-plane mutations (ownership transitions,
    # death/revival declarations, lease grants) replicated
    # to that many standby server nodes over the simulated network, stamps
    # a fencing epoch on every leader lease, and arms seeded deterministic
    # leader election + log replay when the head dies (the chaos
    # ``fail_gcs`` fault).  The zero default installs no controller — the
    # runtime's seam lists stay empty — so the legacy event traces (and
    # their virtual timings) are reproduced bit-for-bit.
    # The winner draw is seeded with ``ha.ELECTION_SEED``.
    ha_replicas: int = 0

    def describe(self) -> str:
        return (
            f"gen{self.generation.value}/{self.resolution.value}/"
            f"{self.scheduling.value}"
        )
