"""Runtime configuration knobs (the axes the benchmarks sweep)."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "Generation",
    "ResolutionMode",
    "SchedulingPolicy",
    "AdmissionPolicy",
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


class AdmissionPolicy(enum.Enum):
    """What a full scheduler-level admission queue does with a new task."""

    REJECT = "reject"  # raise AdmissionRejectedError to the caller
    SHED_LOWEST_PRIORITY = "shed_lowest_priority"  # evict a lower-priority pending task
    QUEUE_WITH_DEADLINE = "queue_with_deadline"  # park in a bounded overflow queue


@dataclass
class RuntimeConfig:
    generation: Generation = Generation.GEN2
    resolution: ResolutionMode = ResolutionMode.PUSH
    scheduling: SchedulingPolicy = SchedulingPolicy.LOCALITY
    # fault tolerance: lineage replay is always available; a reliable cache
    # (replication/EC) can be layered on via ``reliable_cache``.
    max_lineage_replays: int = 32
    # -- retry policy (transient failures: interrupts, lost leases, fetch
    # failures).  Backoff is exponential (doubling, see
    # ``supervision.RETRY_BACKOFF_FACTOR``) with deterministic per-attempt
    # jitter so reruns of a seeded chaos schedule are bit-identical.
    max_retries: int = 4
    retry_backoff_base: float = 1e-3  # seconds before the first retry
    # jitter fraction of the backoff.  The per-attempt jitter is *hashed*,
    # not drawn: ``frac = int(md5(f"{task_id}:{retries}")[:8], 16) / 0xFFFFFFFF``
    # and ``delay = base * 2**(retries-1) * (1 + retry_jitter * frac)``
    # (see ``supervision.backoff_jitter_fraction``).  md5 is stable across
    # processes, platforms and Python versions, so seeded chaos replays are
    # bit-identical; tests/test_overload.py pins exact values of the
    # sequence to keep refactors honest.
    retry_jitter: float = 0.25
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
    # -- overload control (repro.runtime.overload).  Four independent
    # mechanisms, each behind its own switch; a switch that is on *installs*
    # its subscribers on the runtime's lifecycle seam, and the all-off
    # default installs nothing, so pre-overload event traces replay
    # bit-for-bit (no extra events, no extra virtual time).
    # bounded admission: refuse work beyond ``admission_queue_depth`` open
    # tasks instead of queueing without bound.  Policy decides how: reject
    # (AdmissionRejectedError), shed the lowest-priority pending task, or
    # park in a bounded overflow queue drained as tasks close.
    admission_control: bool = False
    admission_queue_depth: int = 64
    admission_policy: AdmissionPolicy = AdmissionPolicy.REJECT
    admission_overflow_depth: int = 64  # QUEUE_WITH_DEADLINE park capacity
    # per-raylet admission window: max task attempts dispatched-but-not-
    # concluded per raylet (None: no per-raylet bound)
    raylet_admission_depth: Optional[int] = None
    # retry budgets: a per-node token bucket (start/cap ``retry_budget_cap``)
    # drained 1 token per retry, refilled ``retry_budget_ratio`` per
    # first-attempt success — retries cannot exceed ~ratio x useful work.
    retry_budget: bool = False
    retry_budget_ratio: float = 0.2
    retry_budget_cap: float = 16.0
    # deadline propagation: submit(deadline=) flows min(own, producers')
    # through the graph; attempts past their deadline are skipped and the
    # task cancelled (cancellation cascades to downstream consumers).
    deadline_propagation: bool = False
    # circuit breakers: per-device CLOSED/OPEN/HALF_OPEN state machines over
    # device-attributed transient failures + health signals; open devices
    # shed load, half-open devices take one probe at a time.
    device_circuit_breakers: bool = False
    breaker_reset_after: float = 5e-3  # virtual seconds OPEN before probing
    breaker_probe_successes: int = 2
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
    # SLO deadlines: stamp submit(deadline=arrival+slo, priority=) from the
    # tenant profile onto every request stage.
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
    # breaker flips, death/revival declarations, lease grants) replicated
    # to that many standby server nodes over the simulated network, stamps
    # a fencing epoch on every leader lease, and arms seeded deterministic
    # leader election + log replay when the head dies (the chaos
    # ``fail_gcs`` fault).  The zero default installs no controller — the
    # runtime's seam lists stay empty — so the legacy event traces (and
    # their virtual timings) are reproduced bit-for-bit.
    ha_replicas: int = 0
    # seed mixed with the new epoch for the deterministic winner draw
    ha_election_seed: int = 0
    # -- simulator core.  Opt-in analytic idle fast-forward: when every
    # event at the queue head is a *poller* tick (heartbeats, WAL syncs,
    # breaker probes created via ``Simulator.poll_timeout``) and no
    # component has armed exact polling (``Simulator.arm_poller`` — chaos
    # schedules and failure detection do), the kernel jumps virtual time
    # to the next real event instead of stepping through empty poll
    # rounds.  Off by default: the all-off setting replays legacy event
    # traces bit-for-bit, and fast-forward intentionally elides idle poll
    # events (event *counts* differ even though outcomes do not).
    sim_fast_forward: bool = False

    def describe(self) -> str:
        return (
            f"gen{self.generation.value}/{self.resolution.value}/"
            f"{self.scheduling.value}"
        )
