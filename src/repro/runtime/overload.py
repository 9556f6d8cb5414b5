"""Overload control: admission, retry budgets, and device circuit breakers.

The runtime survives crashes (lineage replay), device-granular faults, and
slow fabrics — but an *overloaded* system fails differently: every queue
grows without bound, retries of timed-out work amplify the very congestion
that caused the timeouts, and the system enters a metastable state where
goodput stays collapsed long after the triggering burst ends.  This module
holds the mechanism objects and :class:`OverloadControl`, the component
that wires them to the runtime's lifecycle seam.  :func:`install` builds it
only when a :class:`~repro.runtime.config.RuntimeConfig` overload switch is
on; with all of them off nothing is installed, the seam lists stay empty
and legacy traces replay bit-for-bit.

Three mechanism families live here:

* **admission** — :class:`AdmissionRejectedError`, raised to callers when a
  bounded admission queue refuses a task (retryable: the caller may resubmit
  after backing off);
* **retry budgets** — :class:`RetryBudget`, a per-node token bucket refilled
  by first-attempt successes and drained by retries, capping retry volume at
  a fraction of useful volume so storms cannot self-amplify;
* **circuit breakers** — :class:`CircuitBreaker` / :class:`BreakerBoard`,
  per-device state machines (CLOSED -> OPEN -> HALF_OPEN) driven by the
  existing health signals, shedding load from flaky devices instead of
  hammering them.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from .config import AdmissionPolicy
from .scheduler import PlacementError
from .task import TaskState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import ServerlessRuntime
    from .task import TaskSpec

__all__ = [
    "AdmissionRejectedError",
    "RetryBudget",
    "BreakerState",
    "CircuitBreaker",
    "BreakerBoard",
    "OverloadControl",
    "install",
]


class AdmissionRejectedError(RuntimeError):
    """A bounded admission queue refused the task.

    Retryable: the submission was rejected *before* any ownership state was
    created, so the caller may back off and resubmit the same payload.
    """

    def __init__(self, message: str, *, reason: str = "admission_reject"):
        super().__init__(message)
        self.reason = reason


# -- retry budgets ------------------------------------------------------------


class RetryBudget:
    """A per-node token bucket capping retry volume.

    Each node starts with ``cap`` tokens.  A first-attempt success refills
    ``ratio`` tokens (clamped at ``cap``); each retry costs one token.  Over
    any window, retries are therefore bounded by ``ratio`` x the
    first-attempt success volume plus the initial burst allowance — the
    standard defense against retry storms (retries amplify load exactly when
    successes, and thus refills, dry up).
    """

    def __init__(self, ratio: float, cap: float):
        if ratio < 0:
            raise ValueError(f"retry budget ratio must be >= 0, got {ratio}")
        if cap <= 0:
            raise ValueError(f"retry budget cap must be > 0, got {cap}")
        self.ratio = ratio
        self.cap = cap
        self._tokens: Dict[str, float] = {}
        self.consumed = 0
        self.exhausted = 0

    def tokens(self, node_id: str) -> float:
        return self._tokens.get(node_id, self.cap)

    def try_consume(self, node_id: str) -> bool:
        """Spend one token for a retry on ``node_id``; False when exhausted."""
        tokens = self._tokens.get(node_id, self.cap)
        if tokens < 1.0:
            self.exhausted += 1
            return False
        self._tokens[node_id] = tokens - 1.0
        self.consumed += 1
        return True

    def refill(self, node_id: str) -> None:
        """Credit a first-attempt success on ``node_id``."""
        tokens = self._tokens.get(node_id, self.cap)
        self._tokens[node_id] = min(self.cap, tokens + self.ratio)


# -- circuit breakers ---------------------------------------------------------


# consecutive device-attributed failures that trip a CLOSED breaker
BREAKER_FAILURE_THRESHOLD = 5


class BreakerState(enum.Enum):
    CLOSED = "closed"  # healthy: all load admitted
    OPEN = "open"  # tripped: no load until the reset timer elapses
    HALF_OPEN = "half_open"  # probing: one attempt at a time


class CircuitBreaker:
    """A per-device breaker over device-attributed transient failures.

    CLOSED -> OPEN after ``threshold`` consecutive failures; OPEN -> HALF_OPEN
    once ``reset_after`` virtual seconds elapse; HALF_OPEN admits a single
    probe attempt at a time and needs ``probe_successes`` consecutive
    successes to close again (any probe failure re-opens).
    """

    def __init__(
        self,
        device_id: str,
        threshold: int,
        reset_after: float,
        probe_successes: int,
        on_transition: Optional[Callable[[str, BreakerState, BreakerState], None]] = None,
    ):
        self.device_id = device_id
        self.threshold = threshold
        self.reset_after = reset_after
        self.probe_successes = probe_successes
        self.on_transition = on_transition
        self.state = BreakerState.CLOSED
        self._failures = 0
        self._probes_ok = 0
        self._opened_at = 0.0
        self.trips = 0

    def allow(self, now: float, inflight: int) -> bool:
        """May an attempt be placed on this device right now?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self._opened_at >= self.reset_after:
                self._to_half_open()
            else:
                return False
        # HALF_OPEN: single probe in flight at a time
        return inflight == 0

    def record_success(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probes_ok += 1
            if self._probes_ok >= self.probe_successes:
                self._transition(BreakerState.CLOSED)
                self._failures = 0
        elif self.state is BreakerState.CLOSED:
            self._failures = 0

    def record_failure(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._open(now)
        elif self.state is BreakerState.CLOSED:
            self._failures += 1
            if self._failures >= self.threshold:
                self._open(now)

    def force_open(self, now: float) -> None:
        """Trip immediately (the device was declared dead)."""
        if self.state is not BreakerState.OPEN:
            self._open(now)
        else:
            self._opened_at = now

    def on_recovered(self) -> None:
        """The device came back (restart): probe before trusting it."""
        if self.state is BreakerState.OPEN:
            self._to_half_open()

    def _open(self, now: float) -> None:
        self._opened_at = now
        self._probes_ok = 0
        self.trips += 1
        self._transition(BreakerState.OPEN)

    def _to_half_open(self) -> None:
        self._probes_ok = 0
        self._transition(BreakerState.HALF_OPEN)

    def _transition(self, state: BreakerState) -> None:
        old, self.state = self.state, state
        if old is not state and self.on_transition is not None:
            self.on_transition(self.device_id, old, state)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CircuitBreaker({self.device_id}, {self.state.value})"


class BreakerBoard:
    """The fleet of per-device breakers, lazily created.

    ``on_transition(device_id, old_state, new_state)`` fires on every state
    change so the runtime can mirror transitions into the event log and
    telemetry without this module importing either.
    """

    def __init__(
        self,
        reset_after: float,
        probe_successes: int,
        on_transition: Optional[Callable[[str, BreakerState, BreakerState], None]] = None,
    ):
        self.reset_after = reset_after
        self.probe_successes = probe_successes
        self.on_transition = on_transition
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, device_id: str) -> CircuitBreaker:
        br = self._breakers.get(device_id)
        if br is None:
            br = CircuitBreaker(
                device_id,
                BREAKER_FAILURE_THRESHOLD,
                self.reset_after,
                self.probe_successes,
                on_transition=self.on_transition,
            )
            self._breakers[device_id] = br
        return br

    def allow(self, device_id: str, now: float, inflight: int) -> bool:
        return self.breaker(device_id).allow(now, inflight)

    def record_success(self, device_id: str, now: float) -> None:
        # only devices with a breaker already materialized need the credit
        br = self._breakers.get(device_id)
        if br is not None:
            br.record_success(now)

    def record_failure(self, device_id: str, now: float) -> None:
        self.breaker(device_id).record_failure(now)


# -- the installed component --------------------------------------------------


def install(runtime: "ServerlessRuntime") -> Optional["OverloadControl"]:
    """The component, subscribed to ``runtime`` — or None with every switch off."""
    cfg = runtime.config
    switches = (
        cfg.admission_control, cfg.raylet_admission_depth is not None,
        cfg.retry_budget, cfg.device_circuit_breakers,
    )
    return OverloadControl(runtime) if any(switches) else None


class OverloadControl:
    """Admission, retry budget and breakers behind the runtime's lifecycle
    seam (DESIGN.md "Runtime core and components").  Each switch appends only
    its own subscribers, so a mechanism that is off is never called; the
    sections subscribe in the order the shared points replay — budget before
    breakers (``on_task_finished``), breakers before the raylet window
    (``on_attempt_concluded``)."""

    def __init__(self, runtime: "ServerlessRuntime"):
        self.rt = rt = runtime
        cfg = rt.config
        if cfg.retry_budget:
            self.budget = RetryBudget(cfg.retry_budget_ratio, cfg.retry_budget_cap)
            rt.on_task_finished.append(self._refill_budget)
            rt.retry_gates.append(self._spend_budget)
        if cfg.device_circuit_breakers:
            self.breakers = BreakerBoard(
                cfg.breaker_reset_after,
                cfg.breaker_probe_successes,
                on_transition=self._on_breaker_transition,
            )
            self.device_inflight: Dict[str, int] = {}  # attempts per device
            rt.scheduler.breaker_filter = self._breaker_allows
            rt.on_dispatch.append(self._count_inflight)
            rt.on_task_finished.append(self._breaker_success)
            rt.on_device_fault.append(self._breaker_failure)
            rt.on_attempt_concluded.append(self._uncount_inflight)
            rt.on_view_change.append(self._breaker_follows_view)
            rt.on_view_rebuilt.append(self._breakers_rebuilt)
        # the scheduler-level queue and the raylet window share one depth gauge
        self.admitted_open = 0  # tasks holding a scheduler admission slot
        self.overflow: List[Any] = []  # QUEUE_WITH_DEADLINE parking
        self.deferred: List[Any] = []  # raylet-window deferrals
        self._pumping = False
        if cfg.admission_control:
            rt.submit_gates.append(self._admission_gate)
            rt.on_task_open.append(self._task_open)
            rt.on_task_closed.append(self._task_closed)
        if cfg.raylet_admission_depth is not None:
            rt.dispatch_gates.append(self._window_gate)
            rt.on_attempt_concluded.append(self._release_window)

    # -- admission: the scheduler-level queue ----------------------------------

    def _admission_gate(self, spec: "TaskSpec") -> bool:
        """Scheduler-level bounded admission.  Returns True when the task
        should park in the overflow queue; raises
        :class:`AdmissionRejectedError` when it cannot be admitted at all."""
        rt, cfg = self.rt, self.rt.config
        if self.admitted_open < cfg.admission_queue_depth:
            return False
        policy = cfg.admission_policy
        if policy is AdmissionPolicy.SHED_LOWEST_PRIORITY:
            victim = self._lowest_priority_pending(below=spec.priority)
            if victim is not None:
                rt._count_shed("displaced_by_priority")
                rt._cancel_and_propagate(victim, reason="displaced_by_priority")
                return False
        elif (
            policy is AdmissionPolicy.QUEUE_WITH_DEADLINE
            # gangs cannot park member-by-member; they fall through to reject
            and spec.gang_group is None
            and len(self.overflow) < cfg.admission_overflow_depth
        ):
            return True
        # the tenant label rides along only when the submitter has one, so
        # tenant-less (single-driver) traces keep their exact legacy detail
        tenant_label = {} if spec.tenant is None else {"tenant": spec.tenant}
        rt._record(
            "admission_rejected",
            task=spec.task_id,
            name=spec.name,
            open_tasks=self.admitted_open,
            **tenant_label,
        )
        rt._count_shed("admission_reject")
        raise AdmissionRejectedError(
            f"admission queue full ({self.admitted_open}/{cfg.admission_queue_depth} "
            f"open tasks); task {spec.task_id} rejected",
            reason="admission_reject",
        )

    def _lowest_priority_pending(self, below: int) -> Optional[Any]:
        """The cheapest admitted victim: a PENDING, non-gang task with
        priority strictly below ``below`` (deterministic tie-break)."""
        victims = [
            ctx
            for ctx in self.rt._ctxs.values()
            if ctx.admitted
            and ctx.state is TaskState.PENDING
            and ctx.spec.gang_group is None
            and ctx.spec.priority < below
        ]
        return min(victims, key=lambda c: (c.spec.priority, c.spec.task_id), default=None)

    def _task_open(self, ctx: Any, parked: bool) -> None:
        if not parked:
            ctx.admitted = True
            self.admitted_open += 1
            return
        rt, spec = self.rt, ctx.spec
        self.overflow.append(ctx)
        rt._record(
            "admission_queued", task=spec.task_id, name=spec.name,
            depth=len(self.overflow),
        )
        self._meter_depth()

    def _task_closed(self, ctx: Any) -> None:
        """Release the task's scheduler slot and pump the overflow queue."""
        if ctx.admitted:
            ctx.admitted = False
            self.admitted_open = max(0, self.admitted_open - 1)
        if not self._pumping:
            self._pumping = True
            try:
                self._pump_overflow()
            finally:
                self._pumping = False
        self._meter_depth()

    def _pump_overflow(self) -> None:
        rt = self.rt
        while self.overflow and self.admitted_open < rt.config.admission_queue_depth:
            ctx = self.overflow.pop(0)
            if rt.probe is not None:
                rt.probe.adm_release(ctx.spec.task_id)
            if ctx.state is not TaskState.PENDING:
                continue
            if ctx.spec.deadline is not None and rt.sim.now >= ctx.spec.deadline:
                # parked past its deadline: shed instead of launching
                rt._count_shed("queue_deadline")
                rt._cancel_and_propagate(ctx, reason="queue_deadline")
                continue
            ctx.admitted = True
            self.admitted_open += 1
            rt._place_or_retry(rt._route, ctx)

    def _meter_depth(self) -> None:
        self.rt.telemetry.registry.gauge(
            "skadi_admission_queue_depth",
            "task attempts admitted and not yet concluded, per scope",
            scope="scheduler",
        ).set(float(len(self.overflow) + len(self.deferred)))

    # -- admission: the per-raylet window --------------------------------------

    def _window_gate(self, ctx: Any, preplaced: bool) -> bool:
        """Bound the attempts in flight per raylet: steer to a candidate
        with window headroom, else defer until some attempt concludes."""
        if ctx.is_clone or preplaced:
            return True
        depth = self.rt.config.raylet_admission_depth
        if not ctx.raylet.has_admission_capacity(depth):
            alt = self._raylet_with_capacity(ctx, depth)
            if alt is None:
                ctx.device = None
                ctx.raylet = None
                ctx.state = TaskState.PENDING
                self.deferred.append(ctx)
                self._meter_depth()
                return False
            ctx.device, ctx.raylet = alt
        ctx.admit_raylet = ctx.raylet
        ctx.raylet.admit_attempt()
        return True

    def _raylet_with_capacity(self, ctx: Any, depth: int) -> Optional[Tuple[Any, Any]]:
        """The least-loaded live candidate whose raylet has window headroom."""
        rt = self.rt
        try:
            candidates = rt.scheduler.candidates(ctx.spec)
        except PlacementError:
            return None
        roomy = []
        for device in candidates:  # live, and each has a raylet: candidates() saw to both
            raylet = rt._raylet_of_device[device.device_id]
            if raylet.has_admission_capacity(depth):
                roomy.append((raylet.admission_inflight, device.device_id, device, raylet))
        return min(roomy)[2:] if roomy else None

    def _release_window(self, ctx: Any, device: Any) -> None:
        raylet = ctx.admit_raylet
        if raylet is not None:
            ctx.admit_raylet = None
            raylet.conclude_attempt()
            self._pump_deferred()

    def _pump_deferred(self) -> None:
        """Re-dispatch raylet-window deferrals; anything still over the
        window re-defers itself at the gate."""
        if not self.deferred:
            return
        rt = self.rt
        pending, self.deferred = self.deferred, []
        for ctx in pending:
            if ctx.state is not TaskState.PENDING:
                continue
            if rt._deadline_expired(ctx.spec):
                rt._cancel_and_propagate(ctx, reason="deadline_exceeded")
                continue
            rt._place_or_retry(rt._dispatch, ctx)
        self._meter_depth()

    # -- retry budget ----------------------------------------------------------

    def _meter_budget(self, node: str) -> None:
        self.rt.telemetry.registry.gauge(
            "skadi_retry_budget_tokens",
            "remaining retry-budget tokens per node",
            node=node,
        ).set(self.budget.tokens(node))

    def _refill_budget(self, main: Any, ctx: Any, device: Any) -> None:
        if main.retries == 0:
            # only *first-attempt* successes refill the budget, so retry
            # volume stays capped at ratio x useful first-attempt volume
            self.budget.refill(device.node_id)
            self._meter_budget(device.node_id)

    def _spend_budget(self, ctx: Any, device: Any, cause: str) -> bool:
        rt = self.rt
        node = device.node_id if device is not None else "<cluster>"
        if self.budget.try_consume(node):
            self._meter_budget(node)
            return True
        # budget dry: shedding the retry breaks the storm's feedback loop
        # (each retry would amplify the very overload that failed the
        # first attempt)
        rt._record(
            "retry_budget_exhausted", task=ctx.spec.task_id, node=node, cause=cause
        )
        rt._count_shed("retry_budget_exhausted")
        rt._cancel_and_propagate(ctx, reason="retry_budget_exhausted")
        return False

    # -- circuit breakers ------------------------------------------------------

    def _breaker_allows(self, device_id: str) -> bool:
        return self.breakers.allow(
            device_id, self.rt.sim.now, self.device_inflight.get(device_id, 0)
        )

    def _count_inflight(self, ctx: Any) -> None:
        if not ctx.is_clone:
            dev_id = ctx.device.device_id
            self.device_inflight[dev_id] = self.device_inflight.get(dev_id, 0) + 1

    def _uncount_inflight(self, ctx: Any, device: Any) -> None:
        if device is not None and not ctx.is_clone:
            n = self.device_inflight.get(device.device_id, 0)
            if n:
                self.device_inflight[device.device_id] = n - 1

    def _breaker_success(self, main: Any, ctx: Any, device: Any) -> None:
        self.breakers.record_success(device.device_id, self.rt.sim.now)

    def _breaker_failure(self, device: Any, cause: str) -> None:
        self.breakers.record_failure(device.device_id, self.rt.sim.now)

    def _breaker_follows_view(self, kind: str, device: Optional[str] = None, **_ids) -> None:
        if kind == "device_dead":
            self.breakers.breaker(device).force_open(self.rt.sim.now)
        elif kind == "device_alive":
            # the device earned its way back: probe before trusting it
            self.breakers.breaker(device).on_recovered()

    def _breakers_rebuilt(self, tripped: List[str]) -> None:
        for device_id in tripped:
            self.breakers.breaker(device_id).force_open(self.rt.sim.now)

    def _on_breaker_transition(
        self, device_id: str, old: BreakerState, new: BreakerState
    ) -> None:
        rt = self.rt
        rt._record(f"breaker_{new.value}", device=device_id, previous=old.value)
        for hook in rt.on_view_change:  # a verdict, like a death: the WAL logs it
            hook("breaker", device=device_id, state=new.name)
        rt.telemetry.registry.gauge(
            "skadi_breaker_state",
            "per-device breaker state: 0 closed, 1 half-open, 2 open",
            device=device_id,
        ).set(
            {BreakerState.CLOSED: 0.0, BreakerState.HALF_OPEN: 1.0,
             BreakerState.OPEN: 2.0}[new]
        )
