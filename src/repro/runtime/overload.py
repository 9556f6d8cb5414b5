"""Overload control: bounded admission and retry budgets.

The runtime survives crashes (lineage replay), device-granular faults, and
slow fabrics — but an *overloaded* system fails differently: every queue
grows without bound, retries of timed-out work amplify the very congestion
that caused the timeouts, and the system enters a metastable state where
goodput stays collapsed long after the triggering burst ends.  This module
holds the mechanism objects and :class:`OverloadControl`, the component
that wires them to the runtime's lifecycle seam.  :func:`install` builds it
only when a :class:`~repro.runtime.config.RuntimeConfig` overload switch is
on; with both of them off nothing is installed, the seam lists stay empty
and legacy traces replay bit-for-bit.

Two mechanisms live here:

* **admission** — a bound on the scheduler's open tasks; a submission past
  it raises :class:`AdmissionRejectedError` to the caller (retryable: the
  caller may resubmit after backing off);
* **retry budgets** — :class:`RetryBudget`, a per-node token bucket refilled
  by first-attempt successes and drained by retries, capping retry volume at
  a fraction of useful volume so storms cannot self-amplify.

Deadline propagation, the third overload switch, is the core's own
(``ServerlessRuntime._inherit_deadline``): it subscribes nothing here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import ServerlessRuntime
    from .task import TaskSpec

__all__ = [
    "AdmissionRejectedError",
    "RetryBudget",
    "OverloadControl",
    "install",
]


class AdmissionRejectedError(RuntimeError):
    """A bounded admission queue refused the task.

    Retryable: the submission was rejected *before* any ownership state was
    created, so the caller may back off and resubmit the same payload.
    """


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


# -- the installed component --------------------------------------------------


def install(runtime: "ServerlessRuntime") -> Optional["OverloadControl"]:
    """The component, subscribed to ``runtime`` — or None with both switches off."""
    cfg = runtime.config
    return OverloadControl(runtime) if cfg.admission_control or cfg.retry_budget else None


class OverloadControl:
    """Bounded admission and the retry budget behind the runtime's lifecycle
    seam (DESIGN.md "Runtime core and components").  Each switch appends only
    its own subscribers, so a mechanism that is off is never called."""

    def __init__(self, runtime: "ServerlessRuntime"):
        self.rt = rt = runtime
        cfg = rt.config
        if cfg.retry_budget:
            self.budget = RetryBudget(cfg.retry_budget_ratio, cfg.retry_budget_cap)
            self._m_budget = rt.telemetry.registry.series(
                "gauge",
                "skadi_retry_budget_tokens",
                "remaining retry-budget tokens per node",
                "node",
            )
            rt.on_task_finished.append(self._refill_budget)
            rt.retry_gates.append(self._spend_budget)
        self.admitted_open = 0  # tasks holding a scheduler admission slot
        if cfg.admission_control:
            rt.submit_gates.append(self._admission_gate)
            rt.on_task_open.append(self._task_open)
            rt.on_task_closed.append(self._task_closed)

    # -- admission -------------------------------------------------------------

    def _admission_gate(self, spec: "TaskSpec") -> None:
        """Scheduler-level bounded admission: raises
        :class:`AdmissionRejectedError` when ``admission_queue_depth`` tasks
        are already open."""
        rt, depth = self.rt, self.rt.config.admission_queue_depth
        if self.admitted_open < depth:
            return
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
            f"admission queue full ({self.admitted_open}/{depth} "
            f"open tasks); task {spec.task_id} rejected"
        )

    def _task_open(self, ctx: Any) -> None:
        ctx.admitted = True
        self.admitted_open += 1

    def _task_closed(self, ctx: Any) -> None:
        """Release the task's admission slot."""
        if ctx.admitted:
            ctx.admitted = False
            self.admitted_open = max(0, self.admitted_open - 1)

    # -- retry budget ----------------------------------------------------------

    def _meter_budget(self, node: str) -> None:
        self._m_budget.of(node).set(self.budget.tokens(node))

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
