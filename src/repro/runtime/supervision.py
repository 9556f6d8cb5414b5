"""Attempt supervision: what happens to an attempt that fails or straggles.

Ray's promise about a task that does not finish — transparent re-execution, a
watchdog, a backup copy — is control-plane policy, not task lifecycle.  The
core calls in at two places: :meth:`Supervisor.watch` when an attempt is
dispatched (arms the guards the config asks for, each one ``sim.call_at`` entry
that its task's close cancels; a failed attempt's guard fires and finds its
attempt over) and
:meth:`Supervisor.failed` when one ends in a fault rather than a result.

* **One launch path.**  A retry goes back through routing and a speculative
  backup through ``_dispatch``, like every other attempt: it passes
  ``on_dispatch`` (HA stamps and logs its lease), is subscribed under PUSH and
  gets the watchdog when ``task_timeout`` is set.  A backup that fails or times
  out stands down silently; a task gets at most one per incarnation, and none
  while no leader is serving (its next dispatch arms a fresh guard).
* **Hashed jitter.**  A retry waits ``retry_backoff_base * 2**(retries-1) *
  (1 + RETRY_JITTER * frac)`` with ``frac = int(md5(f"{task_id}:{retries}")
  [:8], 16) / 0xFFFFFFFF`` — hashed, not drawn from a shared RNG, so retry
  timing never depends on event order and is stable across processes,
  platforms and Python versions.  ``tests/test_overload.py`` pins exact values.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List

from .scheduler import PlacementError
from .task import IN_FLIGHT_STATES, TaskState

__all__ = ["Supervisor", "backoff_jitter_fraction", "retry_backoff_delay"]

# each retry waits this many times longer than the one before it
RETRY_BACKOFF_FACTOR = 2.0
# the hashed jitter's share of each backoff
RETRY_JITTER = 0.25
# the interrupt cause of an attempt the watchdog stopped
EXECUTION_TIMEOUT = "execution timeout"


def backoff_jitter_fraction(task_id: str, retries: int) -> float:
    """The pinned jitter fraction in [0, 1] for attempt ``retries`` of a task."""
    digest = hashlib.md5(f"{task_id}:{retries}".encode()).hexdigest()
    return int(digest[:8], 16) / 0xFFFFFFFF


def retry_backoff_delay(config: Any, task_id: str, retries: int) -> float:
    """Exponential backoff with deterministic per-attempt jitter; ``retries``
    is the attempt number being scheduled (1 for the first retry)."""
    base = config.retry_backoff_base * RETRY_BACKOFF_FACTOR ** max(0, retries - 1)
    return base * (1.0 + RETRY_JITTER * backoff_jitter_fraction(task_id, retries))


class Supervisor:
    """Retry with backoff, the execution watchdog and speculative backups."""

    def __init__(self, runtime: Any):  # the core (it imports this module, not the reverse)
        self.rt = runtime
        self._guards: Dict[str, List[Any]] = {}  # task id -> its calendar handles
        if runtime.config.task_timeout is not None or runtime.config.speculation_factor is not None:
            runtime.on_task_closed.append(self._withdraw)

    # -- the core's two entry points -------------------------------------------

    def watch(self, ctx: Any) -> None:
        """At dispatch: arm the guards the config asks for."""
        rt, spec = self.rt, ctx.spec
        if rt.config.task_timeout is not None:
            self._arm(ctx, rt.config.task_timeout, self._timed_out)
        if (
            rt.config.speculation_factor is not None
            and spec.actor_id is None  # actors are stateful: never speculate
            and not ctx.is_clone
        ):
            dev = ctx.device.spec
            expected = dev.dispatch_overhead + dev.scaled_duration(spec.compute_cost)
            self._arm(ctx, rt.config.speculation_factor * max(expected, 1e-9), self._straggling)

    def failed(self, ctx: Any, cause: str) -> None:
        """An attempt (or the placement of one) ended in a transient fault:
        retry after a backoff, give up, or let a retry gate shed the task."""
        rt = self.rt
        # the failing attempt's device is what a retry gate budgets against —
        # capture it before the attempt state is cleared
        failed_device = ctx.device
        if failed_device is not None:
            # only a real attempt (one that held a device) reports a failure;
            # placement errors never started one
            rt.probe.attempt_fail(ctx.spec.task_id, ctx.attempt, cause)
        ctx.retries += 1
        # a retry leaves out the device the attempt timed out on: a slow
        # device does not look busy to placement
        timed_out = failed_device is not None and cause == EXECUTION_TIMEOUT
        ctx.avoid = failed_device.device_id if timed_out else None
        ctx.device = None
        ctx.raylet = None
        ctx.proc = None
        ctx.state = TaskState.PENDING
        if ctx.retries > rt.config.max_retries:
            rt._fail_ctx(ctx, f"gave up after {rt.config.max_retries} retries: {cause}")
            return
        for gate in rt.retry_gates:
            if not gate(ctx, failed_device, cause):
                return  # the gate shed the task instead
        delay = retry_backoff_delay(rt.config, ctx.spec.task_id, ctx.retries)
        # the backoff window is pure recovery time on any path through it
        rt.telemetry.tracer.emit(
            f"{ctx.spec.name or ctx.spec.task_id}:backoff",
            "recovery",
            rt.sim.now,
            rt.sim.now + delay,
            parent=ctx.span,
            retry=ctx.retries,
            cause=cause,
        )
        # the attempt it answers is in no record: emitted here
        rt.probe.retry(ctx.spec.task_id, ctx.attempt)
        rt._record(
            "task_retry", task=ctx.spec.task_id, name=ctx.spec.name,
            retry=ctx.retries, cause=cause,
        )
        rt.sim.schedule(delay, self._requeue, ctx)

    def _requeue(self, ctx: Any) -> None:
        rt = self.rt
        if ctx.state != TaskState.PENDING or rt._outputs_ready(ctx):
            return  # the race resolved while we backed off (twin won, failed)
        actor_id = ctx.spec.actor_id
        if actor_id is not None and not rt.actors.ensure_home(actor_id):
            rt._fail_ctx(ctx, rt.actors.epitaph(actor_id))
            return
        rt._place_or_retry(rt._route, ctx)

    # -- the guards ------------------------------------------------------------

    def _arm(self, ctx: Any, delay: float, guard: Callable[[Any, int], None]) -> None:
        sim = self.rt.sim
        handle = sim.call_at(sim.now + delay, guard, ctx, ctx.attempt)
        self._guards.setdefault(ctx.spec.task_id, []).append(handle)

    def _withdraw(self, ctx: Any) -> None:
        """Take the closing task's guards off the calendar, except one whose
        instant has come: it fired, or fires now and finds its attempt over."""
        sim = self.rt.sim
        for handle in self._guards.pop(ctx.spec.task_id, ()):
            if handle[0] > sim.now:  # a handle is (when, entry)
                sim.cancel(handle)

    def _live(self, ctx: Any, attempt: int) -> bool:
        """This attempt is still the one in flight and its result still wanted."""
        return (
            ctx.attempt == attempt
            and ctx.state in IN_FLIGHT_STATES
            and not self.rt._outputs_ready(ctx)
        )

    def _timed_out(self, ctx: Any, attempt: int) -> None:
        """``task_timeout`` after dispatch: interrupt the attempt if it still
        runs.  The transient-failure path retries it elsewhere: :meth:`failed`
        marks the device for the retry's placement to leave out, unless it
        is the task's only candidate."""
        # a backup that stood down keeps its in-flight state, but its process
        # is gone: nothing to interrupt
        if self._live(ctx, attempt) and ctx.proc is not None:
            self.rt._record("task_timeout", task=ctx.spec.task_id, attempt=attempt)
            ctx.proc.interrupt(EXECUTION_TIMEOUT)

    def _straggling(self, ctx: Any, attempt: int) -> None:
        """``speculation_factor`` x the expected runtime after dispatch: launch
        a backup copy on a different device — the straggler mitigation."""
        if (
            self._live(ctx, attempt)
            and ctx.twin is None
            and self.rt._ctxs.get(ctx.spec.task_id) is ctx
            and self.rt.gcs_up  # nobody to grant the backup's lease
        ):
            self._speculate(ctx)

    def _speculate(self, ctx: Any) -> None:
        rt, slow = self.rt, ctx.device.device_id
        try:
            backup = rt.scheduler.place_apart(ctx.spec, (slow,))
        except PlacementError:
            return
        if backup is None:
            return
        # the same kind of record as the original, sharing its outputs,
        # completion and span (its milestones stay its own until it wins)
        clone = ctx.twin = type(ctx)(ctx.spec, ctx.outputs, ctx.done, ctx.span)
        clone.is_clone = True
        clone.device = backup
        rt._record("speculate", task=ctx.spec.task_id, slow=slow, backup=backup.device_id)
        rt._dispatch(clone)
