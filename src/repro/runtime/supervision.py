"""Attempt supervision: what happens to an attempt that fails or straggles.

Ray's promise about a task that does not finish — transparent re-execution, a
watchdog, a backup copy — is control-plane policy, not task lifecycle.  The
core calls in at two places: :meth:`Supervisor.watch` when an attempt is
dispatched (starts the watchers the config asks for) and
:meth:`Supervisor.failed` when one ends in a fault rather than a result.

* **One launch path.**  A retry goes back through routing and a speculative
  backup through ``_dispatch``, like every other attempt: it passes
  ``on_dispatch`` (HA stamps and logs its lease), is subscribed under PUSH and
  gets the watchdog when ``task_timeout`` is set.  A backup that fails or times
  out stands down silently; a task gets at most one per incarnation, and none
  while no leader is serving (its next dispatch arms a fresh watcher).
* **Hashed jitter.**  A retry waits ``retry_backoff_base * 2**(retries-1) *
  (1 + retry_jitter * frac)`` with ``frac = int(md5(f"{task_id}:{retries}")
  [:8], 16) / 0xFFFFFFFF`` — hashed, not drawn from a shared RNG, so retry
  timing never depends on event order and is stable across processes,
  platforms and Python versions.  ``tests/test_overload.py`` pins exact values.
"""

from __future__ import annotations

import hashlib
from typing import Any, Generator

from .scheduler import PlacementError
from .task import IN_FLIGHT_STATES, TaskState

__all__ = ["Supervisor", "backoff_jitter_fraction", "retry_backoff_delay"]

# each retry waits this many times longer than the one before it
RETRY_BACKOFF_FACTOR = 2.0


def backoff_jitter_fraction(task_id: str, retries: int) -> float:
    """The pinned jitter fraction in [0, 1] for attempt ``retries`` of a task."""
    digest = hashlib.md5(f"{task_id}:{retries}".encode()).hexdigest()
    return int(digest[:8], 16) / 0xFFFFFFFF


def retry_backoff_delay(config: Any, task_id: str, retries: int) -> float:
    """Exponential backoff with deterministic per-attempt jitter; ``retries``
    is the attempt number being scheduled (1 for the first retry)."""
    base = config.retry_backoff_base * RETRY_BACKOFF_FACTOR ** max(0, retries - 1)
    return base * (1.0 + config.retry_jitter * backoff_jitter_fraction(task_id, retries))


class Supervisor:
    """Retry with backoff, the execution watchdog and speculative backups."""

    def __init__(self, runtime: Any):  # the core (it imports this module, not the reverse)
        self.rt = runtime
        reg = runtime.telemetry.registry
        self._m_retried = reg.counter(
            "skadi_tasks_retried_total", "transient-failure retries consumed"
        )
        self._m_speculations = reg.counter(
            "skadi_speculations_total", "speculative backup copies launched"
        )

    # -- the core's two entry points -------------------------------------------

    def watch(self, ctx: Any) -> None:
        """At dispatch: start the watchers the config asks for."""
        rt, spec = self.rt, ctx.spec
        if rt.config.task_timeout is not None:
            rt.sim.process(self._timeout_watch(ctx, ctx.attempt), name=f"ttl:{spec.task_id}")
        if (
            rt.config.speculation_factor is not None
            and spec.actor_id is None  # actors are stateful: never speculate
            and not ctx.is_clone
        ):
            rt.sim.process(self._speculation_watch(ctx, ctx.attempt), name=f"spy:{spec.task_id}")

    def failed(self, ctx: Any, cause: str) -> None:
        """An attempt (or the placement of one) ended in a transient fault:
        retry after a backoff, give up, or let a retry gate shed the task."""
        rt = self.rt
        # the failing attempt's device is what subscribers blame and budget
        # against — capture it before the attempt state is cleared
        failed_device = ctx.device
        if failed_device is not None:
            # only a real attempt (one that held a device) reports a failure;
            # placement errors never started one
            if rt.probe_edges is not None:
                rt.probe_edges.attempt_fail(ctx.spec.task_id, ctx.attempt, cause)
            for hook in rt.on_device_fault:
                hook(failed_device, cause)
        ctx.retries += 1
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
        rt.tasks_retried += 1
        self._m_retried.inc()
        delay = retry_backoff_delay(rt.config, ctx.spec.task_id, ctx.retries)
        span = rt._span_of(ctx)
        if span is not None:
            # the backoff window is pure recovery time on any path through it
            rt.telemetry.tracer.emit(
                f"{ctx.spec.name or ctx.spec.task_id}:backoff",
                "recovery",
                rt.sim.now,
                rt.sim.now + delay,
                parent=span,
                retry=ctx.retries,
                cause=cause,
            )
        if rt.probe_edges is not None:
            rt.probe_edges.retry(ctx.spec.task_id, ctx.attempt)
        rt._record(
            "task_retry", task=ctx.spec.task_id, name=ctx.spec.name,
            retry=ctx.retries, cause=cause,
        )
        rt.sim.schedule(delay, self._requeue, ctx)

    def _requeue(self, ctx: Any) -> None:
        rt = self.rt
        if ctx.state != TaskState.PENDING or rt.ownership.is_ready(ctx.ref.object_id):
            return  # the race resolved while we backed off (twin won, failed)
        actor_id = ctx.spec.actor_id
        if actor_id is not None and not rt.actors.ensure_home(actor_id):
            rt._fail_ctx(ctx, rt.actors.epitaph(actor_id))
            return
        rt._place_or_retry(rt._route, ctx)

    # -- the watchers ----------------------------------------------------------

    def _live(self, ctx: Any, attempt: int) -> bool:
        """This attempt is still the one in flight and its result still wanted."""
        return (
            ctx.attempt == attempt
            and ctx.state in IN_FLIGHT_STATES
            and not self.rt.ownership.is_ready(ctx.ref.object_id)
        )

    def _timeout_watch(self, ctx: Any, attempt: int) -> Generator:
        """Interrupt an attempt that outlives ``task_timeout`` (it will be
        retried elsewhere by the normal transient-failure path)."""
        yield self.rt.sim.timeout(self.rt.config.task_timeout)
        # a backup that stood down keeps its in-flight state: nothing to interrupt
        if self._live(ctx, attempt) and not ctx.proc.triggered:
            self.rt._record("task_timeout", task=ctx.spec.task_id, attempt=attempt)
            ctx.proc.interrupt("execution timeout")

    def _speculation_watch(self, ctx: Any, attempt: int) -> Generator:
        """After ``speculation_factor`` x the expected runtime, launch a
        backup copy on a different device — the straggler mitigation."""
        rt, dev = self.rt, ctx.device.spec
        expected = dev.dispatch_overhead + dev.scaled_duration(ctx.spec.compute_cost)
        yield rt.sim.timeout(rt.config.speculation_factor * max(expected, 1e-9))
        if (
            self._live(ctx, attempt)
            and ctx.twin is None
            and rt._ctxs.get(ctx.spec.task_id) is ctx
            and rt.gcs_up  # nobody to grant the backup's lease
        ):
            self._speculate(ctx)

    def _speculate(self, ctx: Any) -> None:
        rt, slow = self.rt, ctx.device.device_id
        try:
            candidates = [d for d in rt.scheduler.candidates(ctx.spec) if d.device_id != slow]
        except PlacementError:
            return
        if not candidates:
            return
        outstanding = rt.scheduler.outstanding
        backup = min(candidates, key=lambda d: (outstanding(d.device_id), d.device_id))
        # the same kind of record as the original, sharing its ref and completion
        clone = ctx.twin = type(ctx)(ctx.spec, ctx.ref, ctx.done)
        clone.is_clone = True
        clone.timeline.submitted = ctx.timeline.submitted
        clone.device = backup
        self._m_speculations.inc()
        if rt.probe_edges is not None:
            rt.probe_edges.speculate(ctx.spec.task_id)
        rt._record("speculate", task=ctx.spec.task_id, slow=slow, backup=backup.device_id)
        rt._dispatch(clone, preplaced=True)
