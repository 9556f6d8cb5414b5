"""Actors: state plus a serial queue of method calls (§2.3; Ray's actor).

Everything that makes a task an *actor* task lives here.  The core calls in at
four places: :meth:`Actors.home` at dispatch (pin the call to wherever the
actor lives now), :meth:`Actors.turn` before the payload, the dead check and
state lookup (:meth:`Actors.epitaph`, ``state``) around it, and
:meth:`Actors.called` after it (the checkpoint cadence).  Verdicts re-home
through :meth:`Actors.rehome`, a requeue asks :meth:`Actors.ensure_home`.

* **A turn is the kernel's ``Resource``.**  One slot per actor, FIFO, requested
  with the kernel's own idiom: a call interrupted while it waits (cancelled,
  timed out, its node struck) withdraws its request, so it is never handed a
  turn nobody gives back.  The holder releases *the object it took*: a restore
  gives the actor a fresh turn (the calls in flight died with the old home),
  and a call of the dead generation must not release its successor's.
* **One checkpoint writer.**  Checkpoint 0 at creation (an actor that dies
  before its first call can still be restored) and the cadence are the same
  deep copy and the same reliable-cache write; only the cadence pays its cost.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, FrozenSet, Generator, Optional, Tuple

from ..caching.kv import estimate_nbytes
from ..cluster.hardware import Device, DeviceKind
from ..cluster.simtime import Resource
from .object_ref import ObjectRef
from .recovery import ABSENT
from .scheduler import PlacementError
from .task import ANY_COMPUTE_KIND, TaskSpec

__all__ = ["Actors", "ActorHandle"]

CHECKPOINT_PREFIX = "__actor__/"


class ActorHandle:
    """Client-side handle to a stateful actor."""

    def __init__(self, actors: "Actors", actor_id: str):
        self._actors = actors
        self.actor_id = actor_id

    @property
    def device_id(self) -> str:
        """The actor's *current* home — reconstruction may move it."""
        return self._actors.device[self.actor_id]

    def call(
        self,
        method: Callable[..., Any],
        *args: Any,
        compute_cost: float = 1e-4,
        output_nbytes: Optional[int] = None,
        **kwargs: Any,
    ) -> ObjectRef:
        """Invoke ``method(state, *args, **kwargs)`` serially on the actor."""
        rt = self._actors.rt
        spec = TaskSpec(
            task_id=rt.ids.task_id(),
            func=method,
            args=tuple(args),
            kwargs=dict(kwargs),
            compute_cost=compute_cost,
            output_nbytes=output_nbytes,
            supported_kinds=ANY_COMPUTE_KIND,
            pinned_device=self.device_id,
            name=f"{self.actor_id}.{getattr(method, '__name__', 'method')}",
            actor_id=self.actor_id,
        )
        return rt._submit_spec(spec)

    def __repr__(self) -> str:
        return f"ActorHandle({self.actor_id}@{self.device_id})"


class Actors:
    """Every actor's state, home, turn and checkpoint cadence."""

    def __init__(self, runtime: Any):  # the core (it imports this module, not the reverse)
        self.rt = runtime
        self.state: Dict[str, Any] = {}
        self.device: Dict[str, str] = {}  # actor id -> home device id
        self.kinds: Dict[str, FrozenSet[DeviceKind]] = {}
        self.calls: Dict[str, int] = {}  # completed methods (checkpoint cadence)
        self.dead: Dict[str, str] = {}  # actor id -> cause
        self.turns: Dict[str, Resource] = {}
        self.restarts = 0
        self._m_restarts = runtime.telemetry.registry.counter(
            "skadi_actor_restarts_total", "actors reconstructed from checkpoints"
        )

    def create(
        self,
        ctor: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
        supported_kinds: FrozenSet[DeviceKind],
        pinned_device: Optional[str],
    ) -> ActorHandle:
        actor_id = self.rt.ids.actor_id()
        device = self._place(f"{actor_id}-placement", supported_kinds, pinned_device)
        self.state[actor_id] = ctor(*args, **kwargs)
        self.device[actor_id] = device.device_id
        self.kinds[actor_id] = supported_kinds
        self.calls[actor_id] = 0
        self.turns[actor_id] = Resource(self.rt.sim, name=actor_id)
        if self.rt.reliable_cache is not None:
            self._checkpoint(actor_id)  # checkpoint 0, free of charge
        return ActorHandle(self, actor_id)

    def _place(
        self, probe_id: str, kinds: FrozenSet[DeviceKind], pinned: Optional[str] = None
    ) -> Device:
        probe = TaskSpec(
            task_id=probe_id, func=lambda: None, supported_kinds=kinds, pinned_device=pinned
        )
        return self.rt.scheduler.place(probe)

    # -- the core's four call-ins ----------------------------------------------

    def home(self, spec: TaskSpec) -> None:
        """At dispatch: reconstruction may have re-homed the actor since the
        call was submitted."""
        spec.pinned_device = self.device[spec.actor_id]

    def turn(self, actor_id: str) -> Generator:
        """Wait for the actor's turn; returns the turn to ``release()``."""
        turn = self.turns[actor_id]
        grant = turn.request()
        try:
            yield grant
        except BaseException:
            turn.cancel(grant)  # interrupted in the queue: never ours
            raise
        return turn

    def epitaph(self, actor_id: str) -> Optional[str]:
        """What a call on a dead actor fails with; None while it lives."""
        cause = self.dead.get(actor_id)
        return None if cause is None else f"actor {actor_id} is dead: {cause}"

    def called(self, actor_id: str) -> Generator:
        """A method returned: checkpoint on the configured cadence."""
        if self.rt.reliable_cache is None:
            return
        self.calls[actor_id] += 1
        every = self.rt.config.actor_checkpoint_every
        if every > 0 and self.calls[actor_id] % every == 0:
            yield self.rt.sim.timeout(self._checkpoint(actor_id))

    def _checkpoint(self, actor_id: str) -> float:
        """Snapshot the state into the reliable cache (a deep copy, so later
        in-place mutation cannot corrupt it); returns the write's cost."""
        snapshot = copy.deepcopy(self.state[actor_id])
        node = self.rt.cluster.node_of_device(self.device[actor_id]).node_id
        return self.rt.reliable_cache.put(
            CHECKPOINT_PREFIX + actor_id, snapshot, estimate_nbytes(snapshot), preferred_node=node
        )

    # -- losing the home -------------------------------------------------------

    def restore(self, actor_id: str, cause: str) -> bool:
        """Restart a lost actor from its last checkpoint on a surviving
        device.  With no checkpoint to restore from, or nowhere left to place
        it, the actor is declared dead (and False returned)."""
        rt = self.rt
        snapshot = rt.recovery.read_cache(CHECKPOINT_PREFIX + actor_id)
        device = None
        if snapshot is not ABSENT:
            try:
                device = self._place(f"{actor_id}-restart{self.restarts}", self.kinds[actor_id])
            except PlacementError:
                cause = f"{cause}; no surviving device"
        if device is None:
            self.dead[actor_id] = cause
            del self.state[actor_id]
            rt._record("actor_dead", actor=actor_id, cause=cause)
            return False
        self.state[actor_id] = copy.deepcopy(snapshot)
        self.device[actor_id] = device.device_id
        # the calls in flight died with the old home, and their turn with them
        self.turns[actor_id] = Resource(rt.sim, name=actor_id)
        self.restarts += 1
        self._m_restarts.inc()
        rt._record("actor_restart", actor=actor_id, device=device.device_id, cause=cause)
        return True

    def ensure_home(self, actor_id: str) -> bool:
        """Before requeueing a call: is the actor somewhere live?"""
        if actor_id in self.dead:
            return False
        if not self.rt._device_alive(self.device[actor_id]):
            return self.restore(actor_id, cause="home device unavailable")
        return True

    def rehome(self, homed_there: Callable[[str], bool], cause: str) -> None:
        """A death verdict.  Actor state is volatile: actors homed on the dead
        domain restart from their last checkpoint elsewhere, or die."""
        for actor_id in sorted(self.device):
            if actor_id not in self.dead and homed_there(self.device[actor_id]):
                self.restore(actor_id, cause)
