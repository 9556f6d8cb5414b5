"""Actors (``repro.runtime.actors``): the turn, the checkpoint, the home.

* **A queued call that is interrupted gives its turn back.**  The turn is the
  kernel's ``Resource``; a call cancelled or timed out while it waits withdraws
  its request instead of being handed a turn nobody returns (each test fails at
  the commit before actors left ``ServerlessRuntime``: the actor wedged).
* **Cross-commit witness.**  Every way an actor is checkpointed, re-homed,
  restored or declared dead, pinned across commits in both resolution modes
  (recorded at that same commit, before ``src/`` was touched).
"""

from __future__ import annotations

import pytest

from repro.caching.replication import ReplicationScheme
from repro.chaos import ChaosMonkey, ChaosSchedule
from repro.cluster.cluster import build_serverful
from repro.cluster.hardware import MB, DeviceKind
from repro.runtime import (
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
    TaskCancelledError,
    TaskState,
)
from repro.runtime.runtime import make_reliable_cache

import test_recovery
from conftest import assert_recovery_drained
from test_recovery import outcome_of

GPU = frozenset({DeviceKind.GPU})
PUSH, PULL = ResolutionMode.PUSH, ResolutionMode.PULL
BOTH_MODES = pytest.mark.parametrize("mode", [PUSH, PULL], ids=lambda m: m.name)
TSAN = ("trace", "invariants", "hb")


class Counter:  # module-level: the reliable cache pickles actor state
    def __init__(self):
        self.n = 0


def bump(state, by=1):
    state.n += by
    return state.n


def one():
    return 1


class TestAQueuedCallGivesItsTurnBack:
    @BOTH_MODES
    def test_cancelled_while_queued(self, mode):
        rt = ServerlessRuntime(build_serverful(n_servers=2), RuntimeConfig(resolution=mode))
        actor = rt.create_actor(Counter)
        a = actor.call(bump, compute_cost=1.0)
        b = actor.call(bump, compute_cost=1.0)
        rt.run(until=0.5)  # A holds the turn, B waits for it
        assert rt.task_state(a) is TaskState.RUNNING
        assert rt.cancel(b)
        c = actor.call(bump, compute_cost=1.0)
        assert rt.get(a) == 1
        with pytest.raises(TaskCancelledError):
            rt.get(b)
        assert rt.get(c, timeout=100) == 2  # B never ran, and never held the turn
        turn = rt.actors.turns[actor.actor_id]
        assert turn.in_use == 0 and turn.queued == 0
        assert_recovery_drained(rt)

    @BOTH_MODES
    def test_timed_out_while_queued(self, mode):
        """Three 0.3 s calls under a 0.35 s watchdog: the second and third
        time out in the queue once each and are retried behind the holder."""
        rt = ServerlessRuntime(
            build_serverful(n_servers=2),
            RuntimeConfig(resolution=mode, task_timeout=0.35, max_retries=8),
        )
        actor = rt.create_actor(Counter)
        calls = [actor.call(bump, compute_cost=0.3) for _ in range(3)]
        assert rt.get(calls) == [1, 2, 3]
        assert rt.tasks_failed == 0 and rt.log.count("task_timeout") == 3
        assert_recovery_drained(rt)


class TestCrossCommitWitness:
    """{checkpoint cadence 0/1/2, home node dies by driver fiat / under a
    detector, no checkpoint, no surviving device of the kind, home device
    dies, queued calls requeued onto the restored actor, calls on a dead
    actor} x {PUSH, PULL}."""

    # recorded at the commit before actors left ServerlessRuntime (PR 19),
    # identical under two PYTHONHASHSEEDs
    PINNED = {
        ('cadence', 0, 'PUSH'): "118bb3889e41",
        ('cadence', 0, 'PULL'): "118bb3889e41",
        ('cadence', 1, 'PUSH'): "862f25758209",
        ('cadence', 1, 'PULL'): "862f25758209",
        ('cadence', 2, 'PUSH'): "de331a21ae29",
        ('cadence', 2, 'PULL'): "de331a21ae29",
        ('detector', 'PUSH'): "41179e90e2fb",
        ('detector', 'PULL'): "5a6eff4cadd7",
        ('requeued', 'PUSH'): "ac09946447b5",
        ('requeued', 'PULL'): "0577e3dbff0b",
        ('no_checkpoint', 'PUSH'): "09ce743697bd",
        ('no_checkpoint', 'PULL'): "09ce743697bd",
        ('no_surviving_device', 'PUSH'): "6c3e61c63a65",
        ('no_surviving_device', 'PULL'): "6c3e61c63a65",
        ('device_rehome', 'PUSH'): "106a30f5d286",
        ('device_rehome', 'PULL'): "c3f7ba72b3ca",
    }

    @staticmethod
    def config(mode, **overrides) -> RuntimeConfig:
        base = dict(resolution=mode, max_retries=10, retry_backoff_base=2e-3, sanitizers=TSAN)
        base.update(overrides)
        return RuntimeConfig(**base)

    # log, protocol events, spans, metrics, clock, fabric counters, open tasks
    digest = staticmethod(test_recovery.TestCrossCommitWitness.digest)

    def runtime(self, mode, cached=True, gpus_per_server=0, **overrides):
        cluster = build_serverful(n_servers=3, gpus_per_server=gpus_per_server)
        cache = make_reliable_cache(cluster, ReplicationScheme(2)) if cached else None
        return ServerlessRuntime(cluster, self.config(mode, **overrides), reliable_cache=cache)

    @staticmethod
    def argument(rt):
        """A 1 MiB argument produced on the head, so the two modes differ: the
        re-homed actor's calls must get it onto a device nobody pushed it to."""
        return rt.submit(
            one, compute_cost=1e-4, output_nbytes=MB, pinned_device="server0/cpu", name="one"
        )

    def cadence(self, every, mode):
        """Three calls, the home node killed by driver fiat, a fourth call:
        it resumes from the last checkpoint the cadence took."""
        rt = self.runtime(mode, actor_checkpoint_every=every)
        actor = rt.create_actor(Counter, pinned_device="server1/cpu")
        for expected in (1, 2, 3):
            assert rt.get(actor.call(bump)) == expected
        rt.fail_node("server1")
        outcome = outcome_of(lambda: rt.get(actor.call(bump)))
        assert outcome == {0: "1", 1: "4", 2: "3"}[every]
        assert rt.actor_restarts == 1 and actor.device_id != "server1/cpu"
        return rt, outcome

    def detector(self, mode):
        """The home node crashes under queued calls and only heartbeats tell:
        retries bounce off the dead home until the verdict re-homes the actor."""
        rt = self.runtime(mode, heartbeat_interval=1e-3, heartbeat_miss_threshold=3)
        actor = rt.create_actor(Counter, pinned_device="server1/cpu")
        ChaosMonkey(rt, ChaosSchedule().crash_node(5e-3, "server1")).arm()
        by = self.argument(rt)
        calls = [actor.call(bump, by, compute_cost=2e-3) for _ in range(6)]
        outcome = outcome_of(lambda: rt.get(calls))
        assert rt.actor_restarts == 1 and rt.log.count("node_dead") == 1
        assert actor.device_id != "server1/cpu"
        return rt, outcome

    def requeued(self, mode):
        """No detector: the crash is its own verdict, the actor is restored at
        once and the running call and the three queued behind it all requeue
        onto the new home."""
        rt = self.runtime(mode)
        actor = rt.create_actor(Counter, pinned_device="server1/cpu")
        assert rt.get(actor.call(bump)) == 1
        ChaosMonkey(rt, ChaosSchedule().crash_node(rt.sim.now + 1.5e-3, "server1")).arm()
        by = self.argument(rt)
        calls = [actor.call(bump, by, compute_cost=2e-3) for _ in range(4)]
        outcome = outcome_of(lambda: rt.get(calls))
        assert rt.actor_restarts == 1 and rt.tasks_retried == 4
        return rt, outcome

    def no_checkpoint(self, mode):
        """No reliable cache: the actor dies with its home.  The call in
        flight learns it when it requeues, a later one when it runs."""
        rt = self.runtime(mode, cached=False)
        actor = rt.create_actor(Counter, pinned_device="server1/cpu")
        assert rt.get(actor.call(bump)) == 1
        in_flight = actor.call(bump, compute_cost=1e-2)
        rt.run(until=rt.sim.now + 2e-3)
        rt.fail_node("server1")
        outcomes = [outcome_of(lambda: rt.get(in_flight))]
        rt.restart_node("server1")
        outcomes.append(outcome_of(lambda: rt.get(actor.call(bump))))
        assert all("is dead: node server1 failed" in o for o in outcomes), outcomes
        assert rt.log.count("actor_dead") == 1 and rt.actor_restarts == 0
        return rt, repr(outcomes)

    def no_surviving_device(self, mode):
        """A GPU actor whose checkpoint is fine but whose kind has no device
        left to be restored on."""
        rt = self.runtime(mode, gpus_per_server=1)
        gpus = [d.device_id for d in rt.cluster.all_devices() if d.kind is DeviceKind.GPU]
        actor = rt.create_actor(Counter, supported_kinds=GPU, pinned_device=gpus[1])
        assert rt.get(actor.call(bump)) == 1
        for gpu in (gpus[0], gpus[2], gpus[1]):  # the home last
            rt.fail_device(gpu)
        rt.restore_device(gpus[1])
        outcome = outcome_of(lambda: rt.get(actor.call(bump)))
        assert f"device {gpus[1]} failed; no surviving device" in outcome
        assert rt.actor_restarts == 0
        return rt, outcome

    def device_rehome(self, mode):
        """The home *device* dies under a running call and a queued one; the
        node lives.  The actor moves to another GPU and both calls follow."""
        rt = self.runtime(mode, gpus_per_server=1)
        gpus = [d.device_id for d in rt.cluster.all_devices() if d.kind is DeviceKind.GPU]
        actor = rt.create_actor(Counter, supported_kinds=GPU, pinned_device=gpus[1])
        assert rt.get(actor.call(bump)) == 1
        by = self.argument(rt)
        calls = [actor.call(bump, by, compute_cost=0.5) for _ in range(2)]
        rt.run(until=rt.sim.now + 1e-3)
        rt.fail_device(gpus[1])
        outcome = outcome_of(lambda: rt.get(calls))
        assert rt.actor_restarts == 1 and rt.log.count("device_dead") == 1
        assert actor.device_id in (gpus[0], gpus[2])
        return rt, outcome

    SCENARIOS = [
        ("cadence", 0), ("cadence", 1), ("cadence", 2), ("detector",), ("requeued",),
        ("no_checkpoint",), ("no_surviving_device",), ("device_rehome",),
    ]

    @BOTH_MODES
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: "-".join(map(str, s)))
    def test_every_actor_path_replays_exactly(self, scenario, mode):
        name, *args = scenario
        rt, outcome = getattr(self, name)(*args, mode)
        assert self.digest(rt, outcome) == self.PINNED[(*scenario, mode.name)]
        assert_recovery_drained(rt)
