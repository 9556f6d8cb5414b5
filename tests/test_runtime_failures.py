"""Tests for failure handling: lineage replay, reliable cache, interrupts."""

from __future__ import annotations

import pytest

from repro.caching.replication import ErasureCode, ReplicationScheme
from repro.cluster.cluster import build_physical_disagg, build_serverful
from repro.cluster.hardware import DeviceKind
from repro.runtime import (
    Generation,
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
    UnrecoverableObjectError,
)
from repro.runtime.runtime import MAX_LINEAGE_REPLAYS, make_reliable_cache

from asserts import assert_recovery_drained


def pull_runtime(cluster=None, **kwargs):
    return ServerlessRuntime(
        cluster or build_physical_disagg(),
        RuntimeConfig(resolution=ResolutionMode.PULL),
        **kwargs,
    )


def build_chain(rt, length=4, device=None):
    """A chain whose every output lands on one device (loss nukes it all)."""
    kwargs = {"pinned_device": device} if device else {}
    ref = rt.submit(lambda: 1, name="head", **kwargs)
    for i in range(length - 1):
        ref = rt.submit(lambda x: x + 1, (ref,), name=f"step{i}", **kwargs)
    return ref


class TestLineageRecovery:
    def test_lost_object_recovered_by_replay(self):
        rt = pull_runtime()
        cluster = rt.cluster
        cpu = cluster.node("server0").first_of_kind(DeviceKind.CPU)
        ref = build_chain(rt, 4, device=cpu.device_id)
        assert rt.get(ref) == 4
        lost = rt.fail_node("server0")
        assert ref.object_id in lost
        rt.restart_node("server0")
        assert rt.get(ref) == 4
        assert rt.lineage.replays == 4  # whole chain re-ran
        assert_recovery_drained(rt)

    def test_replay_skips_surviving_prefixes(self):
        rt = pull_runtime()
        cluster = rt.cluster
        cpu0 = cluster.node("server0").first_of_kind(DeviceKind.CPU)
        cpu1 = cluster.node("server1").first_of_kind(DeviceKind.CPU)
        a = rt.submit(lambda: 10, pinned_device=cpu0.device_id, name="a")
        b = rt.submit(lambda x: x + 1, (a,), pinned_device=cpu1.device_id, name="b")
        assert rt.get(b) == 11
        rt.fail_node("server1")
        rt.restart_node("server1")
        # a survives on server0 (plus the pulled copy died with server1, but
        # the origin copy is alive); only b replays
        assert rt.get(b) == 11
        assert rt.lineage.replays == 1
        assert_recovery_drained(rt)

    @pytest.mark.parametrize(
        "mode", [ResolutionMode.PUSH, ResolutionMode.PULL], ids=lambda m: m.name
    )
    def test_shared_ancestor_is_replayed_once(self, mode):
        """Recovering ``a`` already replays ``x``; recovering ``b`` right
        after must ride that replay, not launch ``x`` again (the second
        attempt used to stand down without ever closing its task)."""
        rt = ServerlessRuntime(build_physical_disagg(), RuntimeConfig(resolution=mode))
        x_runs = []
        kwargs = {"pinned_device": "server1/cpu"}
        x = rt.submit(lambda: x_runs.append(1) or 1, name="x", **kwargs)
        a = rt.submit(lambda v: v + 1, (x,), name="a", **kwargs)
        b = rt.submit(lambda v: v + 2, (x,), name="b", **kwargs)
        assert rt.get([a, b]) == [2, 3]
        rt.fail_node("server1")
        rt.restart_node("server1")
        assert rt.get([a, b]) == [2, 3]
        rt.sim.run()
        assert rt.lineage.replays == 3  # x, a, b: each once
        assert len(x_runs) == 2
        assert_recovery_drained(rt)

    def test_driver_put_objects_are_unrecoverable(self):
        rt = pull_runtime()
        ref = rt.put("precious")
        rt.fail_node("server0")  # puts land on the head node
        with pytest.raises(UnrecoverableObjectError):
            rt.get(ref)
        assert_recovery_drained(rt)

    def test_midflight_interrupt_resubmits_elsewhere(self):
        rt = pull_runtime(cluster=build_serverful(n_servers=2))
        # long task pinned nowhere: scheduler picks some cpu; find its node
        ref = rt.submit(lambda: "done", compute_cost=10.0, name="long")
        rt.run(until=1.0)  # task is mid-execution
        victim_ctx = rt._ctx_of_object[ref.object_id]
        victim_node = victim_ctx.device.node_id
        rt.fail_node(victim_node)
        assert rt.get(ref) == "done"
        # a finished task keeps no ctx: its timeline says where it ran
        assert rt.cluster.device(rt.timeline_of(ref).device).node_id != victim_node
        assert_recovery_drained(rt)


class TestReliableCache:
    def _runtime_with_cache(self, redundancy):
        cluster = build_physical_disagg()
        cache = make_reliable_cache(cluster, redundancy)
        rt = ServerlessRuntime(
            cluster, RuntimeConfig(resolution=ResolutionMode.PULL), reliable_cache=cache
        )
        return rt, cache

    def test_replicated_cache_recovers_without_replay(self):
        rt, cache = self._runtime_with_cache(ReplicationScheme(2))
        cpu = rt.cluster.node("server0").first_of_kind(DeviceKind.CPU)
        ref = build_chain(rt, 3, device=cpu.device_id)
        assert rt.get(ref) == 3
        rt.fail_node("server0")
        rt.restart_node("server0")
        assert rt.get(ref) == 3
        assert rt.lineage.replays == 0  # cache served it; no re-execution
        assert_recovery_drained(rt)

    def test_ec_cache_recovers(self):
        rt, cache = self._runtime_with_cache(ErasureCode(4, 2))
        cpu = rt.cluster.node("server0").first_of_kind(DeviceKind.CPU)
        ref = build_chain(rt, 2, device=cpu.device_id)
        assert rt.get(ref) == 2
        rt.fail_node("server0")
        rt.restart_node("server0")
        assert rt.get(ref) == 2
        assert rt.lineage.replays == 0
        assert_recovery_drained(rt)

    def test_cache_write_costs_time(self):
        rt_plain = pull_runtime()
        ref = rt_plain.submit(lambda: 1, output_nbytes=1 << 20)
        rt_plain.get(ref)
        t_plain = rt_plain.sim.now

        rt_cache, _ = self._runtime_with_cache(ReplicationScheme(3))
        ref = rt_cache.submit(lambda: 1, output_nbytes=1 << 20)
        rt_cache.get(ref)
        assert rt_cache.sim.now > t_plain  # replication is not free


class TestActorFailure:
    def test_actor_dies_with_its_node(self):
        rt = pull_runtime(cluster=build_serverful(n_servers=3))

        class Counter:
            def __init__(self):
                self.n = 0

        def inc(state):
            state.n += 1
            return state.n

        from repro.runtime import TaskError

        actor = rt.create_actor(Counter)
        assert rt.get(actor.call(inc)) == 1
        home = rt.cluster.node_of_device(actor.device_id).node_id
        rt.fail_node(home)
        rt.restart_node(home)
        with pytest.raises(TaskError, match="actor .* is dead"):
            rt.get(actor.call(inc))
        assert_recovery_drained(rt)

    def test_actors_on_other_nodes_survive(self):
        rt = pull_runtime(cluster=build_serverful(n_servers=3))

        class Cell:
            def __init__(self):
                self.v = 0

        def bump(state):
            state.v += 1
            return state.v

        cpus = [
            rt.cluster.node(f"server{i}").first_of_kind(DeviceKind.CPU)
            for i in range(3)
        ]
        actors = [
            rt.create_actor(Cell, pinned_device=cpu.device_id) for cpu in cpus
        ]
        rt.get([a.call(bump) for a in actors])
        victim_node = rt.cluster.node_of_device(actors[0].device_id).node_id
        rt.fail_node(victim_node)
        rt.restart_node(victim_node)
        for actor in actors[1:]:  # homed on other nodes: state intact
            assert rt.get(actor.call(bump)) == 2
        assert_recovery_drained(rt)

    def test_replacement_actor_works(self):
        rt = pull_runtime(cluster=build_serverful(n_servers=3))

        class Cell:
            def __init__(self):
                self.v = 100

        def read(state):
            return state.v

        old = rt.create_actor(Cell)
        home = rt.cluster.node_of_device(old.device_id).node_id
        rt.fail_node(home)
        rt.restart_node(home)
        fresh = rt.create_actor(Cell)
        assert rt.get(fresh.call(read)) == 100
        assert_recovery_drained(rt)


class TestSchedulerAfterFailure:
    def test_new_tasks_avoid_dead_nodes(self):
        rt = pull_runtime(cluster=build_serverful(n_servers=3))
        rt.fail_node("server1")
        refs = [rt.submit(lambda i=i: i, name=f"t{i}") for i in range(6)]
        rt.get(refs)
        nodes = {rt.timeline_of(r).device.split("/")[0] for r in refs}
        assert "server1" not in nodes
        assert_recovery_drained(rt)


class TestGetTimeout:
    def test_timeout_raises_and_leaves_ref_usable(self):
        from repro.runtime import GetTimeoutError

        rt = pull_runtime()
        ref = rt.submit(lambda: 42, compute_cost=1.0, name="slow")
        with pytest.raises(GetTimeoutError, match="unresolved after timeout"):
            rt.get(ref, timeout=0.05)
        assert rt.sim.now == pytest.approx(0.05)
        assert rt.get(ref) == 42  # a later, patient get still resolves
        assert_recovery_drained(rt)

    def test_timeout_not_raised_when_task_beats_it(self):
        rt = pull_runtime()
        ref = rt.submit(lambda: 7, compute_cost=1e-3)
        assert rt.get(ref, timeout=10.0) == 7
        assert rt.sim.now < 1.0  # get returned at completion, not the deadline
        assert_recovery_drained(rt)

    def test_timeout_is_relative_to_current_sim_time(self):
        rt = pull_runtime()
        a = rt.submit(lambda: 1, compute_cost=0.02)
        assert rt.get(a) == 1  # clock now sits past 0.02s
        b = rt.submit(lambda: 2, compute_cost=0.05)
        # an absolute-deadline bug would see timeout=0.2 "already expired"
        # relative semantics give b a fresh 0.2s window
        assert rt.get(b, timeout=0.2) == 2
        assert_recovery_drained(rt)

    def test_partial_resolution_reported(self):
        from repro.runtime import GetTimeoutError

        rt = pull_runtime()
        fast = rt.submit(lambda: "f", compute_cost=1e-3)
        slow = rt.submit(lambda: "s", compute_cost=1.0)
        with pytest.raises(GetTimeoutError, match="1/2 refs unresolved"):
            rt.get([fast, slow], timeout=0.05)
        assert_recovery_drained(rt)


class TestGetTimeoutDuringRecovery:
    """``get(timeout=)`` expiring mid-retry/mid-replay is an observer event:
    it must not mark the task failed or poison the in-flight recovery."""

    def test_timeout_during_retry_does_not_poison_it(self):
        from repro.chaos import ChaosMonkey, ChaosSchedule
        from repro.runtime import GetTimeoutError

        rt = ServerlessRuntime(
            build_serverful(n_servers=2),
            RuntimeConfig(
                resolution=ResolutionMode.PULL,
                max_retries=10,
                retry_backoff_base=5e-3,
            ),
        )
        # server1 is unreachable at submit time; the lease drops, the task
        # enters retry backoff, and the partition heals at 20ms
        schedule = ChaosSchedule().partition(0.0, [["server1"]], heal_after=2e-2)
        ChaosMonkey(rt, schedule).arm()
        cpu1 = rt.cluster.node("server1").first_of_kind(DeviceKind.CPU)
        ref = rt.submit(
            lambda: "survived", compute_cost=1e-3, pinned_device=cpu1.device_id
        )
        # expire while the first retry is still backing off
        with pytest.raises(GetTimeoutError, match="unresolved after timeout"):
            rt.get(ref, timeout=2e-3)
        assert rt.tasks_failed == 0  # observer timeout, not a task failure
        # the retry machinery keeps running: a patient get resolves
        assert rt.get(ref) == "survived"
        assert rt.tasks_retried >= 1
        assert rt.tasks_failed == 0
        assert_recovery_drained(rt)

    def test_timeout_during_lineage_replay_does_not_poison_it(self):
        from repro.runtime import GetTimeoutError

        rt = pull_runtime()
        cpu = rt.cluster.node("server0").first_of_kind(DeviceKind.CPU)
        ref = rt.submit(
            lambda: "rebuilt", compute_cost=5e-2, pinned_device=cpu.device_id
        )
        assert rt.get(ref) == "rebuilt"
        rt.fail_node("server0")
        rt.restart_node("server0")
        # this get kicks off the lineage replay, then expires mid-rebuild
        with pytest.raises(GetTimeoutError, match="unresolved after timeout"):
            rt.get(ref, timeout=1e-3)
        assert rt.tasks_failed == 0
        assert rt.get(ref) == "rebuilt"  # replay finished despite the timeout
        assert rt.lineage.replays >= 1
        assert rt.tasks_failed == 0
        assert_recovery_drained(rt)


class TestDeadActorPath:
    class _Cell:
        def __init__(self):
            self.v = 0

    @staticmethod
    def _bump(state):
        state.v += 1
        return state.v

    def test_every_call_after_death_fails(self):
        from repro.runtime import TaskError

        rt = pull_runtime(cluster=build_serverful(n_servers=3))
        cpu1 = rt.cluster.node("server1").first_of_kind(DeviceKind.CPU)
        actor = rt.create_actor(self._Cell, pinned_device=cpu1.device_id)
        assert rt.get(actor.call(self._bump)) == 1
        rt.fail_node("server1")
        rt.restart_node("server1")
        for _ in range(2):  # dead is dead: no zombie revival on later calls
            with pytest.raises(TaskError, match="actor .* is dead"):
                rt.get(actor.call(self._bump))
        assert actor.actor_id in rt.actors.dead
        assert rt.log.count("actor_dead") == 1
        assert_recovery_drained(rt)

    def test_checkpointed_actor_survives_fail_node(self):
        cluster = build_serverful(n_servers=3)
        cache = make_reliable_cache(cluster, ReplicationScheme(2))
        rt = pull_runtime(cluster=cluster, reliable_cache=cache)
        cpu1 = cluster.node("server1").first_of_kind(DeviceKind.CPU)
        actor = rt.create_actor(self._Cell, pinned_device=cpu1.device_id)
        for expect in (1, 2, 3):
            assert rt.get(actor.call(self._bump)) == expect
        rt.fail_node("server1")
        # reconstructed from the post-call-3 checkpoint on a surviving node
        assert rt.get(actor.call(self._bump)) == 4
        assert rt.actor_restarts == 1
        assert rt.cluster.node_of_device(actor.device_id).node_id != "server1"
        assert_recovery_drained(rt)


class TestReplayExhaustion:
    def test_unrecoverable_after_max_replays(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.runtime.MAX_LINEAGE_REPLAYS", 2)
        cluster = build_serverful(n_servers=1)
        rt = ServerlessRuntime(cluster, RuntimeConfig(resolution=ResolutionMode.PULL))
        cpu = cluster.node("server0").first_of_kind(DeviceKind.CPU)
        ref = build_chain(rt, 3, device=cpu.device_id)
        assert rt.get(ref) == 3

        def saboteur(ready_oid):
            # every time the replay re-materializes the target, nuke it again
            if ready_oid == ref.object_id:
                rt.fail_node("server0")
                rt.restart_node("server0")

        rt.fail_node("server0")
        rt.restart_node("server0")
        rt.object_ready_hooks.append(saboteur)
        with pytest.raises(UnrecoverableObjectError, match="after 2 replays"):
            rt.get(ref)
        rt.object_ready_hooks.remove(saboteur)
        assert_recovery_drained(rt)

    def test_the_default_budget_is_the_constant(self):
        """Without a patch a ``get`` spends exactly MAX_LINEAGE_REPLAYS (32)
        rounds on an object that keeps getting lost."""
        assert MAX_LINEAGE_REPLAYS == 32
        cluster = build_serverful(n_servers=1)
        rt = ServerlessRuntime(cluster, RuntimeConfig(resolution=ResolutionMode.PULL))
        cpu = cluster.node("server0").first_of_kind(DeviceKind.CPU)
        ref = build_chain(rt, 2, device=cpu.device_id)
        assert rt.get(ref) == 2
        strikes = []

        def saboteur(ready_oid):
            if ready_oid == ref.object_id:
                strikes.append(rt.sim.now)
                rt.fail_node("server0")
                rt.restart_node("server0")

        rt.fail_node("server0")
        rt.restart_node("server0")
        rt.object_ready_hooks.append(saboteur)
        with pytest.raises(UnrecoverableObjectError, match="after 32 replays"):
            rt.get(ref)
        assert len(strikes) == MAX_LINEAGE_REPLAYS  # every round's replay was lost again
        rt.object_ready_hooks.remove(saboteur)
        assert_recovery_drained(rt)

    def test_replay_budget_not_consumed_by_success(self):
        rt = pull_runtime()
        cpu = rt.cluster.node("server0").first_of_kind(DeviceKind.CPU)
        ref = build_chain(rt, 3, device=cpu.device_id)
        assert rt.get(ref) == 3
        # lose and recover MAX_LINEAGE_REPLAYS times in *separate* gets:
        # the budget is per-get, not per-object lifetime
        for _ in range(MAX_LINEAGE_REPLAYS):
            rt.fail_node("server0")
            rt.restart_node("server0")
            assert rt.get(ref) == 3
        assert_recovery_drained(rt)


class TestDriverStrikes:
    """The driver's handle on ``repro.runtime.failures``."""

    UNKNOWN = [
        (lambda rt: rt.fail_node("nope"), "nope", "node"),
        (lambda rt: rt.restart_node("nope"), "nope", "node"),
        (lambda rt: rt.fail_device("nope/gpu0"), "nope/gpu0", "device"),
        (lambda rt: rt.restore_device("nope/gpu0"), "nope/gpu0", "device"),
        # a real node of the wrong kind is as unknown as a typo
        (lambda rt: rt.failures.fail_blade("server1", "test"), "server1", "memory_blade"),
        (lambda rt: rt.failures.restore_blade("nope"), "nope", "memory_blade"),
        (lambda rt: rt.failures.fail_dpu("server1", "test"), "server1", "disagg_device"),
        (lambda rt: rt.failures.restore_dpu("nope"), "nope", "disagg_device"),
    ]

    @pytest.mark.parametrize("strike,target,kind", UNKNOWN)
    def test_unknown_target_is_rejected_before_anything_changes(self, strike, target, kind):
        rt = pull_runtime()
        with pytest.raises(KeyError) as caught:
            strike(rt)
        assert repr(target) in str(caught.value) and kind in str(caught.value)
        failures = rt.failures
        assert not (failures.dead_nodes or failures.dead_devices or failures.dead_blades)
        assert len(rt.log) == 0
        assert rt.telemetry.registry.value("skadi_incidents_total", kind="node_dead") == 0
        assert all(dev.alive for dev in rt.cluster.all_devices())
        assert_recovery_drained(rt)

    def test_driver_kills_announce_past_a_detector_but_revivals_do_not(self):
        """With heartbeats on, ``fail_*`` is still the control plane's truth
        at once; a revived domain has to earn its way back with a real beat."""
        rt = ServerlessRuntime(
            build_physical_disagg(),
            RuntimeConfig(
                resolution=ResolutionMode.PULL,
                generation=Generation.GEN1,  # the card's raylet lives on its DPU
                heartbeat_interval=1e-3,
            ),
        )
        failures = rt.failures
        rt.fail_node("server1")
        rt.fail_device("gpucard1/gpu0")
        # blades and DPUs have no method on the runtime: strike the module
        failures.fail_blade("memblade0", "killed by driver", announce=True)
        failures.fail_dpu("gpucard0", "killed by driver", announce=True)
        assert failures.dead_nodes == {"server1"}
        assert failures.dead_devices == {"gpucard1/gpu0", "gpucard0/dpu"}
        assert failures.dead_blades == {"memblade0"}
        assert failures.takeovers == {"gpucard0": ["gpucard0/gpu0"]}
        rt.restart_node("server1")
        rt.restore_device("gpucard1/gpu0")
        failures.restore_blade("memblade0")
        failures.restore_dpu("gpucard0")
        assert all(dev.alive for dev in rt.cluster.all_devices())
        assert failures.dead_nodes == {"server1"}
        assert failures.dead_devices == {"gpucard1/gpu0", "gpucard0/dpu"}
        assert failures.dead_blades == {"memblade0"}
        assert rt.log.count("node_alive") == rt.log.count("device_alive") == 0
        assert_recovery_drained(rt)
