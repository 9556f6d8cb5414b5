"""Tests for repro.chaos: schedules, injection, detection, self-healing."""

from __future__ import annotations

import hashlib

import pytest

from repro.caching.replication import ReplicationScheme
from repro.chaos import (
    BladeFailure,
    ChaosMonkey,
    ChaosSchedule,
    DeviceFailure,
    DpuFailure,
    MessageLoss,
    NetworkPartition,
    NodeCrash,
    ScheduleValidationError,
    Straggler,
)
from repro.cluster.cluster import build_serverful
from repro.cluster.hardware import DeviceKind
from repro.runtime import ResolutionMode, RuntimeConfig, ServerlessRuntime
from repro.runtime.health import STALL_TICKS
from repro.runtime.runtime import make_reliable_cache

from asserts import assert_recovery_drained


def chaos_config(**overrides):
    """A runtime config tuned so retry budgets span the detection window."""
    base = dict(
        resolution=ResolutionMode.PULL,
        heartbeat_interval=1e-3,
        heartbeat_miss_threshold=3,
        max_retries=10,
        retry_backoff_base=2e-3,
    )
    base.update(overrides)
    return RuntimeConfig(**base)


def cpu_of(cluster, node_id):
    return cluster.node(node_id).first_of_kind(DeviceKind.CPU)


class TestChaosSchedule:
    def test_fluent_builders_validate(self):
        sched = ChaosSchedule()
        sched.crash_node(0.5, "server1", restart_after=0.2)
        sched.partition(0.3, [["server1", "server2"]], heal_after=0.1)
        sched.slow_device(0.1, "server0/cpu0", 8.0, duration=0.2)
        with pytest.raises(ValueError):
            sched.slow_device(0.1, "server0/cpu0", 0.5)
        with pytest.raises(ValueError):
            sched.degrade_link(0.1, "a", "b", 0.9)
        with pytest.raises(ValueError):
            sched.lose_messages(0.1, 1.5)
        assert len(sched) == 3

    def test_ordered_sorts_by_time(self):
        sched = (
            ChaosSchedule()
            .crash_node(0.9, "n1")
            .slow_device(0.1, "d0", 2.0)
            .partition(0.5, [["n1"]])
        )
        kinds = [type(f).__name__ for f in sched.ordered()]
        assert kinds == ["Straggler", "NetworkPartition", "NodeCrash"]

    def test_random_is_seed_deterministic(self):
        kwargs = dict(
            node_ids=["server1", "server2", "server3"],
            device_ids=["server1/cpu0", "server2/cpu0"],
            horizon=1.0,
            n_crashes=2,
            n_partitions=1,
            n_stragglers=1,
            message_loss_rate=0.1,
        )
        a = ChaosSchedule.random(7, **kwargs)
        b = ChaosSchedule.random(7, **kwargs)
        c = ChaosSchedule.random(8, **kwargs)
        assert a.ordered() == b.ordered()
        assert a.ordered() != c.ordered()
        assert sum(isinstance(f, NodeCrash) for f in a) == 2
        assert sum(isinstance(f, NetworkPartition) for f in a) == 1
        assert sum(isinstance(f, Straggler) for f in a) == 1
        assert sum(isinstance(f, MessageLoss) for f in a) == 1

    def test_random_needs_nodes(self):
        with pytest.raises(ValueError):
            ChaosSchedule.random(1, node_ids=[], horizon=1.0)

    def test_random_draws_device_granular_faults(self):
        kwargs = dict(
            node_ids=["server1"],
            device_ids=["gpucard0/gpu0"],
            horizon=1.0,
            n_crashes=0,
            n_partitions=0,
            n_stragglers=0,
            n_device_failures=2,
            blade_ids=["memblade0"],
            n_blade_failures=1,
            dpu_ids=["gpucard0"],
            n_dpu_failures=1,
        )
        a = ChaosSchedule.random(5, **kwargs)
        assert a.ordered() == ChaosSchedule.random(5, **kwargs).ordered()
        assert sum(isinstance(f, DeviceFailure) for f in a) == 2
        assert sum(isinstance(f, BladeFailure) for f in a) == 1
        assert sum(isinstance(f, DpuFailure) for f in a) == 1

    def test_new_fault_draws_do_not_perturb_old_seeds(self):
        """Device-granular draws are appended last, so a legacy seed with
        the new counts at zero yields the bit-identical legacy schedule."""
        kwargs = dict(
            node_ids=["server1", "server2"],
            device_ids=["server1/cpu"],
            horizon=1.0,
            n_crashes=2,
            n_stragglers=1,
        )
        legacy = ChaosSchedule.random(7, **kwargs)
        extended = ChaosSchedule.random(
            7, n_device_failures=0, n_blade_failures=0, n_dpu_failures=0, **kwargs
        )
        assert legacy.ordered() == extended.ordered()


class TestScheduleValidation:
    """Satellite: malformed schedules fail loudly at ``arm()`` time."""

    def test_negative_injection_time_rejected(self):
        sched = ChaosSchedule().crash_node(-0.1, "server1")
        with pytest.raises(ScheduleValidationError, match="negative injection time"):
            sched.validate()

    def test_non_positive_recovery_window_rejected(self):
        for sched in (
            ChaosSchedule().fail_device(0.1, "d0", recover_after=0.0),
            ChaosSchedule().fail_blade(0.1, "b0", recover_after=-1e-3),
            ChaosSchedule().fail_dpu(0.1, "c0", recover_after=0.0),
            ChaosSchedule().crash_node(0.1, "n0", restart_after=-0.5),
        ):
            with pytest.raises(ScheduleValidationError, match="must be > 0"):
                sched.validate()

    def test_unknown_node_rejected_at_arm(self):
        rt = ServerlessRuntime(build_serverful(n_servers=2), chaos_config())
        sched = ChaosSchedule().crash_node(1e-3, "server9")
        with pytest.raises(ScheduleValidationError, match="unknown node 'server9'"):
            ChaosMonkey(rt, sched).arm()

    def test_unknown_device_rejected_at_arm(self):
        rt = ServerlessRuntime(build_serverful(n_servers=2), chaos_config())
        sched = ChaosSchedule().fail_device(1e-3, "server0/tpu0")
        with pytest.raises(ScheduleValidationError, match="unknown device"):
            ChaosMonkey(rt, sched).arm()

    def test_unknown_blade_and_partition_member_rejected(self):
        rt = ServerlessRuntime(build_serverful(n_servers=2), chaos_config())
        with pytest.raises(ScheduleValidationError, match="unknown node"):
            ChaosMonkey(rt, ChaosSchedule().fail_blade(1e-3, "memblade7")).arm()
        with pytest.raises(ScheduleValidationError, match="unknown node"):
            ChaosMonkey(rt, ChaosSchedule().partition(1e-3, [["ghost"]])).arm()

    def test_valid_schedule_arms_and_nothing_fires_early(self):
        rt = ServerlessRuntime(build_serverful(n_servers=2), chaos_config())
        sched = (
            ChaosSchedule()
            .crash_node(1.0, "server1", restart_after=0.1)
            .fail_device(1.0, "server1/cpu", recover_after=0.1)
        )
        monkey = ChaosMonkey(rt, sched).arm()
        assert rt.get(rt.submit(lambda: 1, compute_cost=1e-3)) == 1
        # the faults fired at their pinned times, long after the workload
        assert all(fault.at == 1.0 for fault in monkey.injected)

    def test_id_checks_skipped_without_directory(self):
        # a schedule validated standalone (no cluster directory) still gets
        # the structural checks, but unknown-id checks need the monkey
        sched = ChaosSchedule().fail_device(0.1, "anything/goes")
        sched.validate()  # no error: ids unchecked
        with pytest.raises(ScheduleValidationError):
            sched.validate(device_ids=["real/device"])


class TestHeartbeatDetection:
    def test_crash_is_detected_not_announced(self):
        """A chaos crash tells the control plane nothing; heartbeats do."""
        rt = ServerlessRuntime(build_serverful(n_servers=3), chaos_config())
        monkey = ChaosMonkey(rt, ChaosSchedule().crash_node(2e-3, "server1")).arm()
        refs = [
            rt.submit(lambda i=i: i * i, compute_cost=5e-3, name=f"sq{i}")
            for i in range(12)
        ]
        assert rt.get(refs) == [i * i for i in range(12)]
        assert rt.tasks_failed == 0
        assert rt.log.count("node_suspected") >= 1
        assert rt.log.of_kind("node_suspected")[0]["node"] == "server1"
        # the only node_dead verdicts came from the detector, not the driver
        assert all(
            ev["cause"] == "missed heartbeats" for ev in rt.log.of_kind("node_dead")
        )
        assert rt.scheduler.is_blacklisted(cpu_of(rt.cluster, "server1").device_id)
        assert rt.health is not None and rt.health.beats_received > 0
        assert monkey.injected  # the crash actually fired

    def test_miss_threshold_sets_the_detection_delay(self):
        """Suspicion lands ``miss_threshold`` silent intervals after the
        crash: a threshold of 1 suspects two intervals before 3 does."""

        def suspected_at(miss_threshold):
            rt = ServerlessRuntime(
                build_serverful(n_servers=3),
                chaos_config(heartbeat_miss_threshold=miss_threshold),
            )
            ChaosMonkey(rt, ChaosSchedule().crash_node(2e-3, "server1")).arm()
            refs = [
                rt.submit(lambda i=i: i * i, compute_cost=5e-3, name=f"sq{i}")
                for i in range(12)
            ]
            assert rt.get(refs) == [i * i for i in range(12)]
            first = rt.log.of_kind("node_suspected")[0]
            assert first["node"] == "server1"
            return first.time

        interval = chaos_config().heartbeat_interval
        assert suspected_at(3) - suspected_at(1) == pytest.approx(2 * interval)

    def test_restarted_node_is_unsuspected_by_a_beat(self):
        rt = ServerlessRuntime(build_serverful(n_servers=3), chaos_config())
        schedule = ChaosSchedule().crash_node(2e-3, "server1", restart_after=6e-3)
        ChaosMonkey(rt, schedule).arm()
        refs = [
            rt.submit(lambda i=i: i + 100, compute_cost=2e-2, name=f"t{i}")
            for i in range(9)
        ]
        assert rt.get(refs) == [i + 100 for i in range(9)]
        assert rt.log.count("node_suspected") >= 1
        assert rt.log.count("node_unsuspected") >= 1
        assert not rt.scheduler.is_blacklisted(cpu_of(rt.cluster, "server1").device_id)

    def test_heartbeats_pay_for_messages(self):
        rt = ServerlessRuntime(build_serverful(n_servers=2), chaos_config())
        ref = rt.submit(lambda: 1, compute_cost=1e-2)
        assert rt.get(ref) == 1
        assert rt.health.beats_sent > 0
        # heartbeats ride the same accounted control plane as everything else
        assert rt.net.stats.messages > rt.health.beats_sent

    def test_idle_heartbeat_rounds_are_all_sent(self):
        """One long task on a quiet cluster: every idle round is simulated,
        one beat per raylet per round, until the stall guard parks the
        detector ``STALL_TICKS`` monitor ticks in; nobody is suspected."""
        rt = ServerlessRuntime(build_serverful(n_servers=3), chaos_config())
        assert rt.get(rt.submit(lambda: 42, compute_cost=0.5, name="long")) == 42
        assert rt.log.count("node_suspected") == 0
        (parked,) = rt.log.of_kind("detector_stalled")
        assert parked["ticks"] == STALL_TICKS
        interval = rt.config.heartbeat_interval
        assert parked.time == pytest.approx(STALL_TICKS * interval)
        senders = len(rt.health.monitored_nodes())
        # a remote beat's round also pays its message time, so a remote
        # raylet may fall a round behind the monitor before it parks
        assert senders * (STALL_TICKS - 2) <= rt.health.beats_sent <= senders * STALL_TICKS
        assert rt.health.beats_received == rt.health.beats_sent

    def test_heartbeats_off_by_default(self):
        rt = ServerlessRuntime(
            build_serverful(n_servers=2),
            RuntimeConfig(resolution=ResolutionMode.PULL),
        )
        assert rt.health is None
        assert rt.get(rt.submit(lambda: 5)) == 5


class TestRetriesUnderChaos:
    def test_partition_drops_leases_until_heal(self):
        rt = ServerlessRuntime(
            build_serverful(n_servers=2),
            RuntimeConfig(
                resolution=ResolutionMode.PULL, max_retries=10, retry_backoff_base=2e-3
            ),
        )
        schedule = ChaosSchedule().partition(0.0, [["server1"]], heal_after=5e-3)
        ChaosMonkey(rt, schedule).arm()
        cpu1 = cpu_of(rt.cluster, "server1")
        ref = rt.submit(
            lambda: "made it", compute_cost=1e-3, pinned_device=cpu1.device_id
        )
        assert rt.get(ref) == "made it"
        assert rt.tasks_retried >= 1
        assert rt.net.stats.dropped_messages >= 1
        assert not rt.net.partitioned  # healed

    def test_message_loss_is_absorbed_by_retries(self):
        rt = ServerlessRuntime(
            build_serverful(n_servers=2),
            RuntimeConfig(
                resolution=ResolutionMode.PULL, max_retries=10, retry_backoff_base=2e-3
            ),
        )
        schedule = ChaosSchedule().lose_messages(0.0, 0.7, duration=1e-2, seed=99)
        ChaosMonkey(rt, schedule).arm()
        refs = [
            rt.submit(lambda i=i: i * 3, compute_cost=2e-3, name=f"m{i}")
            for i in range(6)
        ]
        assert rt.get(refs) == [i * 3 for i in range(6)]
        assert rt.net.stats.dropped_messages >= 1
        assert rt.tasks_failed == 0

    def test_retries_exhaust_into_permanent_failure(self):
        from repro.runtime import TaskError

        rt = ServerlessRuntime(
            build_serverful(n_servers=2),
            RuntimeConfig(
                resolution=ResolutionMode.PULL, max_retries=2, retry_backoff_base=1e-4
            ),
        )
        # a partition that never heals: the pinned task can never be leased
        ChaosMonkey(rt, ChaosSchedule().partition(0.0, [["server1"]])).arm()
        cpu1 = cpu_of(rt.cluster, "server1")
        ref = rt.submit(lambda: 1, compute_cost=1e-3, pinned_device=cpu1.device_id)
        with pytest.raises(TaskError, match="gave up after 2 retries"):
            rt.get(ref)
        assert rt.tasks_failed == 1
        assert rt.log.count("task_failed") == 1


class TestStragglersAndSpeculation:
    def test_speculative_copy_beats_straggler(self):
        rt = ServerlessRuntime(
            build_serverful(n_servers=2),
            RuntimeConfig(resolution=ResolutionMode.PULL, speculation_factor=4.0),
        )
        slow = cpu_of(rt.cluster, "server0")
        ChaosMonkey(rt, ChaosSchedule().slow_device(0.0, slow.device_id, 50.0)).arm()
        ref = rt.submit(lambda: "answer", compute_cost=5e-3, name="victim")
        assert rt.get(ref) == "answer"
        assert rt.log.count("speculate") == 1
        tl = rt.timeline_of(ref)
        # the backup finished in ~1x task time, nowhere near the 50x straggle
        assert tl.finished < 5e-3 * 10
        assert tl.device_id != slow.device_id
        assert rt.tasks_finished == 1  # the loser did not double-count

    def test_no_speculation_without_straggle(self):
        rt = ServerlessRuntime(
            build_serverful(n_servers=2),
            RuntimeConfig(resolution=ResolutionMode.PULL, speculation_factor=4.0),
        )
        refs = [rt.submit(lambda i=i: i, compute_cost=1e-3) for i in range(4)]
        assert rt.get(refs) == [0, 1, 2, 3]
        assert rt.log.count("speculate") == 0

    def test_task_timeout_interrupts_and_retries(self):
        rt = ServerlessRuntime(
            build_serverful(n_servers=2),
            RuntimeConfig(
                resolution=ResolutionMode.PULL,
                task_timeout=2e-2,
                max_retries=3,
                retry_backoff_base=1e-4,
            ),
        )
        slow = cpu_of(rt.cluster, "server0")
        # straggle ends after 30ms: attempt 1 times out at 20ms, the retry
        # lands after the device recovered and completes at full speed
        sched = ChaosSchedule().slow_device(0.0, slow.device_id, 100.0, duration=3e-2)
        ChaosMonkey(rt, sched).arm()
        ref = rt.submit(
            lambda: "eventually", compute_cost=5e-3, pinned_device=slow.device_id
        )
        assert rt.get(ref) == "eventually"
        assert rt.log.count("task_timeout") >= 1
        assert rt.tasks_retried >= 1


class TestActorReconstruction:
    class _Auditor:
        def __init__(self):
            self.seen = set()

    @staticmethod
    def _mark(state, i):
        state.seen.add(i)  # idempotent: at-least-once re-execution is safe
        return len(state.seen)

    @staticmethod
    def _size(state):
        return len(state.seen)

    class _Counter:
        def __init__(self):
            self.n = 0

    @staticmethod
    def _bump(state):
        state.n += 1
        return state.n

    def _runtime(self, **overrides):
        cluster = build_serverful(n_servers=3)
        cache = make_reliable_cache(cluster, ReplicationScheme(2))
        return ServerlessRuntime(cluster, chaos_config(**overrides), reliable_cache=cache)

    @pytest.mark.parametrize(
        "every,resumes_at",
        [
            (0, 1),  # checkpointing off: only the creation-time state survives
            (1, 4),  # checkpointed after call 3
            (2, 3),  # checkpointed after call 2; call 3 is lost with the node
        ],
    )
    def test_checkpoint_cadence(self, every, resumes_at):
        rt = self._runtime(actor_checkpoint_every=every)
        actor = rt.create_actor(
            self._Counter, pinned_device=cpu_of(rt.cluster, "server1").device_id
        )
        for expected in (1, 2, 3):
            assert rt.get(actor.call(self._bump)) == expected
        rt.fail_node("server1")
        assert rt.get(actor.call(self._bump)) == resumes_at
        assert rt.actor_restarts == 1

    def test_actor_restarts_from_checkpoint_on_surviving_node(self):
        rt = self._runtime()
        home = cpu_of(rt.cluster, "server1")
        actor = rt.create_actor(self._Auditor, pinned_device=home.device_id)
        ChaosMonkey(rt, ChaosSchedule().crash_node(5e-3, "server1")).arm()
        refs = [actor.call(self._mark, i, compute_cost=2e-3) for i in range(10)]
        rt.get(refs)
        assert rt.get(actor.call(self._size)) == 10  # no marks lost
        assert rt.actor_restarts == 1
        assert rt.log.count("actor_restart") == 1
        new_home = actor.device_id
        assert rt.cluster.node_of_device(new_home).node_id != "server1"
        assert not rt.actors.dead

    def test_actor_dies_without_checkpoint(self):
        from repro.runtime import TaskError

        rt = ServerlessRuntime(build_serverful(n_servers=3), chaos_config())
        home = cpu_of(rt.cluster, "server1")
        actor = rt.create_actor(self._Auditor, pinned_device=home.device_id)
        ChaosMonkey(rt, ChaosSchedule().crash_node(2e-3, "server1")).arm()
        ref = actor.call(self._mark, 1, compute_cost=2e-2)
        with pytest.raises(TaskError, match="actor .* is dead"):
            rt.get(ref)
        assert actor.actor_id in rt.actors.dead
        assert rt.log.count("actor_dead") == 1


class TestDeterminism:
    def _soak(self, seed, heartbeat_interval=1e-3):
        cluster = build_serverful(n_servers=3)
        cache = make_reliable_cache(cluster, ReplicationScheme(2))
        rt = ServerlessRuntime(
            cluster,
            chaos_config(heartbeat_interval=heartbeat_interval),
            reliable_cache=cache,
        )
        schedule = ChaosSchedule.random(
            seed,
            node_ids=["server1", "server2"],
            device_ids=[cpu_of(cluster, "server2").device_id],
            horizon=2e-2,
            n_crashes=1,
            n_partitions=1,
            n_stragglers=1,
        )
        ChaosMonkey(rt, schedule).arm()
        lanes = []
        for lane in range(4):
            ref = rt.submit(lambda lane=lane: lane, compute_cost=3e-3)
            for _ in range(3):
                ref = rt.submit(lambda x: x + 1, (ref,), compute_cost=3e-3)
            lanes.append(ref)
        total = rt.submit(lambda *xs: sum(xs), tuple(lanes), compute_cost=1e-3)
        assert rt.get(total) == sum(lane + 3 for lane in range(4))
        return rt.log.signature(), rt.sim.now

    def test_same_seed_same_event_trace(self):
        sig_a, now_a = self._soak(42)
        sig_b, now_b = self._soak(42)
        assert sig_a == sig_b
        assert now_a == now_b

    def test_different_seed_different_trace(self):
        sig_a, _ = self._soak(42)
        sig_c, _ = self._soak(43)
        assert sig_a != sig_c

    @pytest.mark.parametrize(
        "heartbeat_interval,digest",
        # recorded at the commit before failure domains left ServerlessRuntime
        # (PR 14).  The detector-less row is the only pin on an omniscient
        # NodeCrash interrupting twice (retries log cause "chaos crash").
        [(1e-3, "da43b8793f65"), (None, "e74685497642")],
    )
    def test_signature_is_pinned_across_commits(self, heartbeat_interval, digest):
        sig, _ = self._soak(42, heartbeat_interval)
        assert hashlib.sha1(repr(sig).encode()).hexdigest()[:12] == digest


class TestTimedLinkDegradation:
    """A ``LinkDegradation`` with a ``duration`` ends: the monkey logs
    ``chaos_link_restored`` and the flow in flight re-rates at once."""

    START, DURATION, FACTOR = 1e-3, 2e-3, 8.0
    NBYTES = 64 << 20  # ~5 ms on the uncontended route

    def _landing(self, duration, degrade=True):
        rt = ServerlessRuntime(build_serverful(n_servers=2), RuntimeConfig())
        schedule = ChaosSchedule()
        if degrade:
            schedule.degrade_link(
                self.START, "server0/cpu", "tor-switch", self.FACTOR, duration=duration
            )
        ChaosMonkey(rt, schedule).arm()
        landed = []

        def mover():
            yield rt.net.transfer("server0/cpu", "server1/cpu", self.NBYTES)
            landed.append(rt.sim.now)

        rt.sim.process(mover())
        rt.sim.run()
        assert not rt.net.flows
        return rt, landed[0]

    def test_restore_is_logged_at_start_plus_duration(self):
        rt, _ = self._landing(self.DURATION)
        (restored,) = rt.log.of_kind("chaos_link_restored")
        assert restored.time == pytest.approx(self.START + self.DURATION)
        assert (restored["a"], restored["b"]) == ("server0/cpu", "tor-switch")
        assert rt.cluster.topology.degradation("server0/cpu", "tor-switch") == 1.0

    def test_without_a_duration_the_link_stays_degraded(self):
        rt, _ = self._landing(None)
        assert not rt.log.of_kind("chaos_link_restored")
        assert rt.cluster.topology.degradation("server0/cpu", "tor-switch") == self.FACTOR

    def test_a_flow_in_flight_re_rates_on_restore(self):
        _, clean = self._landing(None, degrade=False)
        rt, timed = self._landing(self.DURATION)
        _, degraded = self._landing(None)
        # the restore lands mid-flow, so the flow is only partly slowed
        assert self.START + self.DURATION < clean
        assert clean < timed < degraded
        # for DURATION the slowed hop ran at 1/FACTOR of its rate
        assert timed == pytest.approx(clean + self.DURATION * (1 - 1 / self.FACTOR))


class TestReactiveInjection:
    def test_crash_on_object_ready_fires_once(self):
        rt = ServerlessRuntime(build_serverful(n_servers=3), chaos_config())
        monkey = ChaosMonkey(rt, ChaosSchedule())
        monkey.arm()
        a = rt.submit(lambda: 1, compute_cost=2e-3, name="trigger")
        monkey.crash_on_object_ready(a.object_id, "server2")
        b = rt.submit(lambda x: x + 1, (a,), compute_cost=2e-3)
        assert rt.get(b) == 2
        crashes = [f for f in monkey.injected if isinstance(f, NodeCrash)]
        assert len(crashes) == 1 and crashes[0].node_id == "server2"

    def test_double_arm_rejected(self):
        rt = ServerlessRuntime(build_serverful(n_servers=2), chaos_config())
        monkey = ChaosMonkey(rt, ChaosSchedule())
        monkey.arm()
        with pytest.raises(RuntimeError):
            monkey.arm()


class TestPullOutlivesItsAttempt:
    """Regression: a retry clears ``ctx.raylet``/``ctx.device`` while the
    attempt's pull processes are still in flight.  The orphan used to die in
    ``_pull_inner``'s ``finally`` (AttributeError on ``None.end_fetch``), or
    copy from a source store a crash emptied during the transfer (an untyped
    KeyError) — about 6 % of ``ChaosSchedule.random`` seeds on this episode."""

    LANES, DEPTH, TASK_COST, SERVERS = 16, 20, 4e-3, 4

    @pytest.mark.parametrize("schedule_seed", [6, 22, 25])
    def test_soak_episode_survives_orphaned_pulls(self, schedule_seed):
        cluster = build_serverful(n_servers=self.SERVERS)
        rt = ServerlessRuntime(
            cluster,
            chaos_config(speculation_factor=4.0, actor_checkpoint_every=1),
            reliable_cache=make_reliable_cache(cluster, ReplicationScheme(2)),
        )
        fallible = [f"server{i}" for i in range(1, self.SERVERS)]  # never the head
        schedule = ChaosSchedule.random(
            schedule_seed,
            node_ids=fallible,
            device_ids=[f"{node}/cpu" for node in fallible],
            horizon=self.DEPTH * self.TASK_COST,
            n_crashes=2,
            n_partitions=1,
            n_stragglers=1,
        )
        ChaosMonkey(rt, schedule).arm()
        # home the auditor on a node the schedule will crash
        victim = next(f.node_id for f in schedule if isinstance(f, NodeCrash))
        auditor = rt.create_actor(
            TestActorReconstruction._Auditor,
            pinned_device=cpu_of(cluster, victim).device_id,
        )
        tails = []
        for lane in range(self.LANES):
            ref = rt.submit(lambda v=lane: v, compute_cost=self.TASK_COST)
            for _ in range(self.DEPTH - 1):
                ref = rt.submit(lambda x: x + 1, (ref,), compute_cost=self.TASK_COST)
            tails.append(ref)
        total = rt.submit(lambda *xs: sum(xs), tuple(tails), compute_cost=1e-3)
        marks = [
            auditor.call(TestActorReconstruction._mark, lane, compute_cost=1e-3)
            for lane in range(self.LANES)
        ]
        closed_form = sum(range(self.LANES)) + self.LANES * (self.DEPTH - 1)
        assert rt.get(total, timeout=60.0) == closed_form
        rt.get(marks, timeout=60.0)
        size = auditor.call(TestActorReconstruction._size, compute_cost=1e-3)
        assert rt.get(size, timeout=60.0) == self.LANES
        assert rt.tasks_failed == 0
        assert all(not raylet._inflight_fetches for raylet in rt._raylets)
        assert rt.log.count("detector_stalled") == 0  # a stall is a bug, not a recovery path
        assert_recovery_drained(rt)
