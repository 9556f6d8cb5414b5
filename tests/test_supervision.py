"""Attempt supervision (``repro.runtime.supervision``): retry, timeout and
speculation.

* **Cross-commit witness.**  Every way an attempt is retried, given up on, shed
  or backed up, pinned across commits in both resolution modes (recorded at the
  commit before supervision left ``ServerlessRuntime``).
* **A guard leaves the calendar with its attempt.**  The watchdog and the
  speculation timer are one calendar entry each; an attempt that fails takes
  its own along, a task that closes all of its (its backup's included), so a
  run drains at its last close.
* **One launch path.**  A speculative backup is dispatched like every other
  attempt, so it is pushed its arguments under PUSH, carries the leader's lease
  epoch under HA, gets the watchdog, and is never launched while no leader
  serves.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.caching.replication import ReplicationScheme
from repro.chaos import ChaosMonkey, ChaosSchedule
from repro.cluster.cluster import build_serverful
from repro.cluster.hardware import MB, DeviceKind
from repro.runtime import ResolutionMode, RuntimeConfig, ServerlessRuntime, TaskState
from repro.runtime.runtime import make_reliable_cache

import test_recovery
from asserts import assert_recovery_drained
from test_data_plane import assert_data_plane_drained
from test_recovery import outcome_of
from test_simtime import build_soak, drive_soak

GPU = frozenset({DeviceKind.GPU})
PUSH, PULL = ResolutionMode.PUSH, ResolutionMode.PULL
BOTH_MODES = pytest.mark.parametrize("mode", [PUSH, PULL], ids=lambda m: m.name)
TSAN = ("trace", "invariants", "hb")


class Counter:  # module-level: the reliable cache pickles actor state
    def __init__(self):
        self.n = 0


def bump(state):
    state.n += 1
    return state.n


def straggler_pair(mode, **overrides):
    """Motivation (a): ``server0/cpu`` runs 50x slow; a 1 MiB producer is
    pinned there and locality places its one consumer next to it.  The backup
    can only win by getting the argument onto ``server1/cpu``."""
    overrides.setdefault("speculation_factor", 4.0)
    rt = ServerlessRuntime(build_serverful(n_servers=2), RuntimeConfig(resolution=mode, **overrides))
    rt.cluster.device("server0/cpu").slowdown = 50.0
    data = rt.submit(
        lambda: 7, compute_cost=1e-4, output_nbytes=MB, pinned_device="server0/cpu",
        name="producer",
    )
    victim = rt.submit(lambda x: x + 1, (data,), compute_cost=1e-2, name="victim")
    return rt, data, victim


class TestCrossCommitWitness:
    """{retry after a crash with restart, watchdog retry on a straggler,
    retries exhausted, retry-budget shed, placement backoff until a device
    revives, an actor call requeued onto the restored actor, a backup that
    wins, a backup that loses} x {PUSH, PULL}."""

    # recorded at the commit before supervision left ServerlessRuntime (PR 18),
    # identical under two PYTHONHASHSEEDs.  Two cells are adapted: at that commit
    # a PUSH backup with an argument never got it (the fork this PR removed), so
    # (backup_wins, PUSH) and (backup_loses, *) run a task with no arguments.
    # Re-recorded when a task's phases stopped being child spans (the Chrome
    # export draws them): only span ids moved, every other span is equal.
    # (crash_restart, PUSH) and (placement_backoff, PUSH) were re-recorded when
    # an arrival signal stopped outliving its copy: the retry onto the
    # restarted node (revived GPU) is pushed the argument again, so
    # crash_restart returns 8 after 2 retries instead of giving up after 10
    # with "argument vanished", and placement_backoff pays the 1 MiB push it
    # used to skip by reading the node's CPU store.
    # The PUSH cells in which a push lands were re-recorded when a landing
    # started to send a ``land:`` message that the attempt it fed receives:
    # only the probe trace moved (one ``land`` event per landing, one receive).
    # (crash_restart, timeout_straggler, placement_backoff) x PUSH were
    # re-recorded when push became one protocol: probe sites
    # ``push:<oid>-><dev>`` became ``push:<oid>`` and push spans carry
    # ``consumers``; nothing else moved.
    # (placement_backoff) x both were re-recorded when the directory started
    # to record store ids: each GPU death drops its store's copies in one
    # ``own_drop_device`` event per entry where it used to sever the device
    # columns and then drop the node location in a second event; only the
    # probe trace moved.
    # All fourteen were re-recorded when the scheduler's running-task gauge
    # (``skadi_device_outstanding_tasks``) was deleted: only the metrics moved.
    PINNED = {
        ('crash_restart', 'PUSH'): "ba53ef5c59ef",
        ('crash_restart', 'PULL'): "59fae75a7ad5",
        ('timeout_straggler', 'PUSH'): "fcd4c9150133",
        ('timeout_straggler', 'PULL'): "d0aba2a0b766",
        ('retries_exhausted', 'PUSH'): "872605472467",
        ('retries_exhausted', 'PULL'): "872605472467",
        ('budget_shed', 'PUSH'): "342f13b9c753",
        ('budget_shed', 'PULL'): "342f13b9c753",
        ('placement_backoff', 'PUSH'): "112007469cce",
        ('placement_backoff', 'PULL'): "72d6771704a3",
        ('actor_requeue', 'PUSH'): "dd6e2702effe",
        ('actor_requeue', 'PULL'): "dd6e2702effe",
        ('backup_wins', 'PUSH'): "1b287c4ee9ca",
        ('backup_wins', 'PULL'): "daa687e845b6",
        ('backup_loses', 'PUSH'): "f04cb288a7d5",
        ('backup_loses', 'PULL'): "f04cb288a7d5",
    }

    @staticmethod
    def config(mode, **overrides) -> RuntimeConfig:
        base = dict(resolution=mode, max_retries=10, retry_backoff_base=2e-3, sanitizers=TSAN)
        base.update(overrides)
        return RuntimeConfig(**base)

    # log, protocol events, spans, metrics, clock, fabric counters, open tasks
    digest = staticmethod(test_recovery.TestCrossCommitWitness.digest)

    def consumer_on(self, rt, device_id, cost=1e-2):
        """A 1 MiB producer on the head and one consumer of it, pinned."""
        data = rt.submit(
            lambda: 7, compute_cost=1e-3, output_nbytes=MB, pinned_device="server0/cpu",
            name="producer",
        )
        return rt.submit(
            lambda x: x + 1, (data,), compute_cost=cost, pinned_device=device_id, name="victim"
        )

    # -- retries -----------------------------------------------------------------

    def crash_restart(self, mode):
        rt = ServerlessRuntime(build_serverful(n_servers=3), self.config(mode))
        ChaosMonkey(rt, ChaosSchedule().crash_node(4e-3, "server1", restart_after=6e-3)).arm()
        victim = self.consumer_on(rt, "server1/cpu")
        outcome = outcome_of(lambda: rt.get(victim))
        causes = [ev["cause"] for ev in rt.log.of_kind("task_retry")]
        # the crash, then a dead pinned device until the restart
        assert causes[:2] == ["node server1: chaos crash", "no live device for task task-000001"]
        return rt, outcome

    def timeout_straggler(self, mode):
        rt = ServerlessRuntime(
            build_serverful(n_servers=2),
            self.config(mode, task_timeout=2e-2, retry_backoff_base=1e-3),
        )
        ChaosMonkey(
            rt, ChaosSchedule().slow_device(0.0, "server1/cpu", 50.0, duration=3e-2)
        ).arm()
        victim = self.consumer_on(rt, "server1/cpu", cost=5e-3)
        outcome = outcome_of(lambda: rt.get(victim))
        assert rt.log.count("task_timeout") == 2 and rt.tasks_retried == 2
        return rt, outcome

    def retries_exhausted(self, mode):
        rt = ServerlessRuntime(
            build_serverful(n_servers=2),
            self.config(mode, max_retries=2, retry_backoff_base=1e-4),
        )
        # a partition that never heals: the pinned task can never be leased
        ChaosMonkey(rt, ChaosSchedule().partition(0.0, [["server1"]])).arm()
        victim = rt.submit(lambda: 1, compute_cost=1e-3, pinned_device="server1/cpu")
        outcome = outcome_of(lambda: rt.get(victim))
        assert "gave up after 2 retries" in outcome and rt.tasks_failed == 1
        return rt, outcome

    def budget_shed(self, mode):
        rt = ServerlessRuntime(
            build_serverful(n_servers=1),
            self.config(
                mode, task_timeout=1e-2, retry_backoff_base=1e-3,
                retry_budget=True, retry_budget_ratio=0.0, retry_budget_cap=3.0,
            ),
        )
        stuck = rt.submit(lambda: 1, compute_cost=1.0, name="stuck")  # >> the watchdog
        outcome = outcome_of(lambda: rt.get(stuck))
        assert "retry_budget_exhausted" in outcome and rt.tasks_retried == 3
        return rt, outcome

    def placement_backoff(self, mode):
        """Both GPUs die under the running task; every requeue finds no
        candidate (``PlacementError``) and backs off until one is revived."""
        rt = ServerlessRuntime(build_serverful(n_servers=2, gpus_per_server=1), self.config(mode))
        gpus = [d.device_id for d in rt.cluster.all_devices() if d.kind is DeviceKind.GPU]
        schedule = ChaosSchedule().fail_device(2e-3, gpus[0], recover_after=2e-2)
        schedule.fail_device(2e-3, gpus[1])
        ChaosMonkey(rt, schedule).arm()
        data = rt.submit(lambda: 7, compute_cost=1e-3, output_nbytes=MB, name="producer")
        victim = rt.submit(
            lambda x: x + 1, (data,), compute_cost=1.0, supported_kinds=GPU, name="victim"
        )
        outcome = outcome_of(lambda: rt.get(victim))
        causes = [ev["cause"] for ev in rt.log.of_kind("task_retry")]
        assert sum("no schedulable device" in c for c in causes) == 3  # each backed off
        return rt, outcome

    def actor_requeue(self, mode):
        cluster = build_serverful(n_servers=3)
        rt = ServerlessRuntime(
            cluster, self.config(mode),
            reliable_cache=make_reliable_cache(cluster, ReplicationScheme(2)),
        )
        actor = rt.create_actor(Counter, pinned_device="server1/cpu")
        assert rt.get(actor.call(bump)) == 1
        ChaosMonkey(rt, ChaosSchedule().crash_node(rt.sim.now + 3e-3, "server1")).arm()
        calls = [actor.call(bump, compute_cost=2e-3) for _ in range(4)]
        outcome = outcome_of(lambda: rt.get(calls))
        assert rt.actor_restarts == 1 and rt.tasks_retried >= 1
        assert actor.device_id != "server1/cpu"
        return rt, outcome

    # -- speculation -------------------------------------------------------------

    def backup_wins(self, mode):
        if mode is PULL:
            rt, _, victim = straggler_pair(mode, sanitizers=TSAN)
        else:
            rt = ServerlessRuntime(
                build_serverful(n_servers=2), self.config(mode, speculation_factor=4.0)
            )
            rt.cluster.device("server0/cpu").slowdown = 50.0
            victim = rt.submit(lambda: 8, compute_cost=1e-2, name="victim")
        outcome = outcome_of(lambda: rt.get(victim))
        assert rt.log.count("speculate") == 1
        assert rt.timeline_of(victim).device == "server1/cpu"
        return rt, outcome

    def backup_loses(self, mode):
        """The straggler is 5x slow and the only other device 3x: the backup
        starts at 4x and cannot finish before the original does."""
        rt = ServerlessRuntime(
            build_serverful(n_servers=2), self.config(mode, speculation_factor=4.0)
        )
        rt.cluster.device("server0/cpu").slowdown = 5.0
        rt.cluster.device("server1/cpu").slowdown = 3.0
        victim = rt.submit(lambda: 8, compute_cost=1e-2, name="victim")
        outcome = outcome_of(lambda: rt.get(victim))
        assert rt.log.count("speculate") == 1
        assert rt.timeline_of(victim).device == "server0/cpu"
        return rt, outcome

    SCENARIOS = (
        "crash_restart", "timeout_straggler", "retries_exhausted", "budget_shed",
        "placement_backoff", "actor_requeue", "backup_wins", "backup_loses",
    )

    @BOTH_MODES
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_supervision_path_replays_exactly(self, scenario, mode):
        rt, outcome = getattr(self, scenario)(mode)
        rt.sim.run()
        assert self.digest(rt, outcome) == self.PINNED[scenario, mode.name]
        assert_data_plane_drained(rt)
        assert_recovery_drained(rt)


class TestOneLaunchPath:
    """The two interactions the fork broke (each fails at the parent commit),
    and the two decisions going through ``_dispatch`` forces."""

    @BOTH_MODES
    def test_a_backup_gets_its_argument_in_both_modes(self, mode):
        rt, data, victim = straggler_pair(mode, sanitizers=TSAN)
        assert rt.get(victim) == 8
        tl = rt.timeline_of(victim)
        assert tl.device == "server1/cpu" and tl.latency < 0.1
        assert rt.log.count("speculate") == 1 and rt.tasks_finished == 2
        rt.sim.run()
        # nobody is left waiting on an arrival that will never come
        assert rt.data.arrivals == {}
        assert_data_plane_drained(rt)
        assert_recovery_drained(rt)
        assert rt.probe.report().clean  # Skadi-TSan: trace + invariants + hb

    @BOTH_MODES
    def test_a_backup_that_wins_leaves_its_own_timeline(self, mode):
        """The task span closes with the winning backup's milestones, not the
        straggler's with the winner's device and finish patched on; it is what
        ``timeline_of`` returns and ``rt.timelines`` records.  Before the fix
        ``timeline_of`` reported ``server1/cpu`` with the straggler's
        milestones (a 7.45 ms input stall under PUSH against the winner's
        0.048 ms)."""
        rt, _, victim = straggler_pair(mode)
        assert rt.get(victim) == 8
        tl = rt.timeline_of(victim)
        (recorded,) = [t for t in rt.timelines if t.attrs["task_id"] == victim.task_id]
        assert tl is recorded is rt.span_of(victim) and tl.device == "server1/cpu"
        # the backup's lease went out when it was launched, after the straggler's
        (speculate,) = rt.log.of_kind("speculate")
        assert speculate.time < tl.dispatched <= tl.inputs_ready <= tl.started < tl.end

    def test_a_backup_dispatched_before_the_commit_is_pushed_the_argument(self):
        """PUSH: the consumer is dispatched at submit, and its backup goes out
        while the 10 ms producer still computes.  The commit is pushed to both
        attempts' devices — a backup is a reader's attempt like the original —
        and the backup, on a device running at full speed, wins."""
        rt = ServerlessRuntime(
            build_serverful(n_servers=3),
            RuntimeConfig(resolution=PUSH, speculation_factor=4.0, sanitizers=TSAN),
        )
        data = rt.submit(
            lambda: 7, compute_cost=1e-2, output_nbytes=MB, pinned_device="server2/cpu",
            name="producer",
        )
        victim = rt.submit(lambda x: x + 1, (data,), compute_cost=1e-3, name="victim")
        rt.cluster.device("server0/cpu").slowdown = 50.0  # where the victim was placed
        assert rt.get(victim) == 8
        (speculate,) = rt.log.of_kind("speculate")
        assert dict(speculate.detail) == {
            "task": victim.task_id, "slow": "server0/cpu", "backup": "server1/cpu",
        }
        assert speculate.time < rt.timeline_of(data).end  # before the commit
        assert rt.timeline_of(victim).device == "server1/cpu"
        for device_id in ("server0/cpu", "server1/cpu"):
            # landed: the store is the one record, and the arrival went as it fired
            assert rt._store_of_device[device_id].contains(data.object_id)
            assert (data.object_id, device_id) not in rt.data.arrivals
        rt.sim.run()
        assert rt.tasks_finished == 2
        assert_data_plane_drained(rt)
        assert rt.probe.report().clean

    def test_a_backup_carries_the_leaders_lease_epoch(self):
        """HA with no failover at all: the backup's lease is stamped and logged
        like any other, so the raylet does not fence it as a deposed leader's."""
        rt = ServerlessRuntime(
            build_serverful(n_servers=3),
            RuntimeConfig(resolution=PULL, speculation_factor=4.0, ha_replicas=1),
        )
        # both other raylets have seen the serving leader's epoch
        warm = [rt.submit(lambda: 0, pinned_device=f"server{i}/cpu") for i in (1, 2)]
        rt.get(warm)
        rt.cluster.device("server0/cpu").slowdown = 50.0
        data = rt.submit(
            lambda: 7, compute_cost=1e-4, output_nbytes=MB, pinned_device="server0/cpu"
        )
        victim = rt.submit(lambda x: x + 1, (data,), compute_cost=1e-2, name="victim")
        assert rt.get(victim) == 8
        assert rt.log.count("speculate") == 1 and rt.log.count("ha_stale_lease_rejected") == 0
        tl = rt.timeline_of(victim)
        assert tl.device == "server1/cpu" and tl.latency < 0.1
        leases = [dict(rec.detail) for rec in rt.ha.wal if rec.kind == "lease"]
        task_id = rt._ctx_of_object[victim.object_id].spec.task_id
        assert [lease["device"] for lease in leases if lease["task"] == task_id] == [
            "server0/cpu", "server1/cpu",
        ]

    @pytest.mark.parametrize("backup_dies", [False, True], ids=["stuck", "struck_down"])
    def test_a_stuck_backup_is_timed_out_and_stands_down(self, backup_dies):
        """Timeout x speculation.  A backup's watchdog can only fire before
        the original's result if the original was re-dispatched meanwhile, so:
        the original times out and retries once both devices are healthy again,
        while the backup landed on a device just as slow and is still there
        (its slowdown was sampled at launch) when its own watchdog fires.  It
        records the timeout and stands down — nothing is retried on its
        account — and the original's second attempt finishes, on the backup's
        device: a retry leaves out the device it timed out on.  (A partition
        would not do: in both modes a transfer that does not land is a miss,
        which ends the backup at once.)  A backup that a fault already ended
        leaves nothing for its watchdog to do, and with its node dead the
        retry falls back to the device it timed out on, the only one left."""
        rt, data, victim = straggler_pair(
            PULL, task_timeout=5e-2, max_retries=2, retry_backoff_base=4e-2,
        )
        rt.cluster.device("server1/cpu").slowdown = 50.0
        for device in ("server0/cpu", "server1/cpu"):
            rt.sim.schedule(8e-2, setattr, rt.cluster.device(device), "slowdown", 1.0)
        if backup_dies:
            rt.sim.schedule(6e-2, rt.fail_node, "server1")
        assert rt.get(victim) == 8
        (launched,) = rt.log.of_kind("speculate")
        original, *backup = rt.log.of_kind("task_timeout")
        assert launched.time < original.time < 6e-2 and original["attempt"] == 1
        tl = rt.timeline_of(victim)
        assert tl.device == ("server0/cpu" if backup_dies else "server1/cpu")
        assert tl.end > launched.time + 5e-2
        if backup_dies:
            assert backup == []
        else:
            (backup,) = backup
            assert backup["attempt"] == 1 and backup.time == pytest.approx(launched.time + 5e-2)
        assert rt.tasks_retried == 1 and rt.tasks_failed == 0  # the original's timeout only
        assert_recovery_drained(rt)

    def test_no_backup_is_launched_while_no_leader_serves(self):
        """The speculation timer fires inside the leaderless window: the
        watcher stands down (the task's next dispatch arms a fresh one)
        instead of parking a backup that the failover would re-place."""
        rt = ServerlessRuntime(
            build_serverful(n_servers=4),
            RuntimeConfig(
                resolution=PULL, speculation_factor=4.0, ha_replicas=1,
                max_retries=10, retry_backoff_base=2e-3,
            ),
        )
        slow = rt.cluster.device("server2/cpu")  # never the head, never a standby
        slow.slowdown = 50.0
        data = rt.submit(
            lambda: 7, compute_cost=1e-4, output_nbytes=MB, pinned_device=slow.device_id
        )
        victim = rt.submit(lambda x: x + 1, (data,), compute_cost=1e-2, name="victim")
        ctx = rt._ctx_of_object[victim.object_id]
        while ctx.state is TaskState.PENDING:  # parked until the producer reports
            rt.run(until=rt.sim.peek())
        assert ctx.device is slow
        fires = rt.sim.now + 4.0 * (
            slow.spec.dispatch_overhead + slow.spec.scaled_duration(1e-2)
        )
        ChaosMonkey(rt, ChaosSchedule().fail_gcs(at=fires - 2e-3)).arm()
        assert rt.get(victim) == 8
        (killed,) = rt.log.of_kind("chaos_head_failure")
        (served,) = rt.log.of_kind("ha_failover_complete")
        assert killed.time < fires < served.time  # the timer fired with no leader
        assert rt.log.count("speculate") == 0
        assert rt._parked == [] and rt.timeline_of(victim).device == slow.device_id
        assert_recovery_drained(rt)


def armed(rt):
    """(guard, attempt) of every guard entry still on the calendar."""
    sim, entries = rt.sim, list(rt.sim._ring)
    for bucket in sim._buckets.values():
        entries.extend(bucket if type(bucket) is deque else [bucket])
    return sorted(
        (e[0].__name__, e[1][1])
        for e in entries
        if type(e) is tuple and getattr(e[0], "__name__", "") in ("_timed_out", "_straggling")
    )


class TestGuardsLeaveTheCalendar:
    def test_a_failed_attempts_guards_leave_with_its_task(self):
        """A failed attempt's guards stay filed (each fires to find its
        attempt over); the task's close takes every guard it still has."""
        rt = ServerlessRuntime(
            build_serverful(n_servers=3),
            RuntimeConfig(task_timeout=5e-2, speculation_factor=8.0, retry_backoff_base=1e-3),
        )
        ref = rt.submit(lambda: 1, compute_cost=1e-2, pinned_device="server1/cpu")
        rt.run(until=2e-3)
        assert armed(rt) == [("_straggling", 1), ("_timed_out", 1)]
        rt.fail_device("server1/cpu")
        rt.run(until=rt.sim.now)  # the interrupt lands: the attempt failed
        assert rt.log.count("task_retry") == 1
        assert armed(rt) == [("_straggling", 1), ("_timed_out", 1)]
        rt.restore_device("server1/cpu")
        assert rt.get(ref) == 1
        assert armed(rt) == [] and rt.supervisor._guards == {}
        assert rt.log.count("task_timeout") == 0 and rt.log.count("speculate") == 0

    def test_the_clock_stops_at_the_last_close(self):
        """Watchdogs, backups and retries with message loss and no
        heartbeats: once the last task closes nothing is left to dispatch,
        and ``get`` returns at that instant (0.0372 s; 0.0510 s while each
        guard kept its timer to the end)."""
        rt, closes = build_soak(None), []
        rt.on_task_closed.append(lambda ctx: closes.append((rt.sim.now, rt.sim.peek())))
        got = drive_soak(rt)
        counts = got[1]
        assert counts["task_timeout"] and counts["speculate"] and counts["task_retry"]
        last, pending = closes[-1]
        assert pending is None and rt.sim.peek() is None
        assert rt.sim.now == last == 0.03723312273369249
        assert rt.supervisor._guards == {}

    @BOTH_MODES
    def test_a_backups_guards_leave_with_its_task(self, mode):
        rt, _, victim = straggler_pair(mode, task_timeout=1.0)
        assert rt.get(victim) == 8 and rt.log.count("speculate") == 1
        assert armed(rt) == [] and rt.supervisor._guards == {}
        assert rt.sim.now < 1.0  # the original's watchdog left with the task

    def test_a_runtime_without_guards_files_nothing(self):
        rt = ServerlessRuntime(build_serverful(n_servers=2), RuntimeConfig(retry_backoff_base=1e-3))
        ChaosMonkey(rt, ChaosSchedule().crash_node(2e-3, "server1", restart_after=4e-3)).arm()
        refs = [
            rt.submit(lambda i=i: i, compute_cost=5e-3, pinned_device="server1/cpu")
            for i in range(2)
        ]
        assert rt.get(refs) == [0, 1] and rt.tasks_retried
        assert rt.on_task_closed == [] and rt.supervisor._guards == {}
