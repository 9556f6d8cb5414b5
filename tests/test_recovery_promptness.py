"""No recovery waits for the detector's stall guard.

Two halves, each failing at the commit before them.  A node-death verdict
hands its lost list to recovery like every other death verdict, so an object an
open task still reads comes back *at the verdict*; and the attempt that
committed a result closes its task however its announcement ends, so a commit
never outlives its attempt with nobody left to finish (or replay) the task.
The soak episodes are the ledger's ``chaos_soak`` shape at the schedule seeds
that used to stall twice, leak a task, or — with no reliable cache — end in
``UnrecoverableObjectError``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.caching.replication import ReplicationScheme
from repro.chaos import ChaosMonkey
from repro.cluster.cluster import build_serverful
from repro.cluster.hardware import MB
from repro.runtime import ResolutionMode, RuntimeConfig, ServerlessRuntime
from repro.runtime.local import LocalRuntime
from repro.runtime.runtime import make_reliable_cache
from repro.runtime.task import TaskState

from asserts import assert_recovery_drained

BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

from ledger import workloads  # noqa: E402

PUSH, PULL = ResolutionMode.PUSH, ResolutionMode.PULL
HEAD = "server0/cpu"  # never crashed: consumers and restores live here


def detecting_runtime(mode=PULL, cached=True, **overrides) -> ServerlessRuntime:
    """Heartbeats on, retry budget spanning the detection window, and the
    head's CPU kept busy.  The clock stops while the busy task's lease is
    still in flight to the head (sent at an earlier instant, not yet
    handled), so locality prices that queue and the next unpinned task lands
    on ``server1``; a running task is no queue."""
    cluster = build_serverful(n_servers=3)
    config = dict(
        resolution=mode,
        heartbeat_interval=1e-3,
        heartbeat_miss_threshold=3,
        max_retries=10,
        retry_backoff_base=2e-3,
    )
    config.update(overrides)
    rt = ServerlessRuntime(
        cluster,
        RuntimeConfig(**config),
        reliable_cache=make_reliable_cache(cluster, ReplicationScheme(2)) if cached else None,
    )
    rt.submit(lambda: 0, compute_cost=5e-3, pinned_device=HEAD)
    rt.run(until=1e-5)
    return rt


def times_of(rt, kind, **detail):
    return [
        ev.time
        for ev in rt.log.of_kind(kind)
        if all(dict(ev.detail).get(k) == v for k, v in detail.items())
    ]


def assert_recovered_at_the_verdict(rt, ref, cached):
    """The loss was repaired in the verdict's own instant, by the mechanism
    the runtime was given, and the stall guard never fired."""
    (verdict,) = times_of(rt, "node_dead")
    oid = ref.object_id
    assert times_of(rt, "proactive_recovery", object=oid) == [verdict]
    if cached:
        assert times_of(rt, "object_recovered", object=oid, source="reliable_cache") == [verdict]
        assert rt.lineage.replays == 0
    else:
        assert times_of(rt, "lineage_replay", target=oid) == [verdict]
        assert times_of(rt, "object_recovered", object=oid, source="lineage") == [verdict]
    assert rt.log.count("detector_stalled") == 0


class TestNodeDeathRecoversAtTheVerdict:
    @pytest.mark.parametrize("cached", [True, False], ids=["cache", "lineage"])
    @pytest.mark.parametrize("mode", [PULL, PUSH], ids=lambda m: m.name)
    def test_only_copy_dies_under_a_waiting_consumer(self, mode, cached):
        with LocalRuntime(max_workers=2) as oracle:
            parts = (oracle.submit(lambda: 20), oracle.submit(lambda: 22))
            expected = oracle.get(oracle.submit(lambda x, y: x + y, parts))
        rt = detecting_runtime(mode, cached)
        lost = rt.submit(lambda: 20, compute_cost=1e-3)
        # spans crash + detection, and keeps the consumer waiting (parked under PULL)
        slow = rt.submit(lambda: 22, compute_cost=30e-3, pinned_device="server2/cpu")
        rt.run(until=4e-3)
        assert rt.timeline_of(lost).device == "server1/cpu"
        assert rt.ownership.locations(lost.object_id) == ["server1/cpu"]
        rt.failures.fail_node("server1", "crashed by the test")  # detection must earn the verdict
        consumer = rt.submit(
            lambda x, y: x + y, (lost, slow), compute_cost=1e-3, pinned_device="server2/cpu"
        )
        assert rt.get(consumer, timeout=10.0) == expected
        assert_recovered_at_the_verdict(rt, lost, cached)
        assert rt.timeline_of(consumer).end < 0.05
        assert_recovery_drained(rt)


class TestTheCommitterClosesItsTask:
    """An attempt interrupted between ``mark_ready`` and its ``done`` report."""

    @staticmethod
    def producer_in_its_commit_window(rt, args=()):
        """A 64 MB result makes the announcement (cache write, ``done``) long;
        stop the clock right after the commit point."""
        ref = rt.submit(lambda *_: 20, args, compute_cost=1e-3, output_nbytes=64 * MB)
        consumer = rt.submit(lambda x: x + 22, (ref,), compute_cost=1e-3, pinned_device=HEAD)
        while not rt.ownership.is_ready(ref.object_id):
            rt.run(until=rt.sim.peek())
        main = rt._ctx_of_object[ref.object_id]
        assert main.state is TaskState.RUNNING and not main.done.triggered
        return ref, consumer, main

    @pytest.mark.parametrize("cached", [True, False], ids=["cache", "lineage"])
    def test_node_crash_inside_the_window(self, cached):
        rt = detecting_runtime(cached=cached)
        ref, consumer, main = self.producer_in_its_commit_window(rt)
        assert main.device.device_id == "server1/cpu"
        rt.failures.fail_node("server1", "crashed by the test")
        assert rt.get(consumer, timeout=10.0) == 42
        assert main.state is TaskState.FINISHED and main.done.triggered
        assert_recovered_at_the_verdict(rt, ref, cached)
        # busy + producer + consumer, and the producer once more when replayed
        assert rt.tasks_finished == (3 if cached else 4)
        assert_recovery_drained(rt)

    @pytest.mark.parametrize("cached", [True, False], ids=["cache", "lineage"])
    def test_a_clone_commits_and_dies_while_its_original_straggles(self, cached):
        """The producer reads an input with copies on ``server1`` and
        ``server2``: it lands on the first, and its backup on the other copy,
        not on the head, which would have to move the input."""
        rt = detecting_runtime(cached=cached, speculation_factor=4.0)
        seed = rt.submit(lambda: 0, compute_cost=1e-3, pinned_device="server2/cpu")
        rt.get(rt.submit(lambda x: x, (seed,), compute_cost=1e-3, pinned_device="server1/cpu"))
        assert rt.ownership.locations(seed.object_id) == ["server1/cpu", "server2/cpu"]
        rt.cluster.device("server1/cpu").slowdown = 500.0  # the original: 0.5 s
        ref, consumer, main = self.producer_in_its_commit_window(rt, (seed,))
        assert main.device.device_id == "server1/cpu"
        assert main.twin.device.device_id == "server2/cpu"
        rt.failures.fail_node("server2", "crashed by the test")
        assert rt.get(consumer, timeout=10.0) == 42
        assert main.state is TaskState.FINISHED and main.done.triggered
        assert_recovered_at_the_verdict(rt, ref, cached)
        assert rt.timeline_of(consumer).end < 0.05  # not the straggler's 0.5 s
        # busy + the input's two tasks + producer + consumer, and the producer
        # once more when replayed
        assert rt.tasks_finished == (5 if cached else 6)
        assert_recovery_drained(rt)

    @pytest.mark.parametrize("cached", [True, False], ids=["cache", "lineage"])
    def test_an_announced_crash_revokes_the_commit_before_the_interrupt_lands(self, cached):
        """No detector: the strike is its own verdict, so the copy is LOST (and,
        with a cache, already restored) when the attempt learns it was
        interrupted.  A restored commit still closes its task; a revoked one is
        a failed attempt like any other and the producer retries elsewhere."""
        rt = detecting_runtime(cached=cached, heartbeat_interval=None)
        ref, consumer, main = self.producer_in_its_commit_window(rt)
        rt.fail_node("server1")
        assert rt.get(consumer, timeout=10.0) == 42
        assert main.state is TaskState.FINISHED and main.done.triggered
        assert main.retries == (0 if cached else 1) and rt.lineage.replays == 0
        assert rt.tasks_finished == 3
        assert_recovery_drained(rt)

    @pytest.mark.parametrize("reason", ["user", "deadline_exceeded"])
    def test_a_cancel_inside_the_window_still_wins(self, reason):
        rt = detecting_runtime()
        ref, consumer, main = self.producer_in_its_commit_window(rt)
        assert rt.cancel(ref, reason=reason)
        rt.failures.fail_node("server1", "crashed by the test")
        rt.run()
        assert main.state is TaskState.CANCELLED
        assert rt.task_state(consumer) is TaskState.CANCELLED
        assert rt.tasks_finished == 1 and rt.tasks_cancelled == 2  # busy alone finished
        assert_recovery_drained(rt)

    def test_a_lost_control_plane_inside_the_window_still_wins(self):
        rt = detecting_runtime()
        ref, consumer, main = self.producer_in_its_commit_window(rt)
        rt.failures.fail_head()  # unreplicated: every open task fails, then is interrupted
        rt.run()
        assert main.state is TaskState.FAILED
        assert rt.tasks_finished == 0 and rt.tasks_failed == 3
        assert rt._open_tasks == 0


class TestSoakEpisodes:
    """One ledger-shaped ``chaos_soak`` episode per schedule seed."""

    LANES = list(range(workloads.CHAOS_LANES))
    CLOSED_FORM = sum(LANES) + workloads.CHAOS_LANES * (workloads.CHAOS_DEPTH - 1)

    @staticmethod
    def assert_prompt_and_drained(rt):
        assert rt.log.count("detector_stalled") == 0
        assert rt.sim.now < 0.2
        assert_recovery_drained(rt)

    # 22, 54, 583, 928 left a task RUNNING with a finished process; 0, 10, 518,
    # 609 do once node_dead recovers at the verdict and the committer does not close
    @pytest.mark.parametrize("schedule_seed", [22, 54, 583, 928, 0, 10, 518, 609])
    def test_with_the_reliable_cache(self, schedule_seed):
        wl = workloads.ChaosSoakWorkload()
        episode = workloads.ChaosEpisode(schedule_seed, self.LANES)
        state = wl.build(episode)
        wl.check(episode, state, wl.run(episode, state))  # the ledger's own oracle
        assert state.rt.reliable_cache is not None
        self.assert_prompt_and_drained(state.rt)

    # 35, 61, 193 ended in UnrecoverableObjectError (the producer stuck RUNNING
    # is never replayed); 234 let an attempt of an earlier incarnation commit
    # into the replay and left four tasks RUNNING
    @pytest.mark.parametrize("schedule_seed", [35, 61, 193, 234])
    def test_lineage_only(self, schedule_seed):
        cluster = build_serverful(n_servers=workloads.CHAOS_SERVERS)
        rt = ServerlessRuntime(
            cluster,
            RuntimeConfig(
                resolution=PULL,
                heartbeat_interval=1e-3,
                heartbeat_miss_threshold=3,
                max_retries=10,
                retry_backoff_base=2e-3,
                speculation_factor=4.0,
            ),
        )
        ChaosMonkey(rt, workloads.ChaosSoakWorkload.schedule(schedule_seed)).arm()
        tails = []
        for start in self.LANES:
            ref = rt.submit(workloads._lane_start(start), compute_cost=workloads.CHAOS_TASK_COST)
            for _ in range(workloads.CHAOS_DEPTH - 1):
                ref = rt.submit(
                    workloads._increment, (ref,), compute_cost=workloads.CHAOS_TASK_COST
                )
            tails.append(ref)
        total = rt.submit(lambda *xs: sum(xs), tuple(tails), compute_cost=1e-3)
        assert rt.get(total, timeout=workloads.GET_TIMEOUT) == self.CLOSED_FORM
        assert rt.tasks_failed == 0
        self.assert_prompt_and_drained(rt)
