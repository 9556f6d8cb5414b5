"""Control-plane HA: replicated WAL, election, failover, and fencing.

The GCS was immortal through PR 8; ``repro.runtime.ha`` makes it a chaos
target.  These tests pin the full story end to end:

* a replicated run survives a mid-workload head kill with the exact
  answer, zero lost READY objects, and a bounded unavailability window,
  while the unreplicated baseline demonstrably cannot;
* the election is seeded and deterministic, and the whole failover run
  replays bit-for-bit;
* a network partition (split brain) triggers an election, and the
  deposed leader's view never double-declares live workers dead after
  the failover — fencing epochs keep exactly one writer per epoch;
* WAL replay rebuilds the directory the new leader serves from;
* the chaos schedule extensions (``fail_gcs``, ``n_head_failures``)
  validate loudly and do not perturb legacy seed streams;
* the all-off default (``ha_replicas=0``) builds nothing and replays the
  flagship E17 signature bit-for-bit;
* under the sanitizer, a failover that fences stale leases feeds the
  leadership and epoch monitors, which stay clean.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from repro.chaos import ChaosMonkey, ChaosSchedule, HeadFailure
from repro.chaos.events import ScheduleValidationError
from repro.cluster import build_physical_disagg, build_serverful
from repro.cluster.hardware import GB
from repro.runtime import (
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
    TaskError,
    ValueState,
)
from repro.runtime.events import NoProbe
from repro.runtime.raylet import Raylet
from repro.telemetry.metrics import MetricsRegistry

from asserts import assert_recovery_drained


def load_bench(name):
    """Import a benchmark scenario module by file path (benchmarks/ is not
    a package; these tests reuse its workload builders)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_ha_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


def ha_config(replicas: int, **overrides) -> RuntimeConfig:
    return RuntimeConfig(
        resolution=ResolutionMode.PULL,
        heartbeat_interval=1e-3,
        heartbeat_miss_threshold=3,
        max_retries=10,
        retry_backoff_base=2e-3,
        ha_replicas=replicas,
        **overrides,
    )


def lane_workload(rt: ServerlessRuntime, lanes: int = 6, depth: int = 4, spread: int = 0):
    """Chains of small tasks: wide enough to spread across nodes, deep
    enough that a mid-run head kill strands work in every lifecycle state.
    ``spread`` > 0 pins lane ``i``'s source to ``server{1 + i % spread}/cpu``,
    so the chains start on that many nodes off the head, whatever placement
    does."""
    outs = []
    for lane in range(lanes):
        pinned = f"server{1 + lane % spread}/cpu" if spread else None
        ref = rt.submit(
            lambda i=lane: i, name=f"src{lane}", compute_cost=4e-3, pinned_device=pinned
        )
        for d in range(depth):
            ref = rt.submit(
                lambda x: x + 1, args=(ref,), name=f"l{lane}d{d}", compute_cost=4e-3
            )
        outs.append(ref)
    return rt.submit(lambda *xs: sum(xs), args=tuple(outs), name="sum")


def expected_total(lanes: int = 6, depth: int = 4) -> int:
    return sum(i + depth for i in range(lanes))


class TestFailover:
    """Kill the leader mid-workload; the standbys take over."""

    def test_replicated_run_survives_a_head_kill(self):
        rt = ServerlessRuntime(build_serverful(n_servers=5), ha_config(2))
        ChaosMonkey(rt, ChaosSchedule().fail_gcs(at=10e-3)).arm()
        total = rt.get(lane_workload(rt))
        assert total == expected_total()
        assert rt.ha is not None
        assert rt.ha.failovers == 1
        assert rt.ha.epoch == 2
        assert rt.ha.leader_node != "server0"
        report = rt.ha.last_failover_report
        # every READY object whose bytes survived the head is back
        assert report["ready_lost"] == 0
        assert report["ready_restored"] == report["ready_survivable"]
        assert report["wal_records"] > 0
        # unavailability is bounded by election + replay, not the workload
        assert rt.ha.last_unavailability is not None
        assert rt.ha.last_unavailability < 50e-3
        kinds = [e.kind for e in rt.events]
        assert "chaos_head_failure" in kinds
        assert "ha_election_started" in kinds
        assert "ha_leader_elected" in kinds
        assert "ha_failover_complete" in kinds
        assert "detector_stalled" not in kinds  # a stall is a bug, not a recovery path
        assert_recovery_drained(rt)

    def test_failover_run_is_deterministic(self):
        def run():
            rt = ServerlessRuntime(build_serverful(n_servers=5), ha_config(2))
            ChaosMonkey(rt, ChaosSchedule().fail_gcs(at=10e-3)).arm()
            total = rt.get(lane_workload(rt))
            assert rt.log.count("detector_stalled") == 0
            assert_recovery_drained(rt)
            return rt.log.signature(), total

        first = run()
        assert run() == first

    def test_unreplicated_head_kill_loses_the_cluster(self):
        rt = ServerlessRuntime(build_serverful(n_servers=5), ha_config(0))
        ChaosMonkey(rt, ChaosSchedule().fail_gcs(at=10e-3)).arm()
        target = lane_workload(rt)
        with pytest.raises(TaskError, match="control plane lost"):
            rt.get(target)
        assert "gcs_lost" in [e.kind for e in rt.events]

    def test_losing_every_standby_is_fatal_even_when_replicated(self):
        rt = ServerlessRuntime(build_serverful(n_servers=3), ha_config(1))
        # kill the only standby first, then the head: nothing can elect
        sched = ChaosSchedule().crash_node(5e-3, "server1").fail_gcs(at=10e-3)
        ChaosMonkey(rt, sched).arm()
        target = lane_workload(rt, lanes=4, depth=3)
        with pytest.raises(TaskError, match="control plane lost"):
            rt.get(target)
        assert rt.ha is not None and rt.ha.cluster_lost
        assert "ha_cluster_lost" in [e.kind for e in rt.events]
        # nothing can ever lead again: a later submit is refused with the
        # loss's cause instead of parking forever
        tasks = dict(rt._ctxs)
        with pytest.raises(TaskError, match="refused: control plane lost: no live standby"):
            rt.submit(lambda: 2)
        assert rt._ctxs == tasks and rt._open_tasks == 0 and rt._parked == []

    @pytest.mark.parametrize(
        "schedule,failovers",
        [
            # the first kill's election promotes the only standby; the second
            # kill finds none left
            (ChaosSchedule().fail_gcs(at=10e-3).fail_gcs(at=40e-3), 1),
            # the slowed head link elects the only standby at 6 ms; the kill
            # lands on it while that failover is still re-registering the
            # raylets, and the failover stops there: it never completes
            (
                ChaosSchedule()
                .degrade_link(3e-3, "server0/cpu", "tor-switch", 1000.0)
                .fail_gcs(at=10e-3),
                0,
            ),
        ],
        ids=["second-kill", "kill-after-slow-link-election"],
    )
    def test_a_kill_with_no_standby_left_loses_the_cluster(self, schedule, failovers):
        rt = ServerlessRuntime(build_serverful(n_servers=5), ha_config(1))
        ChaosMonkey(rt, schedule).arm()
        target = lane_workload(rt, lanes=8, depth=5)
        with pytest.raises(TaskError, match="control plane lost"):
            rt.get(target)
        assert rt.ha is not None and rt.ha.cluster_lost
        assert rt.ha.failovers == failovers and rt.ha.standbys == []
        assert rt.log.count("ha_cluster_lost") == 1
        assert [e.kind for e in rt.events if e.kind.startswith("ha_")][-1] == "ha_cluster_lost"
        if not failovers:
            assert rt.ha.last_unavailability is None and rt.ha.last_failover_report == {}

    def test_a_winner_that_dies_before_it_leads_loses_the_cluster(self):
        """The only standby wins the draw, then crashes while it replays its
        log: a dead node must not lead, and nobody else is left to."""
        rt = ServerlessRuntime(build_serverful(n_servers=5), ha_config(1))
        sched = ChaosSchedule().fail_gcs(at=10e-3).crash_node(13.001e-3, "server1")
        ChaosMonkey(rt, sched).arm()
        with pytest.raises(TaskError, match="control plane lost"):
            rt.get(lane_workload(rt, lanes=8, depth=5))
        assert rt.ha is not None and rt.ha.cluster_lost and not rt.gcs_up
        assert rt.ha.leader_node == "server0" and rt.ha.failovers == 0
        assert rt.log.count("ha_leader_elected") == 0
        assert rt.log.count("ha_cluster_lost") == 1

    def test_a_winner_that_dies_before_it_leads_hands_over_to_the_next_draw(self):
        """Two standbys: the seeded draw (server1) crashes during its replay,
        the election draws again among the live candidates and server2 leads."""
        rt = ServerlessRuntime(build_serverful(n_servers=5), ha_config(2))
        assert random.Random((0 << 16) ^ 2).choice(["server1", "server2"]) == "server1"
        sched = ChaosSchedule().fail_gcs(at=10e-3).crash_node(13.001e-3, "server1")
        ChaosMonkey(rt, sched).arm()
        assert rt.get(lane_workload(rt, lanes=8, depth=5)) == expected_total(8, 5)
        assert rt.ha is not None and not rt.ha.cluster_lost
        assert rt.ha.leader_node == "server2" and rt.ha.failovers == 1
        assert [e["node"] for e in rt.log.of_kind("ha_leader_elected")] == ["server2"]
        assert rt.log.count("detector_stalled") == 0
        assert_recovery_drained(rt)

    def test_election_winner_is_the_seeded_draw(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.ha.ELECTION_SEED", 11)
        rt = ServerlessRuntime(build_serverful(n_servers=5), ha_config(3))
        ChaosMonkey(rt, ChaosSchedule().fail_gcs(at=10e-3)).arm()
        rt.get(lane_workload(rt))
        candidates = sorted(["server1", "server2", "server3"])
        expected = random.Random((11 << 16) ^ 2).choice(candidates)
        assert rt.ha is not None and rt.ha.leader_node == expected
        assert rt.log.count("detector_stalled") == 0
        assert_recovery_drained(rt)

    def test_the_election_seed_steers_the_winner(self, monkeypatch):
        """The default seed and one that draws another standby elect what
        their draws name, so the constant is what the election reads."""
        candidates = ["server1", "server2", "server3"]
        leaders = []
        for seed in (0, 1):  # 0 is ha.ELECTION_SEED's default
            monkeypatch.setattr("repro.runtime.ha.ELECTION_SEED", seed)
            rt = ServerlessRuntime(build_serverful(n_servers=5), ha_config(3))
            ChaosMonkey(rt, ChaosSchedule().fail_gcs(at=10e-3)).arm()
            rt.get(lane_workload(rt))
            assert rt.ha is not None
            assert rt.ha.leader_node == random.Random((seed << 16) ^ 2).choice(candidates)
            leaders.append(rt.ha.leader_node)
        assert leaders == ["server1", "server3"]

    def test_replicas_must_fit_the_cluster(self):
        with pytest.raises(ValueError, match="ha_replicas"):
            ServerlessRuntime(build_serverful(n_servers=2), ha_config(4))


class TestThePlacementViewAcrossAFailover:
    """What the scheduler may place on survives a failover: the WAL replay
    rebuilds the verdicts, and exclusions that are no verdict stay put."""

    @staticmethod
    def no_detector() -> RuntimeConfig:
        return RuntimeConfig(
            resolution=ResolutionMode.PULL, max_retries=10, retry_backoff_base=2e-3, ha_replicas=1
        )

    def _placements(self, rt):
        """Every device ``place`` returns, with the virtual time it did."""
        placed, place = [], rt.scheduler.place

        def recording(spec, avoid=None):
            device = place(spec, avoid)
            placed.append((rt.sim.now, device.device_id))
            return device

        rt.scheduler.place = recording
        return placed

    def _run_through_a_failover(self, rt, restart_after=None, n=32):
        """``n`` independent tasks across a head kill at 1 ms, then ``n``
        fresh ones once the failover is done: the devices each batch ran on."""
        ChaosMonkey(rt, ChaosSchedule().fail_gcs(at=1e-3, restart_after=restart_after)).arm()

        def batch(name):
            refs = [
                rt.submit(lambda i=i: i, name=f"{name}{i}", compute_cost=4e-3) for i in range(n)
            ]
            assert rt.get(refs) == list(range(n))
            ran = {tl.name: tl.device for tl in rt.timelines}
            return {ran[f"{name}{i}"] for i in range(n)}

        across = batch("across")
        assert rt.ha.failovers == 1
        return across, batch("after")

    def test_a_struck_head_stays_out_of_the_view_without_a_detector(self):
        """No heartbeats: nothing will ever declare the old head dead, yet no
        task runs there after the failover and ``place`` never picks it
        after the strike."""
        rt = ServerlessRuntime(build_serverful(n_servers=4), self.no_detector())
        placed = self._placements(rt)
        for ran in self._run_through_a_failover(rt):
            assert ran and not {dev for dev in ran if dev.startswith("server0/")}
        assert "server0" not in rt.failures.dead_nodes  # no verdict keeps it out
        after = {dev for t, dev in placed if t >= 1e-3}
        assert after and not {dev for dev in after if dev.startswith("server0/")}
        assert_recovery_drained(rt)

    def test_a_restarted_head_rejoins_the_view_without_a_detector(self):
        rt = ServerlessRuntime(build_serverful(n_servers=4), self.no_detector())
        _across, after = self._run_through_a_failover(rt, restart_after=1e-3)
        assert "server0/cpu" in after

    def test_a_drivers_exclusion_survives_a_failover(self):
        """The driver's ``blacklist`` is no verdict and in no WAL: the
        failover's replay must not forget it."""
        rt = ServerlessRuntime(build_serverful(n_servers=4), ha_config(1))
        rt.scheduler.blacklist("server3/cpu")
        _across, after = self._run_through_a_failover(rt)
        assert rt.scheduler.is_blacklisted("server3/cpu")
        assert after and "server3/cpu" not in after
        assert_recovery_drained(rt)

    def test_a_gang_launched_while_no_leader_serves_keeps_its_devices(self):
        """The members park with the devices ``launch_gang`` gave them; the
        failover dispatches them there, not one by one by the policy (which
        put all three on ``server1/cpu``)."""
        rt = ServerlessRuntime(build_serverful(n_servers=4), self.no_detector())
        ChaosMonkey(rt, ChaosSchedule().fail_gcs(at=1e-3)).arm()
        filler = rt.submit(lambda: 0, compute_cost=4e-3, name="filler")
        rt.run(until=1.2e-3)
        assert not rt.gcs_up
        refs = [rt.submit(lambda i=i: i, gang_group="g", name=f"rank{i}") for i in range(3)]
        rt.launch_gang("g")
        placed = [rt._ctxs[ref.task_id].device.device_id for ref in refs]
        assert len(set(placed)) == 3
        assert rt.get(refs) == [0, 1, 2] and rt.get(filler) == 0
        assert rt.ha.failovers == 1
        assert [rt.timeline_of(ref).device for ref in refs] == placed
        assert_recovery_drained(rt)


class TestSplitBrainFencing:
    """A partitioned (not dead) leader is deposed, never obeyed again."""

    def test_partition_triggers_failover_without_double_declaring(self):
        rt = ServerlessRuntime(build_serverful(n_servers=3), ha_config(2))

        def _partition():
            yield rt.sim.timeout(10e-3)
            rt.net.partition({"server0"})
            yield rt.sim.timeout(15e-3)
            rt.net.heal_partition()

        rt.sim.process(_partition(), name="chaos:partition")
        total = rt.get(lane_workload(rt))
        assert total == expected_total()
        assert rt.ha is not None
        assert rt.ha.failovers == 1
        assert rt.ha.epoch == 2
        assert rt.ha.leader_node in ("server1", "server2")
        complete = next(e for e in rt.events if e.kind == "ha_failover_complete")
        # the deposed leader's partition-era suspicions must not outlive it:
        # after the failover no live worker is ever declared dead (the old
        # head itself may be — that is the new monitor's honest verdict)
        for e in rt.events:
            if e.kind == "node_dead" and e.time > complete.time:
                assert e["node"] == "server0"
        # both workers finished work under the new epoch
        assert rt.tasks_finished > 0

    def test_stale_epoch_leases_are_fenced_at_the_raylet(self):
        cluster = build_serverful(n_servers=1)
        dev = cluster.node("server0").devices[0]
        raylet = Raylet(
            cluster.sim, dev, [dev], metrics=MetricsRegistry(), probe=NoProbe(),
            on_spill=lambda oid, origin, target: None,
        )
        assert raylet.gcs_epoch == 0
        assert raylet.accepts_epoch(1)
        raylet.observe_epoch(2)
        assert not raylet.accepts_epoch(1)  # a deposed leader's lease
        assert raylet.accepts_epoch(2)
        assert raylet.accepts_epoch(3)
        raylet.observe_epoch(1)  # epochs never move backwards
        assert raylet.gcs_epoch == 2


def fenced_failover(sanitizers=()):
    """E25's failover (two standbys, heartbeats on) with the head's link
    slowed 300x at 8 ms and the lanes started off the head: leases the leader
    sends in its last 2 ms land after the raylets re-registered under epoch 2,
    and the fence rejects them."""
    rt = ServerlessRuntime(build_serverful(n_servers=5), ha_config(2, sanitizers=sanitizers))
    schedule = ChaosSchedule().degrade_link(8e-3, "server0/cpu", "tor-switch", 300.0)
    ChaosMonkey(rt, schedule.fail_gcs(at=10e-3)).arm()
    assert rt.get(lane_workload(rt, spread=4)) == expected_total()
    return rt


class TestSanitizedFailover:
    """The sanitizer watches a real failover: the leadership and fencing
    events reach its monitors, which no other test run feeds."""

    def test_the_probe_sees_the_leader_and_the_fence(self):
        rt = fenced_failover(sanitizers=("hb", "invariants"))
        assert rt.log.signature() == fenced_failover().log.signature()
        trace = rt.probe.trace
        leaders = [e.detail for e in trace if e.kind == "ha_leader"]
        assert leaders == [(("epoch", 2), ("node", "server1"))]
        fences = [e for e in trace if e.kind == "ha_fence"]
        rejected = [e for e in fences if not e.get("accepted")]
        assert (len(fences), len(rejected)) == (37, 6)
        assert all(e.get("lease_epoch") == 1 and e.get("raylet_epoch") == 2 for e in rejected)
        assert rt.log.count("ha_stale_lease_rejected") == 6
        assert rt.probe.report().violations == []
        monitors = {m.name: m for m in rt.probe.engine.monitors}
        assert monitors["leader-per-epoch"]._leader_of_epoch == {2: "server1"}
        assert monitors["epoch-monotonic"]._last_leader_epoch == 2
        # the whole protocol trace, pinned: moving where an event is emitted
        # from must not move the event.  Re-recorded when transfers became
        # byte-fair flows: at 36.6 ms three pulls into server2 share its NIC
        # link, so they land later than the chunk round-robin put them and
        # the events after them move in time; the log signature did not move.
        # Re-recorded when locality stopped pricing running tasks as queue: the
        # lanes' sources are pinned off the head (``spread=4``), else every
        # chain stays on the head and no lease crosses its slowed link, and
        # each lane's second task's lease is now the one fenced.
        signature = repr(trace.signature()).encode()
        assert hashlib.sha1(signature).hexdigest()[:12] == "77f7f704035a"


class TestSlowHeadLink:
    """The head's link slowed 1000x at 3 ms: the standbys elect server1
    before the head kill, and the kill forces a second election.  A sync
    batch of the first leader's generation is still in flight when ``adopt``
    drops the winner's replica; the pump skips the winner when it resumes."""

    def test_two_elections_with_a_batch_in_flight(self):
        rt = ServerlessRuntime(build_serverful(n_servers=5), ha_config(2))
        schedule = ChaosSchedule().degrade_link(3e-3, "server0/cpu", "tor-switch", 1000.0)
        ChaosMonkey(rt, schedule.fail_gcs(at=10e-3)).arm()
        assert rt.get(lane_workload(rt)) == expected_total()
        elected = [e["node"] for e in rt.events if e.kind == "ha_leader_elected"]
        assert elected == ["server1", "server2"]
        assert rt.ha.failovers == 2 and rt.ha.epoch == 3
        assert rt.log.count("detector_stalled") == 0
        assert_recovery_drained(rt)


class TestWalReplay:
    """The WAL is the directory: replaying it rebuilds the control plane."""

    def test_replay_reconstructs_the_ownership_table(self):
        rt = ServerlessRuntime(build_serverful(n_servers=3), ha_config(1))
        rt.get(lane_workload(rt, lanes=3, depth=2))
        assert rt.ha is not None and rt.ha.wal
        before = {
            e.object_id: (e.state, e.nbytes, frozenset(e.locations))
            for e in rt.ownership.objects()
            if e.state is ValueState.READY
        }
        log = list(rt.ha.wal)
        rt.ownership.clear()
        rt.ha._rebuild_control_state(log)
        after = {
            e.object_id: (e.state, e.nbytes, frozenset(e.locations))
            for e in rt.ownership.objects()
            if e.state is ValueState.READY
        }
        assert before == after

    @staticmethod
    def _assert_wal_tracks(rt, object_id):
        """The last WAL snapshot of the object equals the live entry."""
        live = rt.ownership.entry(object_id)
        snapshots = [
            r.get()
            for r in rt.ha.wal
            if r.kind == "own" and r.get()["object"] == object_id
        ]
        assert snapshots[-1]["state"] == live.state.name
        assert snapshots[-1]["locations"] == tuple(sorted(live.locations))

    # The directory used to have back doors (device death, spill upkeep,
    # lineage reset) that mutated entries in place: the WAL kept its stale
    # snapshot, and an elected standby would have replayed it.

    def test_device_death_reaches_the_wal(self):
        rt = ServerlessRuntime(build_physical_disagg(), RuntimeConfig(ha_replicas=1))
        ref = rt.submit(lambda: 7, pinned_device="gpucard0/gpu0", name="on-gpu")
        assert rt.get(ref) == 7
        rt.fail_device("gpucard0/gpu0")
        live = rt.ownership.entry(ref.object_id)
        assert live.state is ValueState.LOST and not live.locations
        self._assert_wal_tracks(rt, ref.object_id)

    def test_spill_reaches_the_wal(self):
        cluster = build_physical_disagg(
            n_servers=2, n_gpu_cards=0, n_fpga_cards=0, n_mem_blades=1
        )
        rt = ServerlessRuntime(cluster, RuntimeConfig(ha_replicas=1))
        refs = [  # three such outputs overflow the 64 GB head CPU store
            rt.submit(
                lambda: "x",
                compute_cost=1e-3,
                output_nbytes=24 * GB,
                pinned_device="server0/cpu",
            )
            for _ in range(3)
        ]
        rt.get(refs)
        oldest = refs[0].object_id  # LRU-spilled to the blade
        assert rt.ownership.locations(oldest) == ["memblade0/mem"]
        self._assert_wal_tracks(rt, oldest)

    def test_lineage_reset_reaches_the_wal(self):
        rt = ServerlessRuntime(build_physical_disagg(), RuntimeConfig(ha_replicas=1))
        ref = rt.submit(lambda: 7, pinned_device="gpucard0/gpu0", name="on-gpu")
        assert rt.get(ref) == 7
        rt.fail_device("gpucard0/gpu0")
        rt.restore_device("gpucard0/gpu0")
        assert rt.get(ref) == 7  # replayed from lineage
        states = [
            r.get()["state"]
            for r in rt.ha.wal
            if r.kind == "own" and r.get()["object"] == ref.object_id
        ]
        # the replay's reset to PENDING is logged between LOST and READY
        assert states[-3:] == ["LOST", "PENDING", "READY"]
        self._assert_wal_tracks(rt, ref.object_id)

    def test_append_noops_while_no_leader_serves(self):
        rt = ServerlessRuntime(build_serverful(n_servers=3), ha_config(1))
        assert rt.ha is not None
        n = len(rt.ha.wal)
        rt.gcs_up = False
        rt.ha.append("node_dead", node="server1")
        assert len(rt.ha.wal) == n  # a dead head cannot make writes durable
        rt.gcs_up = True
        rt.ha.append("node_dead", node="server1")
        assert len(rt.ha.wal) == n + 1
        rec = rt.ha.wal[-1]
        assert rec.epoch == 1 and rec.kind == "node_dead"
        assert rec.get() == {"node": "server1"}


class TestChaosScheduleExtensions:
    """Satellite: ``fail_gcs`` validates loudly, legacy seeds stay stable."""

    def test_negative_injection_time_rejected(self):
        with pytest.raises(ScheduleValidationError, match="negative injection time"):
            ChaosSchedule().fail_gcs(at=-1e-3).validate()

    def test_non_positive_restart_window_rejected(self):
        with pytest.raises(ScheduleValidationError, match="restart_after"):
            ChaosSchedule().fail_gcs(at=0.1, restart_after=0.0).validate()

    def test_random_draws_head_failures(self):
        kwargs = dict(node_ids=["server0", "server1"], horizon=1.0, n_crashes=0,
                      n_partitions=0, n_stragglers=0, n_head_failures=2)
        a = ChaosSchedule.random(3, **kwargs)
        assert a.ordered() == ChaosSchedule.random(3, **kwargs).ordered()
        assert sum(isinstance(f, HeadFailure) for f in a) == 2

    def test_head_failure_draws_do_not_perturb_old_seeds(self):
        """Head-kill draws are appended last, so a legacy seed with the new
        count at zero yields the bit-identical legacy schedule."""
        kwargs = dict(
            node_ids=["server1", "server2"],
            device_ids=["server1/cpu"],
            horizon=1.0,
            n_crashes=2,
            n_stragglers=1,
            n_device_failures=1,
        )
        legacy = ChaosSchedule.random(7, **kwargs)
        extended = ChaosSchedule.random(7, n_head_failures=0, **kwargs)
        assert legacy.ordered() == extended.ordered()


class TestAllOffEquivalence:
    """``ha_replicas=0`` builds nothing and changes nothing."""

    def test_default_config_builds_no_controller(self):
        rt = ServerlessRuntime(
            build_serverful(n_servers=2),
            RuntimeConfig(resolution=ResolutionMode.PULL),
        )
        assert rt.ha is None

    def test_e17_signature_is_bit_identical_with_ha_off(self):
        e17 = load_bench("test_e17_chaos_soak")
        legacy = e17.run_soak(e17.SEED, chaos=True)
        gated = e17.run_soak(e17.SEED, chaos=True, ha_replicas=0)
        assert legacy["signature"] == gated["signature"]
        assert legacy["answer"] == gated["answer"]
        assert legacy["makespan"] == gated["makespan"]
