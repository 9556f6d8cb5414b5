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
  flagship E17 signature bit-for-bit.
"""

from __future__ import annotations

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
from repro.runtime.raylet import Raylet

from conftest import assert_recovery_drained


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


def lane_workload(rt: ServerlessRuntime, lanes: int = 6, depth: int = 4):
    """Chains of small tasks: wide enough to spread across nodes, deep
    enough that a mid-run head kill strands work in every lifecycle state."""
    outs = []
    for lane in range(lanes):
        ref = rt.submit(lambda i=lane: i, name=f"src{lane}", compute_cost=4e-3)
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

    def test_election_winner_is_the_seeded_draw(self):
        rt = ServerlessRuntime(
            build_serverful(n_servers=5), ha_config(3, ha_election_seed=11)
        )
        ChaosMonkey(rt, ChaosSchedule().fail_gcs(at=10e-3)).arm()
        rt.get(lane_workload(rt))
        candidates = sorted(["server1", "server2", "server3"])
        expected = random.Random((11 << 16) ^ 2).choice(candidates)
        assert rt.ha is not None and rt.ha.leader_node == expected
        assert rt.log.count("detector_stalled") == 0
        assert_recovery_drained(rt)

    def test_replicas_must_fit_the_cluster(self):
        with pytest.raises(ValueError, match="ha_replicas"):
            ServerlessRuntime(build_serverful(n_servers=2), ha_config(4))


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
        raylet = Raylet(cluster.sim, dev, [dev])
        assert raylet.gcs_epoch == 0
        assert raylet.accepts_epoch(1)
        raylet.observe_epoch(2)
        assert not raylet.accepts_epoch(1)  # a deposed leader's lease
        assert raylet.accepts_epoch(2)
        assert raylet.accepts_epoch(3)
        raylet.observe_epoch(1)  # epochs never move backwards
        assert raylet.gcs_epoch == 2


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
        assert rt.ownership.locations(oldest) == ["memblade0"]
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
