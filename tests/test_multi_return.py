"""Tasks with several outputs: ``submit(num_returns=n)``.

* **One attempt, n objects.**  A task with n outputs is one task: one lease,
  one ``done`` message, one lineage record; the directory holds n entries
  that name the same producer.  A payload that returns the wrong count fails
  like any payload error.
* **A lost output costs one replay of what was lost.**  The device holding
  the only copy of one output dies; the producer is replayed once and
  commits only that output.  Its READY siblings keep their entries and
  copies and are not moved again, and every table drains, under PUSH and
  PULL.  Under the sanitizer the run keeps its trace and has no violation;
  no race either, under PUSH as under PULL.
* **A head failover right after the commit** rebuilds every output's
  directory entry: the raylet's unacknowledged done-report names them all.
* **The oracle keeps the contract.**  ``LocalRuntime`` returns the same list
  of futures for the same payloads (the random-DAG differential lives in
  ``test_properties.py``).
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosMonkey, ChaosSchedule
from repro.cluster import DeviceKind, build_physical_disagg, build_serverful
from repro.runtime import (
    LocalRuntime,
    ObjectRef,
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
    TaskError,
    ValueState,
)

from asserts import assert_recovery_drained
from test_data_plane import assert_data_plane_drained
from test_ha import ha_config, lane_workload

MODES = [ResolutionMode.PUSH, ResolutionMode.PULL]
GPU = frozenset({DeviceKind.GPU})
SIZE = 1 << 20  # each output's size


def four(x):
    return x, x + 1, x + 2, x + 3


def add(a, b):
    return a + b


class TestOneTaskManyOutputs:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
    def test_one_task_one_lease_one_done(self, mode):
        rt = ServerlessRuntime(build_physical_disagg(), RuntimeConfig(resolution=mode))
        single = rt.submit(four, (1,))
        rt.get(single)
        before = rt.control_messages
        refs = rt.submit(four, (10,), num_returns=4)
        assert isinstance(single, ObjectRef) and len(refs) == 4
        assert rt.get(refs) == [10, 11, 12, 13]
        assert rt.control_messages - before == before == 2  # a lease and a done, as for one
        task_ids = {rt.ownership.entry(r.object_id).task_id for r in refs}
        assert task_ids == {refs[0].task_id}
        assert rt.lineage.outputs_of(refs[0].task_id) == [r.object_id for r in refs]
        assert {rt.lineage.producer(r.object_id).task_id for r in refs} == task_ids
        # an output is read like any object
        assert rt.get(rt.submit(add, (refs[1], refs[3]))) == 24
        assert_recovery_drained(rt)

    def test_output_nbytes_sizes_each_output(self):
        rt = ServerlessRuntime(build_physical_disagg())
        refs = rt.submit(four, (0,), num_returns=4, output_nbytes=SIZE)
        rt.get(refs)
        assert [rt.ownership.entry(r.object_id).nbytes for r in refs] == [SIZE] * 4

    def test_a_wrong_count_is_the_payloads_error(self):
        rt = ServerlessRuntime(build_physical_disagg())
        refs = rt.submit(four, (0,), num_returns=3)
        with pytest.raises(TaskError, match="returned 4 values for num_returns=3"):
            rt.get(refs[2])
        assert rt.tasks_failed == 1
        with pytest.raises(ValueError, match="num_returns must be >= 1"):
            rt.submit(four, (0,), num_returns=0)
        assert_recovery_drained(rt)

    def test_a_refused_commit_stores_nothing(self):
        """Two 40 % outputs fit server1's memory, the third must spill one to
        a dead blade: the attempt is retried, and none of its outputs stays
        behind in the store."""
        cluster = build_physical_disagg()
        rt = ServerlessRuntime(cluster, RuntimeConfig(max_retries=1, retry_backoff_base=1e-3))
        rt.failures.fail_blade("memblade0", "killed by driver", announce=True)
        cpu = cluster.node("server1").devices[0]
        size = int(cpu.spec.memory_bytes * 0.4)
        refs = rt.submit(four, (0,), num_returns=4, output_nbytes=size, pinned_device="server1/cpu")
        with pytest.raises(TaskError, match="gave up after 1 retries: spill of"):
            rt.get(refs[0])
        store = rt.raylet_for_device("server1/cpu").store_of("server1/cpu")
        assert not any(store.contains(r.object_id) for r in refs)
        assert cpu.memory_used == 0 and rt.tasks_retried == 1

    def test_cancelling_one_output_cancels_the_readers_of_all(self):
        rt = ServerlessRuntime(build_physical_disagg())
        refs = rt.submit(four, (0,), num_returns=4, compute_cost=1e-2)
        readers = [rt.submit(add, (refs[i], 1)) for i in range(4)]
        assert rt.cancel(refs[2])
        assert rt.log.count("task_cancelled") == 5
        with pytest.raises(TaskError, match="upstream_cancelled"):
            rt.get(readers[0])
        assert_recovery_drained(rt)


def lose_one_output(mode, sanitizers=(), num_returns=4):
    """A GPU task with four 1 MiB outputs (or, with ``num_returns=1``, four
    one-output GPU tasks); readers on server1 hold copies of outputs 1-3,
    output 0 lives only on its GPU, which dies.  A reader of outputs 0 and 1
    submitted after the death needs the replay.  Returns the runtime, the
    refs, the dead GPU, the siblings' locations right after the death and
    the transfers before it."""
    rt = ServerlessRuntime(
        build_physical_disagg(), RuntimeConfig(resolution=mode, sanitizers=sanitizers)
    )
    if num_returns == 4:
        refs = rt.submit(four, (10,), num_returns=4, output_nbytes=SIZE, supported_kinds=GPU)
    else:
        refs = [
            rt.submit(add, (10, i), output_nbytes=SIZE, supported_kinds=GPU) for i in range(4)
        ]
    copies = [rt.submit(add, (ref, 0), pinned_device="server1/cpu") for ref in refs[1:]]
    assert rt.get(copies) == [11, 12, 13]
    gpu = rt.timeline_of(refs[0]).device
    moves = transfer_spans(rt)
    assert rt.fail_device(gpu) == [refs[0].object_id]
    siblings = {r.object_id: set(rt.ownership.entry(r.object_id).locations) for r in refs[1:]}
    late = rt.submit(add, (refs[0], refs[1]), pinned_device="server1/cpu")
    assert rt.get(late) == 21
    assert rt.get(refs) == [10, 11, 12, 13]
    rt.restore_device(gpu)
    return rt, refs, gpu, siblings, moves


def transfer_spans(rt):
    spans = rt.telemetry.tracer.finished_spans()
    return sorted(s.name for s in spans if s.name.startswith(("push:", "pull:")))


SANITIZERS = ("hb", "invariants")


class TestLosingOneOutput:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
    def test_one_replay_commits_only_the_lost_output(self, mode):
        rt, refs, gpu, siblings, moves = lose_one_output(mode)
        assert rt.lineage.replays == 1 and rt.log.count("lineage_replay") == 1
        replay = rt.timeline_of(refs[0]).device
        assert replay != gpu
        # the survivors are the copies on server1's CPU, and they stay exactly that
        assert list(siblings.values()) == [{"server1/cpu"}] * 3
        for oid, locations in siblings.items():
            entry = rt.ownership.entry(oid)
            assert entry.state is ValueState.READY and entry.locations == locations
            assert not rt.raylet_for_device(replay).store_of(replay).contains(oid)
        # the siblings moved to server1 once, before the death, and never again
        added = transfer_spans(rt)
        for oid in siblings:
            assert [m for m in added if oid in m] == [m for m in moves if oid in m]
        assert [m for m in added if refs[0].object_id in m] != []
        assert_recovery_drained(rt)
        assert_data_plane_drained(rt)
        assert not rt.failures.dead_devices and not rt.failures.dead_nodes

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
    def test_a_freed_output_stays_freed(self, mode):
        """The application freed output 3, then the GPU holding the other
        three dies: the replay rebuilds those three and does not bring the
        freed one back."""
        rt = ServerlessRuntime(build_physical_disagg(), RuntimeConfig(resolution=mode))
        refs = rt.submit(four, (10,), num_returns=4, output_nbytes=SIZE, supported_kinds=GPU)
        rt.run()
        rt.free(refs[3])
        gpu = rt.timeline_of(refs[0]).device
        assert rt.fail_device(gpu) == [r.object_id for r in refs[:3]]
        assert rt.get(refs[0]) == 10
        assert rt.lineage.replays == 1
        assert rt.get(refs[:3]) == [10, 11, 12]
        replay = rt.timeline_of(refs[0]).device
        assert not rt.ownership.contains(refs[3].object_id)
        assert not rt.raylet_for_device(replay).store_of(replay).contains(refs[3].object_id)
        with pytest.raises(KeyError):
            rt.get(refs[3])
        rt.restore_device(gpu)
        assert_recovery_drained(rt)
        assert_data_plane_drained(rt)

    def test_the_sanitizer_sees_no_race_and_changes_nothing(self):
        rt = lose_one_output(ResolutionMode.PULL, sanitizers=SANITIZERS)[0]
        report = rt.probe.report()
        assert report.races == [] and report.violations == []
        assert rt.log.signature() == lose_one_output(ResolutionMode.PULL)[0].log.signature()

    def test_under_push_it_reports_what_one_output_tasks_report(self):
        """Under PUSH a push's landing sends a ``land:`` message that the
        attempt it fed receives, so the landing's directory write is ordered
        before the later death's drops: no race, for four one-output tasks in
        the same shape as for the four-output task."""
        multi = lose_one_output(ResolutionMode.PUSH, sanitizers=SANITIZERS)[0]
        single = lose_one_output(ResolutionMode.PUSH, sanitizers=SANITIZERS, num_returns=1)[0]
        for rt in (multi, single):
            assert rt.probe.report().races == []
            assert any(e.kind == "land" for e in rt.probe.trace)
        assert multi.probe.report().violations == []
        assert multi.log.signature() == lose_one_output(ResolutionMode.PUSH)[0].log.signature()


def ready_in(wal):
    """The objects a WAL holds a READY snapshot of."""
    return {r.get()["object"] for r in wal if r.kind == "own" and r.get()["state"] == "READY"}


class TestFailoverAfterTheCommit:
    """E25's shape (two standbys, heartbeats on, the head killed at 10 ms,
    its link slowed 300x from 9.8 ms) with a four-output task that commits at
    9.91 ms: no replica holds the commit, and its ``done`` is still crossing
    the slowed link when the head dies, so the new leader learns the four
    outputs from the report the raylet re-sends at re-registration."""

    def test_all_four_entries_come_back(self):
        rt = ServerlessRuntime(build_serverful(n_servers=5), ha_config(2))
        schedule = ChaosSchedule().degrade_link(9.8e-3, "server0/cpu", "tor-switch", 300.0)
        ChaosMonkey(rt, schedule.fail_gcs(at=10e-3)).arm()
        target = lane_workload(rt)
        refs = rt.submit(
            four, (7,), num_returns=4, output_nbytes=SIZE, compute_cost=9.8e-3,
            pinned_device="server2/cpu",
        )
        oids = [r.object_id for r in refs]
        rt.run(until=10e-3)
        assert all(map(rt.ownership.is_ready, oids))
        assert not set(oids) & ready_in(rt.ha.replica_logs[rt.ha.standbys[0]])
        (report,) = rt.raylet_for_device("server2/cpu").unacked_reports()
        assert report == (refs[0].task_id, "server2/cpu", tuple((o, SIZE) for o in oids))
        rt.get(target)
        assert rt.ha.failovers == 1
        assert set(oids) <= ready_in(rt.ha.wal)
        for oid in oids:
            entry = rt.ownership.entry(oid)
            assert (entry.state, entry.nbytes) == (ValueState.READY, SIZE)
            assert entry.locations == {"server2/cpu"}
        assert rt.get(refs) == [7, 8, 9, 10]
        assert_recovery_drained(rt)


class TestLocalRuntimeContract:
    def test_same_futures_same_values(self):
        with LocalRuntime(max_workers=2) as rt:
            refs = rt.submit(four, (10,), num_returns=4)
            assert len(refs) == 4 and isinstance(rt.submit(four, (0,)), ObjectRef)
            assert rt.get(refs) == [10, 11, 12, 13]
            assert rt.get(rt.submit(add, (refs[1], refs[3]))) == 24

    def test_a_wrong_count_fails_every_output(self):
        with LocalRuntime(max_workers=2) as rt:
            refs = rt.submit(four, (0,), num_returns=3)
            for ref in refs:
                with pytest.raises(TaskError, match="returned 4 values for num_returns=3"):
                    rt.get(ref)
            with pytest.raises(ValueError, match="num_returns must be >= 1"):
                rt.submit(four, (0,), num_returns=0)
