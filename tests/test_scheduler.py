"""Tests for placement policies and gang scheduling."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import build_physical_disagg, build_serverful
from repro.cluster.hardware import DeviceKind
from repro.runtime.config import RuntimeConfig, SchedulingPolicy
from repro.runtime.object_ref import ObjectRef
from repro.runtime.ownership import OwnershipTable
from repro.runtime.runtime import ServerlessRuntime
from repro.runtime.scheduler import PlacementError, Scheduler
from repro.runtime.task import ANY_COMPUTE_KIND, TaskSpec


def make_scheduler(policy=SchedulingPolicy.ROUND_ROBIN):
    cluster = build_physical_disagg()
    ownership = OwnershipTable()
    devices = [
        d
        for d in cluster.all_devices()
        if d.kind in (DeviceKind.CPU, DeviceKind.GPU, DeviceKind.FPGA)
    ]
    sched = Scheduler(
        cluster, ownership, policy, devices, endpoint="server0/cpu"
    )
    return cluster, ownership, sched


def task(task_id="t", kinds=frozenset({DeviceKind.CPU}), args=(), **kw):
    return TaskSpec(task_id=task_id, func=lambda: None, args=args,
                    supported_kinds=kinds, **kw)


class TestCandidates:
    def test_kind_filtering(self):
        _, _, sched = make_scheduler()
        gpu_only = sched.candidates(task(kinds=frozenset({DeviceKind.GPU})))
        assert gpu_only and all(d.kind == DeviceKind.GPU for d in gpu_only)

    def test_unsupported_kind_raises(self):
        cluster, ownership, _ = make_scheduler()
        cpu_devices = [d for d in cluster.all_devices() if d.kind == DeviceKind.CPU]
        sched = Scheduler(
            cluster, ownership, SchedulingPolicy.ROUND_ROBIN, cpu_devices, "e"
        )
        with pytest.raises(PlacementError, match="no schedulable device"):
            sched.candidates(task(kinds=frozenset({DeviceKind.GPU})))

    def test_pinned_device(self):
        cluster, _, sched = make_scheduler()
        gpu = cluster.devices_of_kind(DeviceKind.GPU)[0]
        placed = sched.place(task(pinned_device=gpu.device_id))
        assert placed is gpu

    def test_pinned_unknown_raises(self):
        _, _, sched = make_scheduler()
        with pytest.raises(PlacementError, match="pinned"):
            sched.place(task(pinned_device="ghost"))

    def test_blacklist_excludes(self):
        _, _, sched = make_scheduler()
        all_cpu = sched.candidates(task())
        dead = all_cpu[0].device_id
        sched.blacklist(dead)
        remaining = sched.candidates(task())
        assert dead not in [d.device_id for d in remaining]
        sched.unblacklist(dead)
        assert sched.candidates(task()) == all_cpu

    def test_no_devices_at_all(self):
        cluster, ownership, _ = make_scheduler()
        with pytest.raises(PlacementError):
            Scheduler(cluster, ownership, SchedulingPolicy.ROUND_ROBIN, [], "e")


class TestPolicies:
    def test_round_robin_cycles(self):
        _, _, sched = make_scheduler(SchedulingPolicy.ROUND_ROBIN)
        kinds = ANY_COMPUTE_KIND
        first = sched.place(task("t0", kinds))
        second = sched.place(task("t1", kinds))
        assert first is not second

    def test_least_loaded_avoids_busy_device(self):
        _, _, sched = make_scheduler(SchedulingPolicy.LEAST_LOADED)
        busy = sched.place(task("t0"))
        sched.task_started(busy.device_id)
        other = sched.place(task("t1"))
        assert other is not busy
        sched.task_finished(busy.device_id)
        assert sched.outstanding(busy.device_id) == 0

    def test_locality_follows_data(self):
        cluster, ownership, sched = make_scheduler(SchedulingPolicy.LOCALITY)
        gpu = cluster.devices_of_kind(DeviceKind.GPU)[0]
        gpu_node = cluster.node_of_device(gpu.device_id)
        ownership.create("big", "w", "t")
        ownership.mark_ready("big", gpu_node.node_id, 512 << 20, device_id=gpu.device_id)
        t = task("t1", ANY_COMPUTE_KIND, args=(ObjectRef("big"),))
        placed = sched.place(t)
        assert placed.node_id == gpu_node.node_id

    def test_locality_ignores_pending_objects(self):
        _, ownership, sched = make_scheduler(SchedulingPolicy.LOCALITY)
        ownership.create("pending", "w", "t")
        placed = sched.place(task("t1", ANY_COMPUTE_KIND, args=(ObjectRef("pending"),)))
        assert placed is not None  # falls back to compute/queue terms

    def test_locality_prefers_fast_device_without_data(self):
        _, _, sched = make_scheduler(SchedulingPolicy.LOCALITY)
        heavy = task("t1", ANY_COMPUTE_KIND, compute_cost=10.0)
        placed = sched.place(heavy)
        assert placed.kind == DeviceKind.GPU  # fastest for pure compute


class TestGang:
    def test_gang_gets_distinct_devices(self):
        _, _, sched = make_scheduler(SchedulingPolicy.LEAST_LOADED)
        tasks = [task(f"g{i}", frozenset({DeviceKind.FPGA}), gang_group="g") for i in range(4)]
        placements = sched.place_gang(tasks)
        ids = [d.device_id for d in placements.values()]
        assert len(set(ids)) == 4

    def test_gang_too_big_raises(self):
        cluster, _, sched = make_scheduler()
        n_fpga = len(cluster.devices_of_kind(DeviceKind.FPGA))
        tasks = [
            task(f"g{i}", frozenset({DeviceKind.FPGA}), gang_group="g")
            for i in range(n_fpga + 1)
        ]
        with pytest.raises(PlacementError, match="gang"):
            sched.place_gang(tasks)

    def test_empty_gang(self):
        _, _, sched = make_scheduler()
        assert sched.place_gang([]) == {}


class TestOneLeastLoadedRule:
    def test_policy_gang_member_and_backup_pick_the_same_device(self):
        """On the cluster state a speculative backup is launched from, the
        ``LEAST_LOADED`` policy and a gang member kept off the straggler's
        device choose the device the backup got."""
        rt = ServerlessRuntime(
            build_serverful(n_servers=4),
            RuntimeConfig(scheduling=SchedulingPolicy.LEAST_LOADED, speculation_factor=4.0),
        )
        sched = rt.scheduler
        for busy in ("server1/cpu", "server1/cpu", "server2/cpu"):
            sched.task_started(busy)  # uneven load, so the lowest id is not the answer
        rt.cluster.device("server0/cpu").slowdown = 50.0
        picks = []

        def on_speculate(ev):
            if ev.kind != "speculate":
                return
            probe = task("probe")
            straggler = task("straggler", pinned_device=ev["slow"], gang_group="g")
            member = task("member", gang_group="g")
            picks.append((
                ev["backup"],
                sched.place(probe).device_id,
                sched.place_gang([straggler, member])["member"].device_id,
            ))

        rt.log.add_observer(on_speculate)
        assert rt.get(rt.submit(lambda: 7, compute_cost=1e-3)) == 7
        assert picks == [("server3/cpu",) * 3]
