"""Tests for placement policies and gang scheduling."""

from __future__ import annotations

import random

import pytest

from repro.cluster.cluster import build_physical_disagg, build_serverful
from repro.cluster.hardware import MB, DeviceKind
from repro.runtime.config import ResolutionMode, RuntimeConfig, SchedulingPolicy
from repro.runtime.object_ref import ObjectRef
from repro.runtime.ownership import OwnershipTable, ValueState
from repro.runtime.runtime import ServerlessRuntime
from repro.runtime.scheduler import PlacementError, Scheduler
from repro.runtime.task import ANY_COMPUTE_KIND, TaskSpec
from repro.telemetry.metrics import MetricsRegistry


def make_scheduler(policy=SchedulingPolicy.ROUND_ROBIN):
    cluster = build_physical_disagg()
    ownership = OwnershipTable()
    devices = [
        d
        for d in cluster.all_devices()
        if d.kind in (DeviceKind.CPU, DeviceKind.GPU, DeviceKind.FPGA)
    ]
    sched = Scheduler(
        cluster, ownership, policy, devices, endpoint="server0/cpu", metrics=MetricsRegistry()
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
            cluster, ownership, SchedulingPolicy.ROUND_ROBIN, cpu_devices, "e", MetricsRegistry()
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

    def test_check_pin_refuses_what_placement_cannot_give(self):
        _, _, sched = make_scheduler()
        live = sched.candidates(task())[0].device_id
        sched.check_pin(task())
        sched.check_pin(task(pinned_device=live))
        with pytest.raises(PlacementError, match="pinned"):
            sched.check_pin(task(pinned_device="ghost"))
        sched.blacklist(live)
        with pytest.raises(PlacementError, match="no live device"):
            sched.check_pin(task(pinned_device=live))
        assert sched.place(task(pinned_device=live)).device_id == live  # place does not judge the view

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
            Scheduler(
                cluster, ownership, SchedulingPolicy.ROUND_ROBIN, [], "e", MetricsRegistry()
            )


class TestPolicies:
    def test_round_robin_cycles(self):
        _, _, sched = make_scheduler(SchedulingPolicy.ROUND_ROBIN)
        kinds = ANY_COMPUTE_KIND
        first = sched.place(task("t0", kinds))
        second = sched.place(task("t1", kinds))
        assert first is not second

    def test_locality_follows_data(self):
        cluster, ownership, sched = make_scheduler(SchedulingPolicy.LOCALITY)
        gpu = cluster.devices_of_kind(DeviceKind.GPU)[0]
        gpu_node = cluster.node_of_device(gpu.device_id)
        ownership.create("big", "w", "t")
        ownership.mark_ready("big", gpu.device_id, 512 << 20)
        t = task("t1", ANY_COMPUTE_KIND, args=(ObjectRef("big"),))
        placed = sched.place(t)
        assert placed.node_id == gpu_node.node_id

    def test_a_copy_in_a_gpu_store_is_priced_from_that_gpu(self):
        """The GPU holding the input moves nothing; its node's CPU would pull
        256 MiB over PCIe."""
        cluster = build_serverful(2, gpus_per_server=1)
        sched = locality_scheduler(cluster)
        sched.ownership.create("big", "w", "t")
        sched.ownership.mark_ready("big", "server1/gpu0", 256 << 20)
        t = task("t1", frozenset({DeviceKind.CPU, DeviceKind.GPU}), args=(ObjectRef("big"),))
        assert sched.place(t).device_id == "server1/gpu0"

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
    @pytest.mark.parametrize("policy", [SchedulingPolicy.ROUND_ROBIN, SchedulingPolicy.LOCALITY])
    def test_gang_gets_distinct_devices(self, policy):
        _, _, sched = make_scheduler(policy)
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


class TestOnePlacementRule:
    def test_policy_gang_member_and_backup_pick_the_same_device(self):
        """On the cluster state a speculative backup is launched from,
        ``place`` with the straggler's device avoided and a gang member kept
        off it choose the device the backup got: one rule, the policy."""
        rt = ServerlessRuntime(
            build_serverful(n_servers=4),
            RuntimeConfig(scheduling=SchedulingPolicy.LOCALITY, speculation_factor=4.0),
        )
        sched = rt.scheduler
        for _ in range(2):  # uneven queues, so the lowest id is not the answer
            sched.lease_sent("server1/cpu", 50e-6)
        sched.lease_sent("server2/cpu", 50e-6)
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
                sched.place(probe, avoid=ev["slow"]).device_id,
                sched.place_gang([straggler, member])["member"].device_id,
            ))

        rt.log.add_observer(on_speculate)
        assert rt.get(rt.submit(lambda: 7, compute_cost=1e-3)) == 7
        assert picks == [("server3/cpu",) * 3]

    @pytest.mark.parametrize("mode", [ResolutionMode.PUSH, ResolutionMode.PULL],
                             ids=lambda m: m.name)
    def test_a_backup_goes_where_its_input_is(self, mode):
        """A straggler's input has a copy on another server: the backup runs
        there and moves nothing, where a backup on the idle head would move
        the 64 MiB input again."""
        rt = ServerlessRuntime(
            build_serverful(n_servers=3),
            RuntimeConfig(resolution=mode, speculation_factor=4.0),
        )
        data = rt.submit(lambda: 1, compute_cost=1e-3, output_nbytes=64 * MB,
                         pinned_device="server2/cpu")
        rt.get(rt.submit(lambda x: x, (data,), compute_cost=1e-3, pinned_device="server1/cpu"))
        assert rt.ownership.locations(data.object_id) == ["server1/cpu", "server2/cpu"]
        assert rt.bytes_moved == 64 * MB
        rt.cluster.device("server1/cpu").slowdown = 500.0
        reader = rt.submit(lambda x: x + 1, (data,), compute_cost=1e-3)
        assert rt.get(reader) == 2
        (speculate,) = rt.log.of_kind("speculate")
        assert (speculate["slow"], speculate["backup"]) == ("server1/cpu", "server2/cpu")
        assert rt.timeline_of(reader).device == "server2/cpu"
        assert rt.bytes_moved == 64 * MB  # the backup read its input where it ran


def full_scan_locality(sched, task, candidates, leases=()):
    """The locality rule as a full scan: every candidate priced for every
    input copy (each at the store that holds it), then the least ``(cost,
    device_id)``.  ``leases`` lists the leases in flight as ``(device id,
    raylet handling, sent at)``; those sent before this instant are queue.  ``Scheduler.place`` must pick the same
    device while pricing only those that can win."""
    deps, now, fetch = task.dependencies, sched.cluster.sim.now, sched.fetch_overhead

    def cost(device):
        device_id = device.device_id
        move_time = 0.0
        for ref in deps:
            if not sched.ownership.contains(ref.object_id):
                continue
            entry = sched.ownership.entry(ref.object_id)
            if entry.state != ValueState.READY or not entry.locations:
                continue
            best = min(
                sched.cluster.network.transfer_time_estimate(
                    src, device_id, entry.nbytes, contended=True
                )
                + (0.0 if fetch is None or src == device_id else fetch(src, device_id))
                for src in sorted(entry.locations)
            )
            move_time += best
        compute_time = device.spec.scaled_duration(task.compute_cost)
        queue_time = device.slots.queued * device.spec.dispatch_overhead
        counted = [handling for dev, handling, sent in leases if dev == device_id and sent < now]
        if counted:
            queue_time += len(counted) * counted[0]
        return (move_time + compute_time + queue_time, device_id)

    return min(candidates, key=cost)


def count_estimates(monkeypatch, network):
    """Wrap ``network.transfer_time_estimate``; the list grows one per call."""
    calls = []
    estimate = network.transfer_time_estimate

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(network, "transfer_time_estimate", counted)
    return calls


COMPUTE_KINDS = (DeviceKind.CPU, DeviceKind.GPU, DeviceKind.FPGA)


def locality_scheduler(cluster):
    devices = [d for d in cluster.all_devices() if d.kind in COMPUTE_KINDS]
    return Scheduler(
        cluster, OwnershipTable(), SchedulingPolicy.LOCALITY, devices, devices[0].device_id,
        MetricsRegistry(),
    )


class TestBoundedPricing:
    def test_a_local_input_is_priced_once_per_copy(self, monkeypatch):
        cluster = build_serverful(64)
        sched = locality_scheduler(cluster)
        sched.ownership.create("small", "driver", "p")
        sched.ownership.mark_ready("small", "server5/cpu", 4096)
        t = task("t", args=(ObjectRef("small"),), compute_cost=1e-4)
        calls = count_estimates(monkeypatch, cluster.network)
        placed = sched.place(t)
        assert placed.device_id == "server5/cpu"
        assert len(calls) <= 1  # one input with one copy
        del calls[:]
        assert full_scan_locality(sched, t, sched.candidates(t)) is placed
        assert len(calls) == 64  # the full scan prices every candidate

    def test_no_ready_input_prices_nothing(self, monkeypatch):
        cluster = build_serverful(64)
        sched = locality_scheduler(cluster)
        sched.ownership.create("pending", "driver", "p")
        calls = count_estimates(monkeypatch, cluster.network)
        sched.lease_sent("server0/cpu", 50e-6)
        cluster.sim.timeout(1e-6)
        cluster.sim.run()  # the next instant: the lease counts
        placed = sched.place(task("t", args=(ObjectRef("pending"), ObjectRef("unknown"))))
        assert placed.device_id == "server1/cpu" and calls == []

    @pytest.mark.parametrize(
        "compute_cost, winner", [(0.5e-6, "server1/cpu"), (1.1e-6, "server1/gpu0")]
    )
    def test_a_win_by_less_than_a_hop(self, compute_cost, winner):
        """The bound is tight: the CPU holding the input and the GPU one PCIe
        hop (the smallest latency) from it differ by less than that hop."""
        cluster = build_serverful(4, gpus_per_server=1)
        sched = locality_scheduler(cluster)
        sched.ownership.create("small", "driver", "p")
        sched.ownership.mark_ready("small", "server1/cpu", 64)
        t = task("t", frozenset({DeviceKind.CPU, DeviceKind.GPU}), args=(ObjectRef("small"),),
                 compute_cost=compute_cost)
        assert cluster.topology.min_link_latency() == 1e-6
        assert sched.place(t).device_id == winner
        assert full_scan_locality(sched, t, sched.candidates(t)).device_id == winner


def random_locality_state(seed):
    """A seeded cluster state for the locality rule: leases in flight and
    tasks waiting for a slot (or no queue at all), blacklisted devices,
    degraded links, flows in flight, objects with one to three copies (or
    none yet) of one chunk up to ``max_chunks``, and PULL's fetch overhead
    or none.  Returns each device's raylet handling cost and the leases as
    ``full_scan_locality`` takes them."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        cluster = build_physical_disagg(
            n_servers=rng.randint(1, 4), n_gpu_cards=rng.randint(0, 3),
            n_fpga_cards=rng.randint(0, 2),
        )
    else:
        cluster = build_serverful(rng.randint(2, 12), gpus_per_server=rng.randint(0, 2))
    sched = locality_scheduler(cluster)
    net, topology = cluster.network, cluster.topology
    devices = list(sched.placeable)
    tied = rng.random() < 0.3  # equal queues and compute: device ids decide
    handling = {d.device_id: rng.choice([d.spec.dispatch_overhead, 1e-4]) for d in devices}
    leases = []
    if not tied:
        for device in devices:
            for _ in range(rng.randint(0, 3)):
                sched.lease_sent(device.device_id, handling[device.device_id])
                leases.append((device.device_id, handling[device.device_id], 0.0))
            for _ in range(rng.randint(0, device.spec.slots + 2)):
                device.slots.request()  # beyond its slots, a task waits
    for device in rng.sample(devices, rng.randint(0, len(devices) // 3)):
        sched.blacklist(device.device_id)
    endpoints = [d.device_id for d in cluster.all_devices()]
    for _ in range(rng.randint(0, 4)):
        hops = topology.route(*rng.sample(endpoints, 2))
        net.degrade_link(*rng.choice(hops), rng.uniform(1.0, 8.0))
    payload = net.chunk_bytes * net.max_chunks
    for _ in range(rng.randint(0, 6)):
        net.transfer(*rng.sample(endpoints, 2), rng.randint(1, 2 * payload))
    cluster.sim.run(until=rng.uniform(0.0, 2e-4))
    # every device but a DPU has a store; two copies may sit on one node
    stores = sorted(d.device_id for d in cluster.all_devices() if d.kind is not DeviceKind.DPU)
    for i in range(6):
        oid = f"o{i}"
        sched.ownership.create(oid, "driver", f"p{i}")
        if rng.random() < 0.2:
            continue  # PENDING
        copies = rng.sample(stores, min(len(stores), rng.randint(1, 3)))
        nbytes = rng.choice([0, 1, net.chunk_bytes, payload, rng.randint(1, 2 * payload)])
        sched.ownership.mark_ready(oid, copies[0], nbytes)
        for store_id in copies[1:]:
            sched.ownership.add_location(oid, store_id)
    if rng.random() < 0.5:  # PULL: a seeded per-pair protocol price

        def fetch_overhead(src, dst):
            return 1e-6 * (1 + (sum(map(ord, src + dst)) % 7))

        sched.fetch_overhead = fetch_overhead
    return rng, sched, tied, handling, leases


class TestLocalityMatchesFullScan:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_device_as_the_full_scan(self, seed):
        rng, sched, tied, handling, leases = random_locality_state(seed)
        now = sched.cluster.sim.now
        objects = [f"o{i}" for i in range(6)] + ["unknown"]
        for j in range(25):
            kinds = frozenset(rng.sample(COMPUTE_KINDS, rng.randint(1, 3)))
            deps = tuple(ObjectRef(oid) for oid in rng.sample(objects, rng.randint(0, 3)))
            compute = 0.0 if tied else rng.choice([0.0, 1e-5, 1e-3, 0.1])
            t = task(f"t{j}", kinds, args=deps, compute_cost=compute)
            try:
                candidates = sched.candidates(t)
            except PlacementError:
                continue
            placed = sched.place(t)
            assert placed is full_scan_locality(sched, t, candidates, leases), (seed, j)
            if not tied:  # sent in this instant: no placement after it counts it
                sched.lease_sent(placed.device_id, handling[placed.device_id])
                leases.append((placed.device_id, handling[placed.device_id], now))
