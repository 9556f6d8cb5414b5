"""Tests for the serverless runtime: tasks, futures, actors, gangs."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import build_physical_disagg, build_serverful
from repro.cluster.hardware import DeviceKind
from repro.runtime import (
    Generation,
    ResolutionMode,
    RuntimeConfig,
    SchedulingPolicy,
    ServerlessRuntime,
    TaskCancelledError,
    TaskError,
    TaskState,
)
from repro.runtime.scheduler import PlacementError


def make_runtime(**cfg) -> ServerlessRuntime:
    return ServerlessRuntime(build_physical_disagg(), RuntimeConfig(**cfg))


ALL_CONFIGS = [
    dict(generation=Generation.GEN1, resolution=ResolutionMode.PULL),
    dict(generation=Generation.GEN1, resolution=ResolutionMode.PUSH),
    dict(generation=Generation.GEN2, resolution=ResolutionMode.PULL),
    dict(generation=Generation.GEN2, resolution=ResolutionMode.PUSH),
]


class TestTasks:
    @pytest.mark.parametrize("cfg", ALL_CONFIGS)
    def test_chain_produces_correct_value(self, cfg):
        rt = make_runtime(**cfg)
        a = rt.put([1, 2, 3, 4])
        doubled = rt.submit(lambda xs: [x * 2 for x in xs], (a,), name="double")
        total = rt.submit(sum, (doubled,), name="sum")
        assert rt.get(total) == 20

    def test_get_list_of_refs(self):
        rt = make_runtime()
        refs = [rt.submit(lambda i=i: i * i, name=f"sq{i}") for i in range(5)]
        assert rt.get(refs) == [0, 1, 4, 9, 16]

    def test_task_args_passed_by_value(self):
        rt = make_runtime()
        ref = rt.submit(lambda a, b: a + b, (3, 4))
        assert rt.get(ref) == 7

    def test_kwargs_and_nested_refs(self):
        rt = make_runtime()
        a = rt.put(10)
        ref = rt.submit(lambda xs, scale=1: sum(xs) * scale, ([a, a],), {"scale": 2})
        assert rt.get(ref) == 40

    def test_fanout_fanin(self):
        rt = make_runtime()
        parts = [rt.submit(lambda i=i: list(range(i)), name=f"p{i}") for i in range(1, 5)]
        merged = rt.submit(lambda *ls: sum(len(l) for l in ls), tuple(parts))
        assert rt.get(merged) == 1 + 2 + 3 + 4

    def test_virtual_time_advances(self):
        rt = make_runtime()
        ref = rt.submit(lambda: 1, compute_cost=0.5)
        rt.get(ref)
        assert rt.sim.now >= 0.5

    def test_payload_exception_surfaces_at_get(self):
        rt = make_runtime()

        def boom():
            raise ValueError("kaboom")

        ref = rt.submit(boom)
        with pytest.raises(TaskError, match="kaboom"):
            rt.get(ref)
        assert rt.tasks_failed == 1

    def test_unknown_ref_raises(self):
        from repro.runtime.object_ref import ObjectRef

        rt = make_runtime()
        with pytest.raises(KeyError):
            rt.get(ObjectRef("obj-999999"))

    def test_accelerator_task_lands_on_accelerator(self):
        rt = make_runtime(scheduling=SchedulingPolicy.LOCALITY)
        ref = rt.submit(
            lambda: 1, supported_kinds=frozenset({DeviceKind.FPGA}), name="fpga_op"
        )
        rt.get(ref)
        assert "fpga" in rt.timeline_of(ref).device

    def test_timeline_milestones_ordered(self):
        rt = make_runtime()
        a = rt.put(1)
        ref = rt.submit(lambda x: x, (a,), compute_cost=1e-3)
        rt.get(ref)
        tl = rt.timeline_of(ref)
        assert tl.start <= tl.dispatched <= tl.inputs_ready <= tl.end
        assert tl.latency > 0
        assert tl.device

    def test_wait_returns_ready_subset(self):
        rt = make_runtime()
        fast = rt.submit(lambda: "fast", compute_cost=1e-5)
        slow = rt.submit(lambda: "slow", compute_cost=1.0)
        ready, not_ready = rt.wait([fast, slow], num_returns=1)
        assert ready == [fast]
        assert slow in not_ready
        assert rt.sim.now < 1.0

    def test_wait_num_returns_validation(self):
        rt = make_runtime()
        ref = rt.submit(lambda: 1)
        with pytest.raises(ValueError):
            rt.wait([ref], num_returns=2)

    @pytest.mark.parametrize("cfg", ALL_CONFIGS)
    @pytest.mark.parametrize("pin", ["blacklisted", "ghost"])
    def test_a_pin_nothing_can_place_is_refused_before_the_task_opens(self, cfg, pin):
        rt = make_runtime(**cfg)
        a = rt.put(1)
        device = rt.scheduler.placeable[0].device_id
        if pin == "blacklisted":
            rt.scheduler.blacklist(device)
        with pytest.raises(PlacementError):
            rt.submit(lambda x: x, (a,), pinned_device=device if pin == "blacklisted" else pin)
        assert rt._open_tasks == 0 and rt._ctxs == {}
        assert not rt.lineage.consumers(a.object_id)
        rt.scheduler.unblacklist(device)  # the refusal left nothing to retry around
        assert rt.get(rt.submit(lambda x: x + 1, (a,), pinned_device=device)) == 2
        assert rt._open_tasks == 0 and rt._ctxs == {}


class TestPut:
    def test_put_is_immediately_ready(self):
        rt = make_runtime()
        ref = rt.put({"k": 1})
        assert rt.ownership.is_ready(ref.object_id)
        assert rt.get(ref) == {"k": 1}

    def test_put_unblocks_waiting_task(self):
        rt = make_runtime(resolution=ResolutionMode.PULL)
        a = rt.put(5)
        ref = rt.submit(lambda x: x + 1, (a,))
        assert rt.get(ref) == 6


class TestActors:
    @pytest.mark.parametrize("cfg", ALL_CONFIGS)
    def test_method_calls_serialize_in_order(self, cfg):
        rt = make_runtime(**cfg)

        class Counter:
            def __init__(self):
                self.history = []

        def record(state, value):
            state.history.append(value)
            return list(state.history)

        actor = rt.create_actor(Counter)
        refs = [actor.call(record, i) for i in range(5)]
        results = rt.get(refs)
        assert results[-1] == [0, 1, 2, 3, 4]

    def test_actor_state_persists_across_calls(self):
        rt = make_runtime()

        class Acc:
            def __init__(self):
                self.total = 0

        def add(state, value):
            state.total += value
            return state.total

        actor = rt.create_actor(Acc)
        rt.get(actor.call(add, 10))
        assert rt.get(actor.call(add, 5)) == 15

    def test_two_actors_are_independent(self):
        rt = make_runtime()

        class Cell:
            def __init__(self):
                self.v = 0

        def setv(state, v):
            state.v = v
            return state.v

        a, b = rt.create_actor(Cell), rt.create_actor(Cell)
        rt.get([a.call(setv, 1), b.call(setv, 2)])
        def getv(state):
            return state.v
        assert rt.get(a.call(getv)) == 1
        assert rt.get(b.call(getv)) == 2

    def test_actor_methods_pinned_to_one_device(self):
        rt = make_runtime()

        class S:
            pass

        def noop(state):
            return 1

        actor = rt.create_actor(S)
        refs = [actor.call(noop) for _ in range(4)]
        rt.get(refs)
        devices = {rt.timeline_of(r).device for r in refs}
        assert devices == {actor.device_id}


class TestGang:
    def test_gang_runs_on_distinct_devices(self):
        rt = make_runtime()
        refs = [
            rt.submit(
                lambda i=i: i,
                gang_group="spmd",
                supported_kinds=frozenset({DeviceKind.FPGA}),
                name=f"rank{i}",
            )
            for i in range(4)
        ]
        rt.launch_gang("spmd")
        assert rt.get(refs) == [0, 1, 2, 3]
        devices = {rt.timeline_of(r).device for r in refs}
        assert len(devices) == 4

    @pytest.mark.parametrize("resolution", [ResolutionMode.PUSH, ResolutionMode.PULL])
    def test_gang_waiting_for_an_argument_keeps_its_devices(self, resolution):
        """Under PULL a member whose argument is not READY parks; when it is
        released it runs where ``launch_gang`` placed it, not wherever a
        second, per-member placement would put it."""
        rt = ServerlessRuntime(build_serverful(n_servers=4), RuntimeConfig(resolution=resolution))
        data = rt.submit(lambda: 7, compute_cost=5e-3, output_nbytes=1 << 20, name="producer")
        refs = [
            rt.submit(lambda x, i=i: x + i, (data,), gang_group="spmd", name=f"rank{i}")
            for i in range(4)
        ]
        rt.launch_gang("spmd")
        assert rt.get(refs) == [7, 8, 9, 10]
        devices = sorted(rt.timeline_of(r).device for r in refs)
        assert devices == [f"server{i}/cpu" for i in range(4)]

    def test_gang_tasks_do_not_run_before_launch(self):
        rt = make_runtime()
        ref = rt.submit(lambda: 1, gang_group="g2")
        rt.run()
        assert not rt.ownership.is_ready(ref.object_id)
        rt.launch_gang("g2")
        assert rt.get(ref) == 1

    def test_unknown_gang_raises(self):
        rt = make_runtime()
        with pytest.raises(KeyError):
            rt.launch_gang("ghost")

    @pytest.mark.parametrize("resolution", [ResolutionMode.PUSH, ResolutionMode.PULL])
    def test_a_member_cancelled_before_launch_stays_cancelled(self, resolution):
        rt = ServerlessRuntime(build_serverful(n_servers=4), RuntimeConfig(resolution=resolution))
        ran = []
        refs = [
            rt.submit(lambda i=i: ran.append(i) or i, gang_group="g", name=f"rank{i}")
            for i in range(3)
        ]
        assert rt.cancel(refs[1])
        assert rt.launch_gang("g") == refs  # every member's ref, in submission order
        rt.sim.run()
        assert ran == [0, 2]
        assert rt.task_state(refs[1]) is TaskState.CANCELLED
        assert (rt.tasks_cancelled, rt.tasks_finished) == (1, 2)
        assert rt.get([refs[0], refs[2]]) == [0, 2]
        with pytest.raises(TaskCancelledError):
            rt.get(refs[1])

    def test_a_gang_with_every_member_concluded_is_not_pending(self):
        rt = ServerlessRuntime(build_serverful(n_servers=2))
        ref = rt.submit(lambda: 1, gang_group="g")
        assert rt.cancel(ref)
        with pytest.raises(KeyError):
            rt.launch_gang("g")


class TestServerfulCluster:
    def test_runtime_works_on_plain_servers(self):
        rt = ServerlessRuntime(build_serverful(n_servers=2))
        ref = rt.submit(lambda: "ok")
        assert rt.get(ref) == "ok"

    def test_spill_to_memory_blade(self):
        # store overflow spills to the disaggregated memory blade
        cluster = build_physical_disagg(n_servers=1)
        rt = ServerlessRuntime(cluster)
        cpu = cluster.node("server0").first_of_kind(DeviceKind.CPU)
        big = cpu.spec.memory_bytes // 2 + 1
        r1 = rt.submit(lambda: "a", output_nbytes=big, pinned_device=cpu.device_id)
        r2 = rt.submit(lambda: "b", output_nbytes=big, pinned_device=cpu.device_id)
        assert rt.get([r1, r2]) == ["a", "b"]
        raylet = rt.raylet_for_device(cpu.device_id)
        assert raylet.store_of(cpu.device_id).spilled_out >= 1
