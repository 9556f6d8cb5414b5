"""Who reads an object is recorded once (DESIGN.md "Who reads an object").

* **Differential.**  The parent commit re-tested every parked task's every
  dependency on every poke.  That scan is kept here, as a patch over the
  release pass, and is the reference: on seeded DAGs under PULL — clean, under
  chaos, with a mid-run cancel, through an HA failover, with an admission
  overflow re-routing in the middle of a pass — the index must replay it
  exactly, early dispatches included.
* **Cost, by counting.**  Readiness is tested a bounded number of times per
  task, and a cancellation touches the readers, not the task table.
* **The edge.**  ``LineageGraph.consumers``: submission order, each reader once.
* **A parked task that concludes stops waiting.**
"""

from __future__ import annotations

import random

import pytest
from conftest import assert_recovery_drained
from test_data_plane import assert_data_plane_drained

from repro.chaos import ChaosMonkey, ChaosSchedule
from repro.cluster.cluster import build_serverful
from repro.runtime import (
    AdmissionPolicy,
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
    TaskCancelledError,
    TaskError,
)
from repro.runtime.lineage import LineageGraph
from repro.runtime.task import TERMINAL_STATES, TaskSpec, TaskState

PULL = ResolutionMode.PULL
CHAOS = dict(
    resolution=PULL, heartbeat_interval=1e-3, heartbeat_miss_threshold=3,
    max_retries=10, retry_backoff_base=2e-3,
)


# -- the reference -----------------------------------------------------------


def rescan_on_every_poke(rt: ServerlessRuntime, early: list) -> None:
    """Give ``rt`` the parent commit's ``_on_object_ready``: whatever object is
    poked, every parked task has every dependency re-tested, in parking order.
    ``early`` collects the dispatches made by the poke of an object the task
    does not read (its own argument turned READY at the commit; the ``done``
    report that would have poked it is still in flight)."""
    data, is_ready = rt.data, rt.ownership.is_ready

    def _on_object_ready(object_id: str) -> None:
        for hook in list(rt.object_ready_hooks):
            hook(object_id)
        if not data.waiting:
            return
        visited = 0
        while True:  # the parent walked a list that a re-route could append to mid-scan
            parked = min((p for p in data.waiting.values() if p[0] > visited), default=None)
            if parked is None:
                break
            visited, ctx, preplaced = parked
            if all(is_ready(ref.object_id) for ref in ctx.spec.dependencies):
                del data.waiting[ctx.spec.task_id]
                if all(ref.object_id != object_id for ref in ctx.spec.dependencies):
                    early.append(ctx.spec.task_id)
                rt._place_or_retry(rt._dispatch, ctx, preplaced)
        data._m_waiting.set(float(len(data.waiting)))

    rt._on_object_ready = _on_object_ready


# -- seeded programs ---------------------------------------------------------


def seeded_dag(seed: int, n: int) -> list:
    """The ``tests/test_properties.py`` DAG shape from a seeded generator:
    each node is a constant or combines two earlier nodes (maybe the same one
    twice), with a drawn compute cost."""
    rng = random.Random(seed)
    nodes = []
    for i in range(n):
        op = rng.choice(["const", "add", "mul"])
        cost = rng.choice([2e-4, 1e-3, 3e-3])
        if i == 0 or op == "const":
            nodes.append(("const", rng.randint(-5, 5), cost))
        else:
            nodes.append((op, rng.randrange(i), rng.randrange(i), cost))
    return nodes


def combine(op: str, x: int, y: int) -> int:
    return (x + y if op == "add" else x * y) % 1009


def eval_direct(nodes: list) -> list:
    values = []
    for node in nodes:
        if node[0] == "const":
            values.append(node[1])
        else:
            values.append(combine(node[0], values[node[1]], values[node[2]]))
    return values


def submit_dag(rt: ServerlessRuntime, nodes: list) -> list:
    refs = []
    for i, node in enumerate(nodes):
        if node[0] == "const":
            ref = rt.submit(lambda v=node[1]: v, compute_cost=node[2], name=f"n{i}")
        else:
            ref = rt.submit(
                lambda x, y, op=node[0]: combine(op, x, y),
                (refs[node[1]], refs[node[2]]),
                compute_cost=node[3],
                name=f"n{i}",
            )
        refs.append(ref)
    return refs


def outcome(rt: ServerlessRuntime, refs: list) -> list:
    """Each ref's value, or how its task ended."""
    rt.sim.run()
    out = []
    for ref in refs:
        try:
            out.append(rt.get(ref))
        except (TaskCancelledError, TaskError) as exc:
            out.append(type(exc).__name__)
    return out


# -- scenarios: each builds a runtime, runs a program, returns what it computed


def clean(seed: int, arm) -> tuple:
    rt = ServerlessRuntime(build_serverful(n_servers=4), RuntimeConfig(resolution=PULL))
    arm(rt)
    nodes = seeded_dag(seed, 120)
    values = outcome(rt, submit_dag(rt, nodes))
    assert values == eval_direct(nodes)
    return rt, values


def chaos(seed: int, arm) -> tuple:
    """Crashes, a partition and a straggler under 1 ms heartbeats, with
    retries, speculation and lineage replays (no reliable cache)."""
    rt = ServerlessRuntime(
        build_serverful(n_servers=4), RuntimeConfig(speculation_factor=4.0, **CHAOS)
    )
    arm(rt)
    fallible = ["server1", "server2", "server3"]  # never the head
    schedule = ChaosSchedule.random(
        seed, node_ids=fallible, device_ids=[f"{n}/cpu" for n in fallible],
        horizon=4e-2, n_crashes=2, n_partitions=1, n_stragglers=1,
    )
    ChaosMonkey(rt, schedule).arm()
    nodes = seeded_dag(seed, 80)
    values = outcome(rt, submit_dag(rt, nodes))
    assert values == eval_direct(nodes)
    assert rt.log.count("detector_stalled") == 0  # a stall is a bug, not a recovery path
    assert_recovery_drained(rt)
    return rt, values


def cancel_mid_run(seed: int, arm) -> tuple:
    rt = ServerlessRuntime(build_serverful(n_servers=4), RuntimeConfig(resolution=PULL))
    arm(rt)
    nodes = seeded_dag(seed, 120)
    refs = submit_dag(rt, nodes)
    rt.run(until=4e-3)
    open_producers = [
        ref for ref in refs
        if rt.task_state(ref) not in TERMINAL_STATES and rt.lineage.consumers(ref.object_id)
    ]
    assert rt.cancel(open_producers[0]) and rt.cancel(open_producers[len(open_producers) // 2])
    values = outcome(rt, refs)
    assert "TaskCancelledError" in values and rt.tasks_finished > 0
    return rt, values


def ha_failover(seed: int, arm) -> tuple:
    rt = ServerlessRuntime(build_serverful(n_servers=5), RuntimeConfig(ha_replicas=2, **CHAOS))
    arm(rt)
    ChaosMonkey(rt, ChaosSchedule().fail_gcs(at=6e-3)).arm()
    nodes = seeded_dag(seed, 80)
    values = outcome(rt, submit_dag(rt, nodes))
    assert rt.ha.failovers == 1 and values == eval_direct(nodes)
    assert rt.log.count("detector_stalled") == 0
    assert_recovery_drained(rt)
    return rt, values


def overflow_reroutes_during_a_pass(seed: int, arm) -> tuple:
    """The admission queue is full, two tasks sit in its overflow.  A release
    pass dispatches a consumer pinned to a dead device; with no retries left
    it fails *inside the pass*, its slot frees, and the overflow pump routes
    the next parked submission — which parks in the waiting room mid-pass."""
    rt = ServerlessRuntime(
        build_serverful(n_servers=2),
        RuntimeConfig(
            resolution=PULL, max_retries=0, admission_control=True, admission_queue_depth=3,
            admission_policy=AdmissionPolicy.QUEUE_WITH_DEADLINE, admission_overflow_depth=8,
        ),
    )
    arm(rt)
    holds_inside_a_pass = []
    poke, hold = rt._on_object_ready, rt.data.hold
    depth = [0]

    def counting_poke(object_id):
        depth[0] += 1
        try:
            poke(object_id)
        finally:
            depth[0] -= 1

    def counting_hold(ctx, preplaced):
        held = hold(ctx, preplaced)
        if held and depth[0]:
            holds_inside_a_pass.append(ctx.spec.name)
        return held

    rt._on_object_ready, rt.data.hold = counting_poke, counting_hold
    p = rt.submit(lambda: 1, compute_cost=2e-3, pinned_device="server0/cpu", name="p")
    doomed = rt.submit(lambda x: x, (p,), pinned_device="server1/cpu", name="doomed")
    q = rt.submit(lambda: 2, compute_cost=9e-3, pinned_device="server0/cpu", name="q")
    x = rt.submit(lambda v: v + 1, (q,), name="x")  # overflow; admitted when p closes
    y = rt.submit(lambda v: v + 2, (q,), name="y")  # overflow; admitted when doomed fails
    rt.fail_device("server1/cpu")
    values = outcome(rt, [p, doomed, q, x, y])
    assert values == [1, "TaskError", 2, 3, 4]
    assert holds_inside_a_pass == ["y"]
    return rt, values


# (scenario, seed, at least this many early dispatches in the reference run)
SCENARIOS = [
    (clean, 1, 1), (clean, 2, 1), (chaos, 3, 1), (chaos, 11, 1), (cancel_mid_run, 4, 1),
    (ha_failover, 5, 0), (overflow_reroutes_during_a_pass, 0, 0),
]


@pytest.mark.parametrize("scenario,seed,early_at_least", SCENARIOS)
def test_the_index_replays_the_full_scan(scenario, seed, early_at_least):
    early: list = []
    rt, values = scenario(seed, lambda rt: None)
    ref_rt, ref_values = scenario(seed, lambda rt: rescan_on_every_poke(rt, early))
    # the commit -> ``done`` window was exercised: the reference dispatched on
    # the poke of an object the task does not read, which a
    # wake-the-readers-of-the-poked-object index would get wrong
    assert len(early) >= early_at_least
    assert values == ref_values
    assert rt.log.signature() == ref_rt.log.signature()
    dispatched = {t: c.timeline.dispatched for t, c in rt._ctxs.items()}
    assert dispatched == {t: c.timeline.dispatched for t, c in ref_rt._ctxs.items()}
    assert rt.net.stats == ref_rt.net.stats
    assert rt.sim.now == ref_rt.sim.now
    assert rt.metrics_summary() == ref_rt.metrics_summary()
    assert (rt.tasks_retried, rt.lineage.replays) == (ref_rt.tasks_retried, ref_rt.lineage.replays)
    assert_data_plane_drained(rt)


# -- cost, by counting ---------------------------------------------------------


class _CountingTable(dict):
    walks = 0

    def values(self):
        self.walks += 1
        return super().values()


class TestCostByCounting:
    def test_readiness_is_tested_a_bounded_number_of_times_per_task(self):
        rt = ServerlessRuntime(build_serverful(n_servers=4), RuntimeConfig(resolution=PULL))
        calls = [0]
        is_ready = rt.ownership.is_ready

        def counting_is_ready(object_id):
            calls[0] += 1
            return is_ready(object_id)

        rt.ownership.is_ready = counting_is_ready
        nodes = seeded_dag(7, 600)
        assert outcome(rt, submit_dag(rt, nodes)) == eval_direct(nodes)
        assert calls[0] <= 10 * len(nodes), calls[0]  # ~4 per task; the full scan: ~280

    def test_a_cancellation_touches_the_readers_not_the_task_table(self):
        rt = ServerlessRuntime(build_serverful(n_servers=2), RuntimeConfig(resolution=PULL))
        rt.get([rt.submit(lambda i=i: i, compute_cost=1e-5) for i in range(2000)])
        producer = rt.submit(lambda: 1, compute_cost=1e-2, name="producer")
        readers = [rt.submit(lambda x: x, (producer,), name=f"reader{i}") for i in range(2)]
        rt.run(until=rt.sim.now + 1e-3)
        rt._ctxs = table = _CountingTable(rt._ctxs)
        touched = []
        lookup = rt._readers

        def recording_readers(object_id):
            found = lookup(object_id)
            touched.extend(found)
            return found

        rt._readers = recording_readers
        assert rt.cancel(producer)
        assert table.walks == 0
        assert [c.spec.name for c in touched] == ["reader0", "reader1"]
        assert all(rt.task_state(r) is TaskState.CANCELLED for r in readers)


# -- the edge --------------------------------------------------------------------


class TestConsumers:
    @staticmethod
    def spec(task_id: str, *args) -> TaskSpec:
        return TaskSpec(task_id=task_id, func=lambda *a: None, args=args)

    def test_submission_order_each_reader_once(self):
        from repro.runtime.object_ref import ObjectRef

        a, b = ObjectRef("a"), ObjectRef("b")
        graph = LineageGraph()
        graph.record(self.spec("t1"), ["a"])
        graph.record(self.spec("t2", a), ["b"])
        assert list(graph.consumers("a")) == ["t2"]
        graph.record(self.spec("t3", a, [b, a], {"k": a}), ["c"])  # a passed three times
        graph.record(self.spec("t4", b, a), ["d"])
        assert list(graph.consumers("a")) == ["t2", "t3", "t4"]
        assert list(graph.consumers("b")) == ["t3", "t4"]
        assert list(graph.consumers("c")) == [] and list(graph.consumers("nobody")) == []

    def test_a_replay_keeps_its_position(self):
        rt = ServerlessRuntime(build_serverful(n_servers=3), RuntimeConfig(resolution=PULL))
        a = rt.submit(lambda: 1, pinned_device="server1/cpu", name="a")
        readers = [
            rt.submit(lambda x, i=i: x + i, (a,), pinned_device="server1/cpu", name=f"r{i}")
            for i in range(3)
        ]
        assert rt.get(readers) == [1, 2, 3]
        before = list(rt.lineage.consumers(a.object_id))
        first_lives = rt._readers(a.object_id)
        rt.fail_node("server1")
        rt.restart_node("server1")
        assert rt.get(readers[1]) == 2  # lineage replays a, then r1
        assert rt.lineage.replays == 2
        assert list(rt.lineage.consumers(a.object_id)) == before
        now = rt._readers(a.object_id)
        assert [c.spec.name for c in now] == ["r0", "r1", "r2"]
        assert now[0] is first_lives[0] and now[2] is first_lives[2]
        assert now[1] is not first_lives[1]  # the live incarnation, in the old one's place


# -- a parked task that concludes stops waiting ----------------------------------


class TestParkedThenConcluded:
    @staticmethod
    def waiting_gauge(rt: ServerlessRuntime) -> float:
        return rt.metrics_summary()["skadi_scheduler_waiting_tasks"]

    def test_cancelling_the_producer_empties_the_waiting_room(self):
        """No commit follows the cancellation, so nothing would ever rescan."""
        rt = ServerlessRuntime(build_serverful(n_servers=2), RuntimeConfig(resolution=PULL))
        producer = rt.submit(lambda: 1, compute_cost=1e-2)
        mid = rt.submit(lambda x: x, (producer,))
        tail = rt.submit(lambda x: x, (mid,))
        rt.run(until=1e-3)
        assert self.waiting_gauge(rt) == 2.0
        assert rt.cancel(producer)
        rt.sim.run()
        assert rt.task_state(tail) is TaskState.CANCELLED
        assert self.waiting_gauge(rt) == 0.0
        assert_data_plane_drained(rt)

    def test_failing_every_open_task_empties_the_waiting_room(self):
        """An unreplicated head kill fails the parked tasks; no commit follows."""
        rt = ServerlessRuntime(build_serverful(n_servers=3), RuntimeConfig(**CHAOS))
        ChaosMonkey(rt, ChaosSchedule().fail_gcs(at=2e-3)).arm()
        ref = rt.submit(lambda: 0, compute_cost=4e-3)
        for _ in range(5):
            ref = rt.submit(lambda x: x + 1, (ref,), compute_cost=4e-3)
        rt.sim.run()
        assert rt.task_state(ref) is TaskState.FAILED
        assert self.waiting_gauge(rt) == 0.0
        assert_data_plane_drained(rt)
