"""Tests for the heterogeneity-aware ownership table and lineage graph."""

from __future__ import annotations

import gc
import random

import pytest

from repro.runtime.lineage import LineageGraph, UnrecoverableObjectError
from repro.runtime.object_ref import ObjectRef
from repro.runtime.ownership import OwnershipTable, ValueState
from repro.runtime.task import TaskSpec


class TestOwnershipTable:
    def test_create_starts_pending(self):
        table = OwnershipTable()
        entry = table.create("o1", owner="driver", task_id="t1")
        assert entry.state == ValueState.PENDING
        assert not table.is_ready("o1")

    def test_duplicate_create_rejected(self):
        table = OwnershipTable()
        table.create("o1", "driver", "t1")
        with pytest.raises(KeyError):
            table.create("o1", "driver", "t2")

    def test_mark_ready_records_device_fields(self):
        """Figure 3: the table gains DeviceID and DeviceHandle columns; a
        copy's location is the id of the store (the device) that holds it."""
        table = OwnershipTable()
        table.create("o1", "w1", "t1")
        entry = table.mark_ready("o1", "gpucard0/gpu0", 1024)
        assert entry.state == ValueState.READY
        assert entry.device_id == "gpucard0/gpu0"
        assert entry.device_handle is not None
        assert entry.nbytes == 1024
        assert table.locations("o1") == ["gpucard0/gpu0"]

    def test_device_handles_are_unique(self):
        table = OwnershipTable()
        table.create("a", "w", "t1")
        table.create("b", "w", "t2")
        ha = table.mark_ready("a", "n0/d0", 1).device_handle
        hb = table.mark_ready("b", "n0/d1", 1).device_handle
        assert ha != hb

    def test_drop_last_location_marks_lost(self):
        table = OwnershipTable()
        table.create("o1", "w", "t")
        table.mark_ready("o1", "n0/cpu", 10)
        table.drop_location("o1", "n0/cpu")
        assert table.entry("o1").state == ValueState.LOST

    def test_extra_location_keeps_ready(self):
        table = OwnershipTable()
        table.create("o1", "w", "t")
        table.mark_ready("o1", "n0/cpu", 10)
        table.add_location("o1", "n1/cpu")
        table.drop_location("o1", "n0/cpu")
        assert table.is_ready("o1")
        assert table.locations("o1") == ["n1/cpu"]

    def test_drop_node_reports_lost_objects(self):
        table = OwnershipTable()
        for oid in ("a", "b", "c"):
            table.create(oid, "w", f"t-{oid}")
        table.mark_ready("a", "n0/cpu", 1)
        table.add_location("a", "n0/gpu0")
        table.mark_ready("b", "n0/gpu0", 1)
        table.add_location("b", "n1/cpu")
        table.mark_ready("c", "n2/cpu", 1)
        lost = table.drop_node("n0")  # every store of the node
        assert lost == ["a"]
        assert table.is_ready("b") and table.is_ready("c")
        assert table.locations("b") == ["n1/cpu"]
        assert table.entry("b").device_id is None  # severed: it pointed into n0
        assert table.entry("c").device_id == "n2/cpu"

    def test_drop_device_drops_only_that_store(self):
        table = OwnershipTable()
        for oid in ("a", "b"):
            table.create(oid, "w", f"t-{oid}")
        table.mark_ready("a", "n0/gpu0", 1)
        table.mark_ready("b", "n0/gpu0", 1)
        table.add_location("b", "n0/cpu")  # a sibling store on the same node
        seen = []
        table.observers.append(lambda *op: seen.append(op))
        assert table.drop_device("n0/gpu0") == ["a"]
        assert table.entry("a").state is ValueState.LOST and not table.locations("a")
        assert table.locations("b") == ["n0/cpu"]
        assert table.entry("a").device_id is table.entry("b").device_id is None
        assert table.entry("b").device_handle is None
        assert seen == [
            ("drop_device", "a", "READY", "LOST", 0, "gcs"),
            ("drop_device", "b", "READY", "READY", 1, "gcs"),
        ]

    def test_add_location_revives_lost(self):
        table = OwnershipTable()
        table.create("o1", "w", "t")
        table.mark_ready("o1", "n0/cpu", 10)
        table.drop_node("n0")
        table.add_location("o1", "n1/cpu")
        assert table.is_ready("o1")

    def test_reset_pending_clears_copies_and_tells_the_observer(self):
        table = OwnershipTable()
        table.create("o1", "w", "t")
        table.mark_ready("o1", "n0/cpu", 10)
        seen = []
        table.observers.append(lambda *op: seen.append(op))
        table.reset_pending("o1")
        entry = table.entry("o1")
        assert entry.state is ValueState.PENDING and not entry.locations
        assert entry.device_id is entry.device_handle is None
        assert seen == [("replay_reset", "o1", "READY", "PENDING", 0, "gcs")]

    def test_each_write_names_its_writer(self):
        table = OwnershipTable()
        seen = []
        table.observers.append(lambda *op: seen.append((op[0], op[-1])))
        table.create("o1", "w", "t")
        table.mark_ready("o1", "n0/cpu", 10, "attempt:t#1")
        table.add_location("o1", "n1/cpu", "push:o1")
        table.add_location("o1", "n2/cpu")
        table.drop_location("o1", "n2/cpu")
        table.free("o1", "driver")
        assert seen == [
            ("create", "driver"), ("mark_ready", "attempt:t#1"), ("add_location", "push:o1"),
            ("add_location", "gcs"), ("drop_location", "gcs"), ("free", "driver"),
        ]

    def test_unknown_object_raises(self):
        table = OwnershipTable()
        with pytest.raises(KeyError):
            table.entry("ghost")


def _task(task_id, func=lambda: None, args=()):
    return TaskSpec(task_id=task_id, func=func, args=args)


class TestLineageGraph:
    def test_producer_lookup(self):
        lineage = LineageGraph()
        t = _task("t1")
        lineage.record(t, ["o1"])
        assert lineage.producer("o1") is t
        assert lineage.producer("ghost") is None
        assert lineage.outputs_of("t1") == ["o1"]

    def test_plan_recovers_chain_in_dependency_order(self):
        table = OwnershipTable()
        lineage = LineageGraph()
        t1 = _task("t1")
        t2 = _task("t2", args=(ObjectRef("o1"),))
        t3 = _task("t3", args=(ObjectRef("o2"),))
        for t, oid in ((t1, "o1"), (t2, "o2"), (t3, "o3")):
            table.create(oid, "w", t.task_id)
            lineage.record(t, [oid])
        # everything lost
        plan = lineage.plan_recovery("o3", table)
        assert [t.task_id for t in plan] == ["t1", "t2", "t3"]

    def test_plan_stops_at_ready_objects(self):
        table = OwnershipTable()
        lineage = LineageGraph()
        t1, t2 = _task("t1"), _task("t2", args=(ObjectRef("o1"),))
        for t, oid in ((t1, "o1"), (t2, "o2")):
            table.create(oid, "w", t.task_id)
            lineage.record(t, [oid])
        table.mark_ready("o1", "n0/cpu", 1)
        plan = lineage.plan_recovery("o2", table)
        assert [t.task_id for t in plan] == ["t2"]

    def test_diamond_recovers_each_task_once(self):
        table = OwnershipTable()
        lineage = LineageGraph()
        base = _task("base")
        left = _task("left", args=(ObjectRef("ob"),))
        right = _task("right", args=(ObjectRef("ob"),))
        join = _task("join", args=(ObjectRef("ol"), ObjectRef("or")))
        for t, oid in ((base, "ob"), (left, "ol"), (right, "or"), (join, "oj")):
            table.create(oid, "w", t.task_id)
            lineage.record(t, [oid])
        plan = lineage.plan_recovery("oj", table)
        ids = [t.task_id for t in plan]
        assert ids.count("base") == 1
        assert ids.index("base") < ids.index("left")
        assert ids.index("base") < ids.index("right")
        assert ids[-1] == "join"

    def _diamond(self):
        table = OwnershipTable()
        lineage = LineageGraph()
        base = _task("base")
        left = _task("left", args=(ObjectRef("ob"),))
        right = _task("right", args=(ObjectRef("ob"),))
        join = _task("join", args=(ObjectRef("ol"), ObjectRef("or")))
        for t, oid in ((base, "ob"), (left, "ol"), (right, "or"), (join, "oj")):
            table.create(oid, "w", t.task_id)
            lineage.record(t, [oid])
        return table, lineage

    def test_diamond_with_lost_intermediates_plans_minimally(self):
        """Only the LOST branch replays: the READY sibling is reused."""
        table, lineage = self._diamond()
        for oid in ("ob", "ol", "or", "oj"):
            table.mark_ready(oid, "n0/cpu", 1)
        # a device failure takes out the left intermediate and the join
        for oid in ("ol", "oj"):
            table.drop_location(oid, "n0/cpu")
            assert table.entry(oid).state == ValueState.LOST
        plan = lineage.plan_recovery("oj", table)
        ids = [t.task_id for t in plan]
        assert ids == ["left", "join"]  # dependency order, nothing extra

    def test_diamond_with_lost_base_replays_the_whole_slice(self):
        table, lineage = self._diamond()
        for oid in ("ob", "ol", "or", "oj"):
            table.mark_ready(oid, "n0/cpu", 1)
        for oid in ("ob", "ol", "oj"):  # right survives on another node
            table.drop_location(oid, "n0/cpu")
        plan = lineage.plan_recovery("oj", table)
        ids = [t.task_id for t in plan]
        assert ids.count("base") == 1 and "right" not in ids
        assert ids.index("base") < ids.index("left") < ids.index("join")

    def test_truncated_lineage_raises_unrecoverable(self):
        """A LOST ancestor with no recorded producer poisons the plan."""
        table = OwnershipTable()
        lineage = LineageGraph()
        # o1 was put by the driver (no lineage), o2 computed from it
        table.create("o1", "driver", "")
        t2 = _task("t2", args=(ObjectRef("o1"),))
        table.create("o2", "w", "t2")
        lineage.record(t2, ["o2"])
        table.mark_ready("o1", "n0/cpu", 1)
        table.mark_ready("o2", "n0/cpu", 1)
        table.drop_node("n0")  # both copies gone
        with pytest.raises(UnrecoverableObjectError):
            lineage.plan_recovery("o2", table)

    def test_no_lineage_raises(self):
        table = OwnershipTable()
        lineage = LineageGraph()
        table.create("o1", "driver", "")
        with pytest.raises(UnrecoverableObjectError):
            lineage.plan_recovery("o1", table)

    def test_ready_object_yields_empty_plan(self):
        table = OwnershipTable()
        lineage = LineageGraph()
        t = _task("t1")
        table.create("o1", "w", "t1")
        lineage.record(t, ["o1"])
        table.mark_ready("o1", "n0/cpu", 1)
        assert lineage.plan_recovery("o1", table) == []


def reference_plan(lineage, object_id, ownership):
    """The recursive planner ``plan_recovery`` replaced, kept as the reference
    for its order and its errors."""
    plan, planned = [], set()

    def visit(oid, chain):
        if ownership.contains(oid) and ownership.entry(oid).state == ValueState.READY:
            return
        task = lineage.producer(oid)
        if task is None:
            raise UnrecoverableObjectError(f"object {oid!r} is lost and has no recorded lineage")
        if task.task_id in chain:
            raise UnrecoverableObjectError(f"lineage cycle detected at task {task.task_id!r}")
        if task.task_id in planned:
            return
        for dep in task.dependencies:
            visit(dep.object_id, chain | {task.task_id})
        planned.add(task.task_id)
        plan.append(task)

    visit(object_id, set())
    return plan


def outcome(plan_of, *args):
    try:
        return [t.task_id for t in plan_of(*args)]
    except UnrecoverableObjectError as err:
        return str(err)


class TestIterativePlanner:
    """``plan_recovery`` walks an explicit stack: the recursive walk's order
    and errors, at any depth, with no closure cycle left behind."""

    def test_a_1500_deep_chain_replays_oldest_first(self):
        table, lineage = OwnershipTable(), LineageGraph()
        deps = ()
        for i in range(1500):
            table.create(f"o{i}", "w", f"t{i}")
            lineage.record(_task(f"t{i}", args=deps), [f"o{i}"])
            deps = (ObjectRef(f"o{i}"),)
        plan = lineage.plan_recovery("o1499", table)
        assert [t.task_id for t in plan] == [f"t{i}" for i in range(1500)]

    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs_plan_as_the_recursive_walk(self, seed):
        """Random lineage graphs with READY objects, truncated producers and
        (for some seeds) back edges: the same plan, or the same error."""
        rng = random.Random(seed)
        table, lineage = OwnershipTable(), LineageGraph()
        n = rng.randint(1, 30)
        cyclic = seed % 4 == 3
        for i in range(n):
            width = rng.randint(0, min(i, 3)) if i else 0
            reads = rng.sample(range(i), width) if width else []
            if cyclic and rng.random() < 0.3:
                reads.append(rng.randrange(i, n))  # a back edge: a lineage cycle
            reads += reads[:1]  # an argument passed twice
            table.create(f"o{i}", "w", f"t{i}")
            if rng.random() < 0.05:
                continue  # a lost put: no recorded producer
            lineage.record(_task(f"t{i}", args=tuple(ObjectRef(f"o{r}") for r in reads)), [f"o{i}"])
            if rng.random() < 0.3:
                table.mark_ready(f"o{i}", "n0/cpu", 1)
        for root in range(n):
            oid = f"o{root}"
            assert outcome(lineage.plan_recovery, oid, table) == outcome(
                reference_plan, lineage, oid, table
            )

    def test_both_errors_keep_their_messages(self):
        table, lineage = OwnershipTable(), LineageGraph()
        table.create("o0", "driver", "")
        lineage.record(_task("t1", args=(ObjectRef("o2"),)), ["o1"])
        lineage.record(_task("t2", args=(ObjectRef("o1"),)), ["o2"])
        lineage.record(_task("t3", args=(ObjectRef("o0"),)), ["o3"])
        with pytest.raises(UnrecoverableObjectError, match="^lineage cycle detected at task 't1'$"):
            lineage.plan_recovery("o1", table)
        with pytest.raises(
            UnrecoverableObjectError, match="^object 'o0' is lost and has no recorded lineage$"
        ):
            lineage.plan_recovery("o3", table)

    def test_planning_leaves_no_cyclic_garbage(self):
        table, lineage = OwnershipTable(), LineageGraph()
        for i in range(3):
            table.create(f"o{i}", "w", f"t{i}")
            lineage.record(_task(f"t{i}", args=(ObjectRef(f"o{i - 1}"),) if i else ()), [f"o{i}"])
        gc.collect()
        gc.disable()
        try:
            assert len(lineage.plan_recovery("o2", table)) == 3
            assert gc.collect() == 0
        finally:
            gc.enable()
