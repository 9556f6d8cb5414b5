"""Tests for the heterogeneity-aware ownership table and lineage graph."""

from __future__ import annotations

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
        """Figure 3: the table gains DeviceID and DeviceHandle columns."""
        table = OwnershipTable()
        table.create("o1", "w1", "t1")
        entry = table.mark_ready("o1", "gpucard0", 1024, device_id="gpucard0/gpu0")
        assert entry.state == ValueState.READY
        assert entry.device_id == "gpucard0/gpu0"
        assert entry.device_handle is not None
        assert entry.nbytes == 1024
        assert table.locations("o1") == ["gpucard0"]

    def test_device_handles_are_unique(self):
        table = OwnershipTable()
        table.create("a", "w", "t1")
        table.create("b", "w", "t2")
        ha = table.mark_ready("a", "n0", 1, device_id="d0").device_handle
        hb = table.mark_ready("b", "n0", 1, device_id="d1").device_handle
        assert ha != hb

    def test_drop_last_location_marks_lost(self):
        table = OwnershipTable()
        table.create("o1", "w", "t")
        table.mark_ready("o1", "n0", 10)
        table.drop_location("o1", "n0")
        assert table.entry("o1").state == ValueState.LOST

    def test_extra_location_keeps_ready(self):
        table = OwnershipTable()
        table.create("o1", "w", "t")
        table.mark_ready("o1", "n0", 10)
        table.add_location("o1", "n1")
        table.drop_location("o1", "n0")
        assert table.is_ready("o1")
        assert table.locations("o1") == ["n1"]

    def test_drop_node_reports_lost_objects(self):
        table = OwnershipTable()
        for oid in ("a", "b", "c"):
            table.create(oid, "w", f"t-{oid}")
        table.mark_ready("a", "n0", 1)
        table.mark_ready("b", "n0", 1)
        table.add_location("b", "n1")
        table.mark_ready("c", "n2", 1)
        lost = table.drop_node("n0")
        assert lost == ["a"]
        assert table.is_ready("b") and table.is_ready("c")

    def test_add_location_revives_lost(self):
        table = OwnershipTable()
        table.create("o1", "w", "t")
        table.mark_ready("o1", "n0", 10)
        table.drop_node("n0")
        table.add_location("o1", "n1")
        assert table.is_ready("o1")

    def test_reset_pending_clears_copies_and_tells_the_observer(self):
        table = OwnershipTable()
        table.create("o1", "w", "t")
        table.mark_ready("o1", "n0", 10)
        seen = []
        table.observers.append(lambda *op: seen.append(op))
        table.reset_pending("o1")
        entry = table.entry("o1")
        assert entry.state is ValueState.PENDING and not entry.locations
        assert seen == [("replay_reset", "o1", "READY", "PENDING", 0)]

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
        table.mark_ready("o1", "n0", 1)
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
            table.mark_ready(oid, "n0", 1)
        # a device failure takes out the left intermediate and the join
        for oid in ("ol", "oj"):
            table.drop_location(oid, "n0")
            assert table.entry(oid).state == ValueState.LOST
        plan = lineage.plan_recovery("oj", table)
        ids = [t.task_id for t in plan]
        assert ids == ["left", "join"]  # dependency order, nothing extra

    def test_diamond_with_lost_base_replays_the_whole_slice(self):
        table, lineage = self._diamond()
        for oid in ("ob", "ol", "or", "oj"):
            table.mark_ready(oid, "n0", 1)
        for oid in ("ob", "ol", "oj"):  # right survives on another node
            table.drop_location(oid, "n0")
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
        table.mark_ready("o1", "n0", 1)
        table.mark_ready("o2", "n0", 1)
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
        table.mark_ready("o1", "n0", 1)
        assert lineage.plan_recovery("o1", table) == []
