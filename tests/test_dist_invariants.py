"""Protocol invariant monitors, driven by hand-built event streams.

Each monitor gets a legal story (no violations) and every illegal move it
claims to catch, so the declarative tables in
``repro.analysis.dist.invariants`` are pinned as behavior, not prose.
"""

from __future__ import annotations

from repro.analysis.dist.events import DistTrace
from repro.analysis.dist.invariants import (
    DeadlineMonotonicityMonitor,
    DirectoryStateMonitor,
    FetchRegistryMonitor,
    InvariantEngine,
    LineageAcyclicityMonitor,
    SingleOwnerMonitor,
    TaskLifecycleMonitor,
)


def feed(monitor, rows, partial=False):
    """rows: (kind, detail-dict) pairs; returns the monitor's violations."""
    trace = DistTrace()
    for kind, detail in rows:
        trace.record(
            time=0.0, site="t", kind=kind, detail=tuple(detail.items())
        )
    for event in trace:
        monitor.on_event(event)
    monitor.finish(partial=partial)
    return monitor.violations


class TestSingleOwner:
    def test_single_create_is_clean(self):
        assert feed(SingleOwnerMonitor(), [
            ("own_create", {"object": "o1"}),
            ("own_create", {"object": "o2"}),
        ]) == []

    def test_duplicate_create_is_flagged(self):
        violations = feed(SingleOwnerMonitor(), [
            ("own_create", {"object": "o1"}),
            ("own_create", {"object": "o1"}),
        ])
        assert len(violations) == 1
        assert "duplicate owner" in violations[0].message


class TestDirectoryState:
    def test_legal_lifecycle_is_clean(self):
        assert feed(DirectoryStateMonitor(), [
            ("own_create", {"object": "o", "old": None, "new": "PENDING",
                            "locations": 0}),
            ("own_mark_ready", {"object": "o", "old": "PENDING", "new": "READY",
                                "locations": 1}),
            ("own_add_location", {"object": "o", "old": "READY", "new": "READY",
                                  "locations": 2}),
            ("own_drop_node", {"object": "o", "old": "READY", "new": "READY",
                               "locations": 1}),
            ("own_drop_location", {"object": "o", "old": "READY", "new": "LOST",
                                   "locations": 0}),
            ("own_replay_reset", {"object": "o", "old": "LOST", "new": "PENDING",
                                  "locations": 0}),
        ]) == []

    def test_illegal_source_state_is_flagged(self):
        violations = feed(DirectoryStateMonitor(), [
            ("own_add_location", {"object": "o", "old": "PENDING",
                                  "new": "READY", "locations": 1}),
        ])
        assert any("illegal from state PENDING" in v.message for v in violations)

    def test_tracked_state_mismatch_is_flagged(self):
        violations = feed(DirectoryStateMonitor(), [
            ("own_create", {"object": "o", "old": None, "new": "PENDING",
                            "locations": 0}),
            ("own_mark_ready", {"object": "o", "old": "LOST", "new": "READY",
                                "locations": 1}),
        ])
        assert any("tracked PENDING" in v.message for v in violations)

    def test_ready_with_zero_locations_is_flagged(self):
        violations = feed(DirectoryStateMonitor(), [
            ("own_create", {"object": "o", "old": None, "new": "PENDING",
                            "locations": 0}),
            ("own_mark_ready", {"object": "o", "old": "PENDING", "new": "READY",
                                "locations": 0}),
        ])
        assert any("zero locations" in v.message for v in violations)

    def test_lost_with_locations_is_flagged(self):
        violations = feed(DirectoryStateMonitor(), [
            ("own_create", {"object": "o", "old": None, "new": "PENDING",
                            "locations": 0}),
            ("own_mark_ready", {"object": "o", "old": "PENDING", "new": "READY",
                                "locations": 1}),
            ("own_drop_location", {"object": "o", "old": "READY", "new": "LOST",
                                   "locations": 2}),
        ])
        assert any("still lists 2" in v.message for v in violations)

    def test_unknown_ops_are_ignored(self):
        # free() emits own_free — outside the FSM on purpose (entry removal)
        assert feed(DirectoryStateMonitor(), [
            ("own_free", {"object": "o", "old": "READY", "new": None,
                          "locations": 0}),
        ]) == []


class TestLineageAcyclicity:
    def test_chain_and_diamond_are_clean(self):
        assert feed(LineageAcyclicityMonitor(), [
            ("lineage_record", {"object": "b", "task": "t1", "deps": ("a",)}),
            ("lineage_record", {"object": "c", "task": "t2", "deps": ("a",)}),
            ("lineage_record", {"object": "d", "task": "t3", "deps": ("b", "c")}),
        ]) == []

    def test_cycle_is_flagged(self):
        violations = feed(LineageAcyclicityMonitor(), [
            ("lineage_record", {"object": "b", "task": "t1", "deps": ("a",)}),
            ("lineage_record", {"object": "a", "task": "t2", "deps": ("b",)}),
        ])
        assert len(violations) == 1
        assert "cycle" in violations[0].message


class TestDeadlineMonotonicity:
    def test_min_of_bounds_is_clean(self):
        assert feed(DeadlineMonotonicityMonitor(), [
            ("deadline_inherit", {"task": "t", "own": 5.0, "inherited": 3.0,
                                  "effective": 3.0}),
            ("deadline_inherit", {"task": "u", "own": None, "inherited": 2.0,
                                  "effective": 2.0}),
            ("deadline_inherit", {"task": "v", "own": None, "inherited": None,
                                  "effective": None}),
        ]) == []

    def test_looser_than_min_is_flagged(self):
        violations = feed(DeadlineMonotonicityMonitor(), [
            ("deadline_inherit", {"task": "t", "own": 5.0, "inherited": 3.0,
                                  "effective": 5.0}),
        ])
        assert any("!= min" in v.message for v in violations)

    def test_dropped_deadline_is_flagged(self):
        violations = feed(DeadlineMonotonicityMonitor(), [
            ("deadline_inherit", {"task": "t", "own": 5.0, "inherited": None,
                                  "effective": None}),
        ])
        assert any("dropped" in v.message for v in violations)

    def test_deadline_from_nowhere_is_flagged(self):
        violations = feed(DeadlineMonotonicityMonitor(), [
            ("deadline_inherit", {"task": "t", "own": None, "inherited": None,
                                  "effective": 1.0}),
        ])
        assert any("from nowhere" in v.message for v in violations)


class TestFetchRegistry:
    def test_paired_fetch_with_followers_is_clean(self):
        assert feed(FetchRegistryMonitor(), [
            ("fetch_begin", {"object": "o", "device": "d"}),
            ("fetch_dedup", {"object": "o", "device": "d"}),
            ("fetch_end", {"object": "o", "device": "d"}),
            ("fetch_join", {"object": "o", "device": "d"}),
        ]) == []

    def test_second_leader_is_flagged(self):
        violations = feed(FetchRegistryMonitor(), [
            ("fetch_begin", {"object": "o", "device": "d"}),
            ("fetch_begin", {"object": "o", "device": "d"}),
            ("fetch_end", {"object": "o", "device": "d"}),
        ])
        assert any("second leader" in v.message for v in violations)

    def test_end_without_begin_is_flagged(self):
        violations = feed(FetchRegistryMonitor(), [
            ("fetch_end", {"object": "o", "device": "d"}),
        ])
        assert any("without an active fetch" in v.message for v in violations)

    def test_join_without_dedup_is_flagged(self):
        violations = feed(FetchRegistryMonitor(), [
            ("fetch_begin", {"object": "o", "device": "d"}),
            ("fetch_end", {"object": "o", "device": "d"}),
            ("fetch_join", {"object": "o", "device": "d"}),
        ])
        assert any("no recorded dedup join" in v.message for v in violations)

    def test_abort_releases_followers(self):
        assert feed(FetchRegistryMonitor(), [
            ("fetch_begin", {"object": "o", "device": "d"}),
            ("fetch_dedup", {"object": "o", "device": "d"}),
            ("fetch_abort", {"object": "o", "device": "d"}),
        ]) == []

    def test_unended_fetch_flagged_at_drain_unless_partial(self):
        rows = [("fetch_begin", {"object": "o", "device": "d"})]
        assert any(
            "never ended" in v.message for v in feed(FetchRegistryMonitor(), rows)
        )
        assert feed(FetchRegistryMonitor(), rows, partial=True) == []

    def test_unreleased_follower_flagged_at_drain(self):
        violations = feed(FetchRegistryMonitor(), [
            ("fetch_begin", {"object": "o", "device": "d"}),
            ("fetch_dedup", {"object": "o", "device": "d"}),
            ("fetch_end", {"object": "o", "device": "d"}),
        ])
        assert any("never released" in v.message for v in violations)


class TestTaskLifecycle:
    def test_submit_run_finish_is_clean(self):
        assert feed(TaskLifecycleMonitor(), [
            ("submit", {"task": "t"}),
            ("task_finish", {"task": "t"}),
        ]) == []

    def test_double_submit_is_flagged(self):
        violations = feed(TaskLifecycleMonitor(), [
            ("submit", {"task": "t"}),
            ("submit", {"task": "t"}),
        ])
        assert any("submitted twice" in v.message for v in violations)

    def test_second_terminal_is_flagged(self):
        violations = feed(TaskLifecycleMonitor(), [
            ("submit", {"task": "t"}),
            ("task_finish", {"task": "t"}),
            ("task_fail", {"task": "t"}),
        ])
        assert any("task_fail after task_finish" in v.message for v in violations)

    def test_replay_rearms_the_terminal_slot(self):
        assert feed(TaskLifecycleMonitor(), [
            ("submit", {"task": "t"}),
            ("task_finish", {"task": "t"}),
            ("replay", {"task": "t"}),
            ("task_finish", {"task": "t"}),
        ]) == []

    def test_repeated_cancel_is_tolerated(self):
        # cancel cascades may touch a task more than once; that is benign
        assert feed(TaskLifecycleMonitor(), [
            ("submit", {"task": "t"}),
            ("task_cancel", {"task": "t"}),
            ("task_cancel", {"task": "t"}),
        ]) == []


class TestInvariantEngine:
    def test_engine_runs_all_monitors_and_sorts_violations(self):
        trace = DistTrace()
        trace.record(0.0, "t", "own_create",
                     detail=(("object", "o"), ("old", None),
                             ("new", "PENDING"), ("locations", 0)))
        trace.record(1e-3, "t", "own_create",
                     detail=(("object", "o"), ("old", None),
                             ("new", "PENDING"), ("locations", 0)))
        trace.record(2e-3, "t", "fetch_begin",
                     detail=(("object", "x"), ("device", "d")))
        engine = InvariantEngine.run(trace)
        violations = engine.violations()
        # duplicate create (seq 1, two monitors may fire) + unended fetch (end)
        assert violations, "expected violations"
        seqs = [v.seq for v in violations]
        assert seqs == sorted(seqs, key=lambda s: (s is None, s or 0))
        assert violations[-1].seq is None  # end-of-trace check sorts last

    def test_engine_partial_skips_end_checks(self):
        trace = DistTrace()
        trace.record(0.0, "t", "fetch_begin", detail=(("object", "x"), ("device", "d")))
        assert InvariantEngine.run(trace, partial=True).violations() == []

    def test_finish_is_idempotent(self):
        engine = InvariantEngine()
        engine.finish()
        engine.finish()
        assert engine.violations() == []
