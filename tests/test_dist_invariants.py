"""Protocol invariant monitors, driven by hand-built event streams.

Each monitor gets a legal story (no violations) and every illegal move it
claims to catch, so the declarative tables in
``repro.analysis.dist.invariants`` are pinned as behavior, not prose.
"""

from __future__ import annotations

from repro.analysis.dist.events import DistTrace
from repro.analysis.dist.invariants import (
    DirectoryStateMonitor,
    EpochMonotonicityMonitor,
    FetchRegistryMonitor,
    InvariantEngine,
    LeaderPerEpochMonitor,
    LineageAcyclicityMonitor,
    Monitor,
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


    def test_restore_reseeds_the_tracked_state(self):
        """A failover re-installs an entry from its WAL snapshot: ``old`` is
        None whatever was tracked, and the restored state is the new truth."""
        assert feed(DirectoryStateMonitor(), [
            ("own_create", {"object": "o", "old": None, "new": "PENDING",
                            "locations": 0}),
            ("own_restore", {"object": "o", "old": None, "new": "READY",
                             "locations": 1}),
            ("own_add_location", {"object": "o", "old": "READY", "new": "READY",
                                  "locations": 2}),
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


class TestLeaderPerEpoch:
    def test_one_leader_per_epoch_is_clean(self):
        assert feed(LeaderPerEpochMonitor(), [
            ("ha_leader", {"epoch": 1, "node": "server0"}),
            ("ha_leader", {"epoch": 2, "node": "server1"}),
        ]) == []

    def test_two_leaders_in_one_epoch_is_flagged(self):
        violations = feed(LeaderPerEpochMonitor(), [
            ("ha_leader", {"epoch": 2, "node": "server0"}),
            ("ha_leader", {"epoch": 2, "node": "server1"}),
        ])
        assert [v.subject for v in violations] == ["server1"]
        assert "two leaders: server0 then server1" in violations[0].message


def fence(endpoint, lease, raylet, accepted):
    return ("ha_fence", {"endpoint": endpoint, "lease_epoch": lease,
                         "raylet_epoch": raylet, "accepted": accepted})


class TestEpochMonotonicity:
    def test_rising_epochs_and_current_leases_are_clean(self):
        assert feed(EpochMonotonicityMonitor(), [
            ("ha_leader", {"epoch": 1, "node": "server0"}),
            fence("r0", 1, 1, True),
            ("ha_leader", {"epoch": 2, "node": "server1"}),
            fence("r0", 2, 1, True),  # a newer lease moves the raylet forward
            fence("r0", 2, 2, True),
        ]) == []

    def test_a_refused_stale_lease_is_the_fence_working(self):
        assert feed(EpochMonotonicityMonitor(), [fence("r0", 1, 2, False)]) == []

    def test_a_leader_for_an_old_epoch_is_flagged(self):
        violations = feed(EpochMonotonicityMonitor(), [
            ("ha_leader", {"epoch": 3, "node": "server0"}),
            ("ha_leader", {"epoch": 3, "node": "server1"}),
        ])
        assert any("epoch 3 after epoch 3" in v.message for v in violations)

    def test_a_raylet_epoch_going_backwards_is_flagged(self):
        violations = feed(EpochMonotonicityMonitor(), [
            fence("r0", 2, 2, True),
            fence("r0", 2, 1, True),
        ])
        assert [v.subject for v in violations] == ["r0"]
        assert "went backwards: 2 -> 1" in violations[0].message

    def test_an_accepted_stale_lease_is_flagged(self):
        violations = feed(EpochMonotonicityMonitor(), [fence("r0", 1, 2, True)])
        assert any("accepted stale lease epoch 1" in v.message for v in violations)


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

    def test_the_default_set_is_every_protocol_monitor(self):
        names = [m.name for m in InvariantEngine().monitors]
        assert names == [
            "single-owner",
            "directory-state",
            "lineage-acyclic",
            "fetch-registry",
            "task-lifecycle",
            "leader-per-epoch",
            "epoch-monotonic",
        ]

    def test_an_event_reaches_only_the_monitors_that_subscribe_to_it(self):
        engine = InvariantEngine()
        assert [m.name for m in engine.route("ha_leader")] == [
            "leader-per-epoch", "epoch-monotonic",
        ]
        assert engine.route("no_such_kind") == ()
        assert engine.route("ha_leader") is engine.route("ha_leader")  # cached

    def test_a_monitor_without_kinds_hears_every_event(self):
        class Everything(Monitor):
            name = "everything"

            def __init__(self):
                super().__init__()
                self.kinds_seen = []

            def on_event(self, event):
                self.kinds_seen.append(event.kind)

        listener = Everything()
        trace = DistTrace()
        for kind in ("submit", "no_such_kind", "ha_leader"):
            trace.record(0.0, "t", kind, detail=(("task", "t"), ("epoch", 1),
                                                 ("node", "n")))
        engine = InvariantEngine(monitors=[listener])
        for event in trace:
            engine.on_event(event)
        assert listener.kinds_seen == ["submit", "no_such_kind", "ha_leader"]
