"""The DistProbe event vocabulary and the trace container it fills.

The probe owns message-key formats and site names; these tests pin that
vocabulary (via the HB relation it induces) plus the trace's JSON
round-trip, which CI relies on to sanitize dumped artifacts offline.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.analysis.dist.events import DistTrace, ProtoEvent
from repro.analysis.dist.hb import build_hb
from repro.analysis.dist.probe import DistProbe
from repro.runtime.events import RuntimeEvent


def make_probe(sanitizers=("hb",)):
    t = [0.0]

    def clock():
        t[0] += 1e-3
        return t[0]

    return DistProbe(sanitizers, clock=clock)


def spec(task_id, deps=()):
    """The fields of a ``TaskSpec`` the probe reads."""
    return SimpleNamespace(
        task_id=task_id, dependencies=tuple(SimpleNamespace(object_id=d) for d in deps)
    )


def ctx(task_id, attempt, device="dev", deps=(), clone=False):
    """The fields of an attempt's record the probe reads."""
    return SimpleNamespace(
        spec=spec(task_id, deps), attempt=attempt,
        device=SimpleNamespace(device_id=device), is_clone=clone,
    )


class TestProbeModes:
    def test_unknown_sanitizer_is_rejected(self):
        with pytest.raises(ValueError, match="unknown sanitizers"):
            make_probe(("tsan",))

    def test_hb_implies_trace_collection(self):
        probe = make_probe(("hb",))
        assert probe.wants_trace and probe.wants_hb
        assert probe.engine is None

    def test_invariants_only_keeps_no_trace(self):
        probe = make_probe(("invariants",))
        probe.submit(spec("t1"), [])
        assert probe.engine is not None
        assert len(probe.trace) == 0  # monitors fed online, nothing stored

    def test_report_needs_a_trace_for_forced_hb(self):
        probe = make_probe(("invariants",))
        with pytest.raises(ValueError, match="needs a collected trace"):
            probe.report(hb=True)

    def test_seq_and_clock_are_recorded(self):
        probe = make_probe(("trace",))
        probe.submit(spec("t1"), [])
        probe.submit(spec("t2"), [])
        assert [e.seq for e in probe.trace] == [0, 1]
        assert [e.time for e in probe.trace] == [1e-3, 2e-3]


class TestSiteNaming:
    def test_attempt_sites_distinguish_attempts_and_clones(self):
        probe = make_probe()
        assert probe.attempt_site("t", 1) == "attempt:t#1"
        assert probe.attempt_site("t", 2) == "attempt:t#2"
        assert probe.attempt_site("t", 2, clone=True) == "attempt:t#2~"

    def test_replay_incarnations_get_fresh_sites(self):
        probe = make_probe()
        before = probe.attempt_site("t", 1)
        assert probe.replay("t") == 1
        after = probe.attempt_site("t", 1)
        assert before != after and "r1" in after

    def test_raylet_site(self):
        assert DistProbe.raylet_site("server0/cpu") == "raylet@server0/cpu"


class TestCausalVocabulary:
    """Each protocol hook must induce the edge its name promises."""

    def test_submit_dispatch_attempt_chain_is_ordered(self):
        probe = make_probe()
        probe.submit(spec("t"), [])             # 0 driver
        probe.dispatch(ctx("t", 1))             # 1 gcs (recv submit)
        probe.attempt_start(ctx("t", 1))        # 2 attempt (recv lease)
        probe.site = "attempt:t#1"              # the runtime's, for the commit
        probe.attempt_commit(ctx("t", 1), "o")  # 3 attempt, 4 its object_ready
        probe.task_finish("t")                  # 5 gcs (recv done)
        assert [e.kind for e in probe.trace][3:5] == ["attempt_commit", "object_ready"]
        hb = build_hb(probe.trace)
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 5), (0, 5)]:
            assert hb.ordered(a, b), (a, b)
        assert hb.dangling_recvs == []

    def test_dependency_ready_edge_orders_producer_before_consumer(self):
        probe = make_probe()
        probe.submit(spec("p"), [])               # 0
        probe.dispatch(ctx("p", 1))               # 1
        probe.attempt_start(ctx("p", 1))          # 2
        probe.site = "attempt:p#1"
        probe.attempt_commit(ctx("p", 1), "o")    # 3, and 4 sends ready:o
        probe.submit(spec("c"), [])               # 5
        probe.dispatch(ctx("c", 1, deps=("o",)))  # 6 recvs ready:o
        probe.attempt_start(ctx("c", 1))          # 7
        hb = build_hb(probe.trace)
        assert hb.ordered(4, 7)  # consumer attempt after producer commit

    def test_failure_report_orders_attempt_before_retry(self):
        probe = make_probe()
        probe.submit(spec("t"), [])
        probe.dispatch(ctx("t", 1))
        probe.attempt_start(ctx("t", 1))
        probe.attempt_fail("t", 1, "boom")     # 3 sends rep
        probe.retry("t", 1)                    # 4 recvs rep
        probe.dispatch(ctx("t", 2))            # 5 fresh lease
        probe.attempt_start(ctx("t", 2))       # 6
        hb = build_hb(probe.trace)
        assert hb.ordered(3, 4) and hb.ordered(4, 6)

    def test_speculative_clone_gets_its_own_lease(self):
        probe = make_probe()
        probe.submit(spec("t"), [])
        probe.dispatch(ctx("t", 1))
        probe.attempt_start(ctx("t", 1))
        probe.speculate("t")                       # 3 sends clone lease
        probe.attempt_start(ctx("t", 2, clone=True))  # 4 recvs clone lease
        hb = build_hb(probe.trace)
        assert hb.ordered(3, 4)
        assert hb.concurrent(2, 4)  # original and clone genuinely overlap
        assert hb.dangling_recvs == []

    def test_submit_records_lineage_and_a_backup_lease_is_the_speculations(self):
        probe = make_probe()
        probe.submit(spec("t", deps=("a",)), ["o1", "o2"])
        probe.dispatch(ctx("t", 1, clone=True))  # no event: speculate sent its lease
        assert [(e.kind, e.get("object"), e.get("deps")) for e in probe.trace] == [
            ("lineage_record", "o1", ("a",)),
            ("lineage_record", "o2", ("a",)),
            ("submit", None, None),
        ]

    def test_an_attempt_receives_only_the_landings_it_was_fed(self):
        probe = make_probe()
        probe.land("push:a", "a", "dev")                     # 0 sends land:a:dev
        probe.arrived(ctx("c", 1), spec("c", ("a", "b")).dependencies, "dev")
        probe.attempt_start(ctx("c", 1))                     # 1 recvs it (and the lease)
        assert probe.trace[1].recvs == ("lease:c:0:1", "land:a:dev")
        hb = build_hb(probe.trace)
        assert hb.ordered(0, 1)

    def test_heartbeat_round_links_raylet_to_gcs(self):
        probe = make_probe()
        probe.hb_send("server0/cpu", 1)
        probe.hb_recv("server0/cpu", 1)
        hb = build_hb(probe.trace)
        assert hb.ordered(0, 1)

    def test_fetch_dedup_follower_joins_leader_completion(self):
        probe = make_probe()
        probe.fetch_begin("ep", "o", "d")
        probe.fetch_dedup("ep", "o", "d")
        probe.fetch_end("ep", "o", "d")        # 2 sends fend
        probe.fetch_join("attempt:c#1", "o", "d")  # 3 recvs fend
        hb = build_hb(probe.trace)
        assert hb.ordered(2, 3)

    def test_get_resolve_orders_producer_before_driver_followups(self):
        probe = make_probe()
        probe.site = "attempt:p#1"
        probe.ownership_op("mark_ready", "o", "PENDING", "READY", 1)  # 0
        probe.object_ready("attempt:p#1", "o")                        # 1
        probe.get_resolve(["o"])                                      # 2 driver
        probe.site = "driver"
        probe.ownership_op("free", "o", "READY", None, 0)             # 3
        hb = build_hb(probe.trace)
        assert hb.ordered(0, 3)  # sanctioned free: no race
        assert build_hb(probe.trace).races == []

    def test_chaos_events_have_no_ancestry(self):
        probe = make_probe()
        probe.submit(spec("t"), [])
        probe.incident(RuntimeEvent(0.0, "chaos_node_crash", (("node", "server1"),)))
        assert probe.trace[1].site == "chaos"
        hb = build_hb(probe.trace)
        assert hb.concurrent(0, 1)

    def test_ownership_access_classes(self):
        probe = make_probe()
        probe.ownership_op("add_location", "o", "READY", "READY", 2)
        probe.ownership_op("drop_node", "o", "READY", "LOST", 0)
        probe.dir_read("attempt:c#1", "o", "READY")
        accesses = [e.accesses[0] for e in probe.trace]
        assert accesses == [
            ("dir:o", "acc"), ("dir:o", "w"), ("dir:o", "r"),
        ]


class TestTraceRoundTrip:
    def test_json_round_trip_preserves_signature(self, tmp_path):
        probe = make_probe()
        probe.submit(spec("t"), [])
        probe.dispatch(ctx("t", 1))
        probe.attempt_start(ctx("t", 1))
        probe.ownership_op("create", "o", None, "PENDING", 0)
        path = tmp_path / "trace.json"
        probe.trace.dump(str(path))
        loaded = DistTrace.load(str(path))
        assert loaded.signature() == probe.trace.signature()
        assert [e.sends for e in loaded] == [e.sends for e in probe.trace]
        assert [e.recvs for e in loaded] == [e.recvs for e in probe.trace]
        assert [e.accesses for e in loaded] == [e.accesses for e in probe.trace]

    def test_format_sniffing(self, tmp_path):
        trace_file = tmp_path / "dist.json"
        DistTrace().dump(str(trace_file))
        other = tmp_path / "bench.json"
        other.write_text(json.dumps({"metric": 1}))
        assert DistTrace.is_trace_file(str(trace_file))
        assert not DistTrace.is_trace_file(str(other))
        assert not DistTrace.is_trace_file(str(tmp_path / "missing.json"))

    def test_bad_format_is_rejected(self):
        with pytest.raises(ValueError, match="not a dist-trace"):
            DistTrace.from_dict({"format": "something-else"})

    def test_non_json_safe_detail_is_reprd(self):
        trace = DistTrace()
        trace.record(0.0, "s", "k", detail=(("obj", object()),))
        payload = trace.to_dict()
        assert isinstance(payload["events"][0]["detail"][0][1], str)

    def test_event_helpers(self):
        event = ProtoEvent(seq=3, time=0.5, site="gcs", kind="x",
                           detail=(("task", "t"),))
        assert event.get("task") == "t"
        assert event.get("missing", "dflt") == "dflt"
        assert "#3" in event.describe() and "[gcs]" in event.describe()
