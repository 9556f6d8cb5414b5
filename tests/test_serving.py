"""Multi-tenant serving: arrivals, tenants, workload, frontend, balancer.

The serving layer sits *on top of* the runtime, so two properties get
pinned hard here: (1) the shared arrival helper reproduces the legacy
``ChaosMonkey._burst`` float sequence bit-for-bit (chaos seeds must not
drift through the unification), and (2) the new RuntimeConfig serving
switches are pure frontend policy — with or without them, the
single-driver E17/E21/E22 scenarios replay with identical event-log
signatures.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from repro.chaos import ChaosSchedule, LoadBurst
from repro.cluster import build_serverful
from repro.runtime import (
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
    TaskState,
)
from repro.serving import (
    DEFAULT_PROFILES,
    HeadNodeBalancer,
    MessageRateTracker,
    Request,
    RequestTemplate,
    ServingFrontend,
    Tenant,
    TenantProfile,
    TenantRegistry,
    WorkloadGenerator,
    poisson_offsets,
    uniform_offsets,
)
from repro.telemetry import parse_prometheus_text, to_prometheus_text

SERVING_SWITCHES = dict(
    serving_fair_queueing=True,
    serving_tenant_isolation=True,
    serving_slo_deadlines=True,
    serving_max_inflight=64,
)


def make_rt(n_servers=2, **overrides):
    overrides.setdefault("resolution", ResolutionMode.PULL)
    return ServerlessRuntime(
        build_serverful(n_servers=n_servers), RuntimeConfig(**overrides)
    )


def load_bench(name):
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_serv_equiv_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


UNIT = RequestTemplate("unit", (("work", 1e-2, ()),))
CHAIN = RequestTemplate("chain", (("a", 1e-3, ()), ("b", 1e-3, (0,))))


def plain_tenant(name, **overrides):
    fields = dict(weight=1.0, priority=0, slo=None, max_open=10_000, share=1.0)
    fields.update(overrides)
    return Tenant(name, TenantProfile(name, **fields))


# -- satellite: one seeded arrival helper ------------------------------------


class TestArrivals:
    def test_uniform_reproduces_legacy_burst_math_exactly(self):
        """The exact float sequence of the pre-unification ChaosMonkey loop:
        gap spacing, RNG construction gated on jitter, same draw order."""
        for n, duration, seed, jitter in [
            (144, 0.30, 22, 0.0),
            (240, 0.15, 23, 0.5),
            (7, 1.0, 0, 1.0),
            (0, 1.0, 4, 0.5),
        ]:
            gap = duration / n if n else 0.0
            rng = random.Random(seed) if jitter > 0.0 else None
            legacy = []
            for i in range(n):
                delay = i * gap
                if rng is not None:
                    delay += gap * jitter * (2.0 * rng.random() - 1.0)
                    delay = max(0.0, delay)
                legacy.append(delay)
            assert uniform_offsets(n, duration, seed, jitter) == legacy

    def test_chaos_burst_rides_on_the_shared_helper(self):
        """Two seeded burst runs produce identical arrival events; the
        jittered offsets match the helper's output exactly."""

        def run():
            rt = make_rt(n_servers=1)
            arrivals = []
            schedule = ChaosSchedule().burst(0.0, 20, duration=0.1, seed=9, jitter=0.5)
            from repro.chaos import ChaosMonkey

            monkey = ChaosMonkey(
                rt, schedule, task_source=lambda i: arrivals.append(rt.sim.now)
            ).arm()
            rt.sim.run()
            assert monkey.load_submitted == 20
            return arrivals

        first, second = run(), run()
        assert first == second
        expected = sorted(uniform_offsets(20, 0.1, seed=9, jitter=0.5))
        assert sorted(first) == expected

    def test_poisson_is_seeded_and_bounded(self):
        a = poisson_offsets(100.0, duration=1.0, seed=5)
        b = poisson_offsets(100.0, duration=1.0, seed=5)
        c = poisson_offsets(100.0, duration=1.0, seed=6)
        assert a == b
        assert a != c
        assert all(0.0 < t < 1.0 for t in a)
        assert a == sorted(a)
        assert len(poisson_offsets(100.0, n=17, seed=5)) == 17
        both = poisson_offsets(100.0, duration=1.0, n=3, seed=5)
        assert len(both) == 3 and both == a[:3]

    def test_poisson_validates_inputs(self):
        with pytest.raises(ValueError, match="rate"):
            poisson_offsets(0.0, duration=1.0)
        with pytest.raises(ValueError, match="duration or an arrival count"):
            poisson_offsets(10.0)


# -- tenants ------------------------------------------------------------------


class TestTenants:
    def test_profile_assignment_is_a_stable_hash(self):
        reg = TenantRegistry(1000)
        # stable across registries and runs (md5 contract) — and pinned to
        # concrete values so a platform/version drift fails loudly
        again = TenantRegistry(1000)
        for i in (0, 1, 17, 999):
            assert reg.tenant(i).profile.name == again.tenant(i).profile.name
        assert reg.profile_of("tenant0000000") == reg.profile_of("tenant0000000")

    def test_population_is_lazy(self):
        reg = TenantRegistry(1_000_000)
        assert reg.touched == 0
        reg.tenant(0), reg.tenant(999_999), reg.tenant(0)
        assert reg.touched == 2
        with pytest.raises(IndexError):
            reg.tenant(1_000_000)

    def test_profile_mix_tracks_population_shares(self):
        reg = TenantRegistry(4000)
        counts = {p.name: 0 for p in DEFAULT_PROFILES}
        for i in range(4000):
            counts[reg.tenant(i).profile.name] += 1
        assert counts["free"] > 3400  # 90% +- hash noise
        assert counts["standard"] > 100
        assert counts["premium"] >= 1

    def test_share_and_profile_validation(self):
        bad = TenantProfile("x", weight=1.0, priority=0, slo=None, max_open=1, share=0.5)
        with pytest.raises(ValueError, match="sum"):
            TenantRegistry(10, profiles=(bad,))
        with pytest.raises(ValueError, match="weight"):
            TenantProfile("x", weight=0.0, priority=0, slo=None, max_open=1, share=1.0)
        with pytest.raises(ValueError, match="max_open"):
            TenantProfile("x", weight=1.0, priority=0, slo=None, max_open=0, share=1.0)

    def test_qualify_namespaces_object_names(self):
        t = TenantRegistry(10).tenant(3)
        assert t.qualify("req-1/scan") == f"{t.tenant_id}/req-1/scan"


# -- workload synthesis -------------------------------------------------------


class TestWorkload:
    def test_requests_are_fully_seeded(self):
        reg = TenantRegistry(10_000)
        gen = lambda: WorkloadGenerator(reg, rate=300.0, duration=0.2, seed=42)  # noqa: E731
        a, b = gen().requests(), gen().requests()
        assert [(r.request_id, r.arrival, r.tenant.tenant_id, r.template.name) for r in a] == [
            (r.request_id, r.arrival, r.tenant.tenant_id, r.template.name) for r in b
        ]

    def test_bursts_merge_into_the_arrival_stream(self):
        reg = TenantRegistry(100)
        steady = WorkloadGenerator(reg, rate=100.0, duration=0.3, seed=1)
        spiky = WorkloadGenerator(
            reg,
            rate=100.0,
            duration=0.3,
            seed=1,
            bursts=[LoadBurst(at=0.1, n_tasks=50, duration=0.05)],
        )
        n_steady, n_spiky = len(steady.requests()), len(spiky.requests())
        assert n_spiky == n_steady + 50
        arrivals = spiky.arrivals()
        assert arrivals == sorted(arrivals)
        # the tenant/template draw depends on the request index, not the
        # arrival times, so the i-th request keeps its identity under bursts
        assert [r.tenant.tenant_id for r in steady.requests()] == [
            r.tenant.tenant_id for r in spiky.requests()
        ][:n_steady]

    def test_template_validation(self):
        with pytest.raises(ValueError, match="no stages"):
            RequestTemplate("empty", ())
        with pytest.raises(ValueError, match="earlier stages"):
            RequestTemplate("fwd", (("a", 1e-3, (0,)),))
        with pytest.raises(ValueError, match="negative"):
            RequestTemplate("neg", (("a", -1e-3, ()),))
        assert CHAIN.n_tasks == 2
        assert CHAIN.total_cost == pytest.approx(2e-3)


# -- frontend -----------------------------------------------------------------


class TestFrontend:
    def test_all_off_is_a_passthrough(self):
        """Default config: every request dispatches the instant it arrives —
        no queueing, no shedding, no deadlines, nothing held back."""
        rt = make_rt()
        fe = ServingFrontend(rt, TenantRegistry(4))
        t = plain_tenant("t0")
        fe.play([Request(f"r{i}", t, UNIT, 0.01 * i) for i in range(10)])
        rt.sim.run()
        assert fe.offered == fe.admitted == fe.completed == 10
        assert fe.failed == 0 and fe.shed == {} and fe.inflight == 0
        assert fe._queued() == 0
        reg = rt.telemetry.registry
        assert reg.value("skadi_serving_requests_offered_total", tenant_class="t0") == 10.0
        assert reg.value(
            "skadi_serving_requests_completed_total", tenant_class="t0", outcome="ok"
        ) == 10.0

    def test_tenant_quota_sheds_beyond_max_open(self):
        rt = make_rt(serving_tenant_isolation=True)
        fe = ServingFrontend(rt, TenantRegistry(4))
        t = plain_tenant("quota", max_open=2)
        fe.play([Request(f"r{i}", t, UNIT, 0.0) for i in range(5)])
        rt.sim.run()
        assert fe.completed == 2
        assert fe.shed == {"tenant_quota": 3}
        assert t.open_requests == 0
        shed_events = rt.log.of_kind("serving_request_shed")
        assert len(shed_events) == 3
        assert shed_events[0]["tenant"] == "quota"
        assert rt.telemetry.registry.value(
            "skadi_serving_requests_shed_total",
            tenant_class="quota",
            reason="tenant_quota",
        ) == 3.0

    def test_bounded_waiting_room_sheds_at_the_door(self):
        rt = make_rt(serving_max_inflight=1, serving_queue_depth=2)
        fe = ServingFrontend(rt, TenantRegistry(4))
        t = plain_tenant("q")
        fe.play([Request(f"r{i}", t, UNIT, 0.0) for i in range(5)])
        rt.sim.run()
        assert fe.completed == 3  # 1 dispatched + 2 queued
        assert fe.shed == {"queue_full": 2}

    def test_weighted_fair_queueing_vs_fifo(self):
        """Under contention a weight-8 tenant drains ~8x faster than a
        weight-1 tenant; with fair queueing off, FIFO treats them alike."""

        def run(fair):
            rt = make_rt(
                n_servers=1,
                serving_fair_queueing=fair,
                serving_max_inflight=1,
                serving_queue_depth=10_000,
            )
            fe = ServingFrontend(rt, TenantRegistry(4))
            heavy = plain_tenant("heavy", weight=8.0)
            light = plain_tenant("light", weight=1.0)
            requests = []
            for i in range(16):
                requests.append(Request(f"h{i}", heavy, UNIT, 0.0))
                requests.append(Request(f"l{i}", light, UNIT, 0.0))
            fe.play(requests)
            rt.sim.run()
            assert fe.completed == 32
            return (
                fe.latency_percentiles("heavy")["p50"],
                fe.latency_percentiles("light")["p50"],
            )

        heavy_wfq, light_wfq = run(fair=True)
        assert heavy_wfq < light_wfq / 2  # weight actually buys latency
        heavy_fifo, light_fifo = run(fair=False)
        assert heavy_fifo > light_fifo / 2  # FIFO is weight-blind

    def test_slo_deadlines_flow_into_submit(self):
        rt = make_rt(serving_slo_deadlines=True, deadline_propagation=True)
        fe = ServingFrontend(rt, TenantRegistry(4))
        t = plain_tenant("slo", slo=0.25, priority=3)
        pending = fe.offer(Request("r0", t, CHAIN, 0.0))
        for ref in pending.refs:
            spec = rt._ctx_of_object[ref.object_id].spec
            assert spec.deadline == 0.25
            assert spec.priority == 3
            assert spec.tenant == "slo"
            assert spec.name.startswith("slo/r0/")
        rt.sim.run()
        assert fe.completed == 1

    def test_runtime_admission_rejection_shreds_partial_dag(self):
        """When PR 6's admission gate rejects a stage mid-request, the whole
        request sheds and its already-submitted stages are cancelled."""
        rt = make_rt(admission_control=True, admission_queue_depth=1)
        fe = ServingFrontend(rt, TenantRegistry(4))
        t = plain_tenant("rej")
        fe.offer(Request("r0", t, CHAIN, 0.0))
        assert fe.shed == {"admission": 1}
        assert fe.inflight == 0 and t.open_requests == 0
        cancelled = rt.log.of_kind("task_cancelled")
        assert len(cancelled) == 1
        assert cancelled[0]["reason"] == "request_rejected"
        assert cancelled[0]["tenant"] == "rej"
        rt.sim.run()  # nothing leaks; the sim drains clean
        assert fe.completed == 0

    def test_stage_failure_aborts_the_request(self):
        rt = make_rt()
        fe = ServingFrontend(rt, TenantRegistry(4))
        t = plain_tenant("abort")
        pending = fe.offer(Request("r0", t, CHAIN, 0.0))
        assert rt.cancel(pending.refs[0], reason="user")
        rt.sim.run()
        assert fe.failed == 1 and fe.completed == 0
        assert pending.aborted
        assert fe.inflight == 0 and t.open_requests == 0
        states = {rt.task_state(r) for r in pending.refs}
        assert states == {TaskState.CANCELLED}
        assert pending.span is not None and not pending.span.is_open
        assert pending.span.attrs["outcome"] == "failed"

    def test_cancelled_producer_cascades_through_the_serving_path(self):
        """Satellite: the PR 6 cancellation cascade, driven from a serving
        request.  Cancelling the producer stage takes the sibling stage down
        via the frontend's request abort (which fires before the runtime
        cascade can reach it) and cascades upstream_cancelled into a
        driver-side consumer of the request's output."""
        rt = make_rt(deadline_propagation=True)
        fe = ServingFrontend(rt, TenantRegistry(4))
        t = plain_tenant("casc")
        pending = fe.offer(Request("r0", t, CHAIN, 0.0))
        downstream = rt.submit(lambda x: x, (pending.refs[-1],))
        rt.cancel(pending.refs[0], reason="user")
        rt.sim.run()
        by_reason = {
            e["reason"]: e for e in rt.log.of_kind("task_cancelled")
        }
        assert set(by_reason) == {"user", "request_aborted", "upstream_cancelled"}
        assert by_reason["user"]["tenant"] == "casc"
        assert by_reason["request_aborted"]["tenant"] == "casc"
        # the driver-side consumer has no tenant — attribution never leaks
        assert by_reason["upstream_cancelled"].get("tenant") is None
        assert rt.task_state(downstream) is TaskState.CANCELLED
        assert fe.failed == 1

    def test_request_span_joins_the_trace_plane(self):
        rt = make_rt()
        fe = ServingFrontend(rt, TenantRegistry(4))
        t = plain_tenant("tr")
        pending = fe.offer(Request("r0", t, CHAIN, 0.0))
        rt.sim.run()
        span = pending.span
        assert span.category == "control"
        assert span.name == "request:chain"
        first_task_span = rt.span_of(pending.refs[0])
        assert span.trace_id == first_task_span.trace_id
        assert set(span.links) == {
            rt.span_of(r).span_id for r in pending.refs
        }
        assert span.attrs["outcome"] == "ok"
        assert span.start == 0.0 and span.end > 0.0

    def test_latency_percentiles_overall_and_empty(self):
        rt = make_rt()
        fe = ServingFrontend(rt, TenantRegistry(4))
        empty = fe.latency_percentiles()
        assert all(v != v for v in empty.values())  # NaN before any completion
        t = plain_tenant("p")
        fe.play([Request(f"r{i}", t, UNIT, 0.0) for i in range(4)])
        rt.sim.run()
        overall = fe.latency_percentiles()
        by_class = fe.latency_percentiles("p")
        assert overall["p50"] == by_class["p50"]
        assert overall["p50"] <= overall["p99"] <= overall["p999"]


class TestRuntimeHooks:
    def test_when_done_fires_on_finish_fail_and_cancel(self):
        rt = make_rt()
        seen = []
        ok = rt.submit(lambda: 1)
        rt.when_done(ok, lambda r: seen.append(("ok", rt.task_state(r))))
        doomed = rt.submit(lambda: 2, compute_cost=1.0)
        rt.when_done(doomed, lambda r: seen.append(("cancel", rt.task_state(r))))
        rt.cancel(doomed, reason="user")
        rt.sim.run()
        assert ("ok", TaskState.FINISHED) in seen
        assert ("cancel", TaskState.CANCELLED) in seen

    def test_when_done_on_already_terminal_task_still_fires(self):
        rt = make_rt()
        ref = rt.submit(lambda: 5)
        assert rt.get(ref) == 5
        seen = []
        rt.when_done(ref, seen.append)
        rt.sim.run()
        assert seen == [ref]

    def test_unknown_refs_raise(self):
        rt = make_rt()
        from repro.runtime import ObjectRef

        with pytest.raises(KeyError):
            rt.task_state(ObjectRef("nope"))
        with pytest.raises(KeyError):
            rt.when_done(ObjectRef("nope"), lambda r: None)


# -- satellite: tenant attribution survives the metrics pipeline --------------


class TestTenantAttribution:
    def test_cancel_metric_round_trips_tenant_label(self):
        rt = make_rt()
        ref = rt.submit(lambda: 1, compute_cost=1.0, tenant="tenant0000042")
        assert rt.cancel(ref, reason="user")
        text = to_prometheus_text(rt.telemetry.registry)
        parsed = parse_prometheus_text(text)
        assert parsed.value(
            "skadi_tasks_cancelled_total", reason="user", tenant="tenant0000042"
        ) == 1.0
        event = rt.log.of_kind("task_cancelled")[0]
        assert event["tenant"] == "tenant0000042"

    def test_admission_rejection_round_trips_tenant_label(self):
        rt = make_rt(admission_control=True, admission_queue_depth=1)
        rt.submit(lambda: 1, compute_cost=1.0, tenant="tenant0000007")
        from repro.runtime import AdmissionRejectedError

        with pytest.raises(AdmissionRejectedError):
            rt.submit(lambda: 2, tenant="tenant0000007")
        parsed = parse_prometheus_text(to_prometheus_text(rt.telemetry.registry))
        assert parsed.value(
            "skadi_admission_rejected_total", tenant="tenant0000007"
        ) == 1.0
        assert rt.log.of_kind("admission_rejected")[0]["tenant"] == "tenant0000007"

    def test_tenantless_events_stay_label_free(self):
        """The legacy series must not grow a tenant key when nobody set one."""
        rt = make_rt()
        ref = rt.submit(lambda: 1, compute_cost=1.0)
        rt.cancel(ref, reason="user")
        event = rt.log.of_kind("task_cancelled")[0]
        assert event.get("tenant") is None
        assert rt.telemetry.registry.value(
            "skadi_tasks_cancelled_total", reason="user"
        ) == 1.0


# -- head-node balancer -------------------------------------------------------


class TestBalancer:
    def test_rate_tracker_slides_its_window(self):
        tr = MessageRateTracker(window=0.1)
        for t in (0.00, 0.01, 0.02):
            tr.note(t)
        assert tr.rate(0.05) == pytest.approx(30.0)
        assert tr.rate(0.115) == pytest.approx(10.0)  # only t=0.02 survives
        assert tr.rate(1.0) == 0.0

    def test_sessions_spread_across_heads(self):
        rt = make_rt(n_servers=3)
        bal = HeadNodeBalancer(rt)
        assert len(bal.heads) == 3
        first = bal.assign("s0")
        for _ in range(5):
            bal.note_message("s0")
        second = bal.assign("s1")
        assert second != first  # least-loaded, not first-listed
        assert len(rt.log.of_kind("serving_session_assigned")) == 2

    def test_failover_when_chaos_kills_a_head(self):
        rt = make_rt(n_servers=2)
        bal = HeadNodeBalancer(rt)
        head = bal.assign("s0")
        for raylet in rt._raylets_by_node[head]:
            raylet.fail()
        new_head = bal.head_of("s0")
        assert new_head != head and bal.head_alive(new_head)
        assert bal.failovers == 1
        ev = rt.log.of_kind("serving_session_failover")[0]
        assert ev["dead_head"] == head and ev["head"] == new_head
        assert rt.telemetry.registry.value("skadi_serving_failovers_total") == 1.0

    def test_every_head_dead_is_fatal(self):
        rt = make_rt(n_servers=1)
        bal = HeadNodeBalancer(rt)
        bal.assign("s0")
        for raylet in rt._raylets:
            raylet.fail()
        with pytest.raises(RuntimeError, match="every head node is dead"):
            bal.head_of("s0")

    def test_sustained_skew_triggers_one_rebalance(self):
        rt = make_rt(n_servers=2)
        bal = HeadNodeBalancer(rt)
        hot = bal.assign("hot-session")
        cold = bal.assign("cold-session")
        assert hot != cold
        bal.note_message("cold-session")  # give the cold head a tiny rate
        for _ in range(10):
            bal.note_message("hot-session")
        assert bal.rebalances >= 1
        first = rt.log.of_kind("serving_rebalanced")[0]
        assert first["hot_head"] == hot and first["cold_head"] == cold
        assert len(rt.log.of_kind("serving_rebalanced")) == bal.rebalances
        assert rt.telemetry.registry.value("skadi_serving_rebalances_total") == float(
            bal.rebalances
        )

    def test_frontend_accounts_messages_against_the_balancer(self):
        rt = make_rt(n_servers=2)
        bal = HeadNodeBalancer(rt)
        fe = ServingFrontend(rt, TenantRegistry(8), balancer=bal)
        t = plain_tenant("bt")
        fe.play([Request(f"r{i}", t, UNIT, 0.001 * i) for i in range(6)])
        rt.sim.run()
        assert "bt" in bal.sessions
        assert fe.completed == 6


# -- all-off equivalence: serving switches never touch the driver path --------


class TestServingEquivalence:
    def test_e17_soak_trace_identical_with_serving_switches_on(self):
        e17 = load_bench("test_e17_chaos_soak")
        legacy = e17.run_soak(e17.SEED, chaos=True)
        gated = e17.run_soak(e17.SEED, chaos=True, **SERVING_SWITCHES)
        assert legacy["signature"] == gated["signature"]
        assert legacy["makespan"] == gated["makespan"]
        assert legacy["answer"] == gated["answer"]

    def test_e21_fanout_trace_identical_with_serving_switches_on(self):
        e21 = load_bench("test_e21_fast_data_plane")
        legacy = e21.run_fanout(e21.fanout_runtime(), spread=False)
        gated = e21.run_fanout(
            e21.fanout_runtime(**SERVING_SWITCHES), spread=False
        )
        assert legacy.log.signature() == gated.log.signature()
        assert legacy.sim.now == gated.sim.now

    def test_e22_overload_trace_identical_with_serving_switches_on(self):
        """The burst-heavy E22 scenario also pins the ChaosMonkey._burst
        refactor onto the shared arrival helper: offsets must not move."""
        e22 = load_bench("test_e22_overload")
        legacy_rt, legacy_monkey = e22.run_scenario(spike=True)
        gated_rt, gated_monkey = e22.run_scenario(spike=True, **SERVING_SWITCHES)
        assert legacy_rt.log.signature() == gated_rt.log.signature()
        assert legacy_monkey.load_submitted == gated_monkey.load_submitted
        assert legacy_rt.sim.now == gated_rt.sim.now
