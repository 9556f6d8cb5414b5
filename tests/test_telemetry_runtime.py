"""Integration tests: the telemetry plane wired through the live runtime."""

from __future__ import annotations

import dataclasses
import inspect
import re

import pytest

from repro.caching.replication import ReplicationScheme
from repro.chaos import monkey
from repro.cluster.cluster import build_physical_disagg, build_serverful
from repro.cluster.hardware import DeviceKind
from repro.runtime import (
    Generation,
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
    TaskError,
    to_chrome_trace,
)
from repro.runtime.runtime import make_reliable_cache
from repro.serving import ServingFrontend, TenantRegistry, WorkloadGenerator
from repro.telemetry import MetricsRegistry, parse_prometheus_text, to_prometheus_text


def pull_runtime(cluster=None, **cfg):
    return ServerlessRuntime(
        cluster or build_serverful(n_servers=3),
        RuntimeConfig(resolution=ResolutionMode.PULL, **cfg),
    )


def run_diamond(rt, spread=False):
    """a -> (b, c) -> d; returns (refs, answer).

    ``spread=True`` pins the four tasks across three servers so argument
    resolution has to cross the fabric (pull RPCs + bulk transfers).
    """
    if spread:
        cpus = [
            rt.cluster.node(f"server{i}").first_of_kind(DeviceKind.CPU).device_id
            for i in range(3)
        ]
        pins = [cpus[0], cpus[1], cpus[2], cpus[0]]
    else:
        pins = [None] * 4
    a = rt.submit(lambda: 2, name="a", compute_cost=1e-3, output_nbytes=1 << 16,
                  pinned_device=pins[0])
    b = rt.submit(lambda x: x + 1, (a,), name="b", compute_cost=1e-3,
                  pinned_device=pins[1])
    c = rt.submit(lambda x: x * 10, (a,), name="c", compute_cost=1e-3,
                  pinned_device=pins[2])
    d = rt.submit(lambda x, y: x + y, (b, c), name="d", compute_cost=1e-3,
                  pinned_device=pins[3])
    return (a, b, c, d), rt.get(d)


class TestRuntimeMetrics:
    def test_task_counters_track_lifecycle(self):
        rt = pull_runtime()
        _, answer = run_diamond(rt)
        assert answer == 23
        reg = rt.telemetry.registry
        assert reg.value("skadi_tasks_submitted_total") == 4
        assert reg.value("skadi_tasks_finished_total") == 4
        assert reg.value("skadi_tasks_failed_total") == 0
        assert reg.get("skadi_task_latency_seconds").count == 4

    def test_latency_histogram_matches_timelines(self):
        rt = pull_runtime()
        refs, _ = run_diamond(rt)
        hist = rt.telemetry.registry.get("skadi_task_latency_seconds")
        latencies = sorted(tl.latency for tl in rt.timelines)
        assert hist.count == len(latencies)
        assert hist.sum == pytest.approx(sum(latencies))

    def test_placement_and_link_metrics_populated(self):
        rt = pull_runtime()
        run_diamond(rt, spread=True)
        reg = rt.telemetry.registry
        placed = sum(
            inst.value for inst in reg.family("skadi_placements_total").instruments()
        )
        assert placed >= 4
        link_bytes = sum(
            inst.value for inst in reg.family("skadi_link_bytes_total").instruments()
        )
        # every transfer/message hop is metered, so the per-link sum must
        # cover at least the payload bytes NetworkStats saw move
        assert link_bytes >= rt.net.stats.bytes_moved > 0
        msgs = sum(
            inst.value
            for inst in reg.family("skadi_link_messages_total").instruments()
        )
        assert msgs > 0

    def test_store_metrics_track_puts_and_residency(self):
        rt = pull_runtime()
        refs, _ = run_diamond(rt)
        reg = rt.telemetry.registry
        puts = sum(
            inst.value for inst in reg.family("skadi_store_puts_total").instruments()
        )
        assert puts >= 4  # four outputs, plus pulled copies
        resident = reg.family("skadi_store_bytes_resident")
        assert resident is not None
        assert sum(inst.value for inst in resident.instruments()) > 0
        # pull mode resolved b/c/d's remote args over the fabric at least once
        hits_or_misses = sum(
            inst.value
            for fam_name in ("skadi_store_hits_total", "skadi_store_misses_total")
            if reg.family(fam_name) is not None
            for inst in reg.family(fam_name).instruments()
        )
        assert hits_or_misses >= 4  # b, c each 1 dep; d has 2

    def test_metrics_summary_is_flat_and_sorted(self):
        rt = pull_runtime()
        run_diamond(rt, spread=True)
        summary = rt.metrics_summary()
        assert summary["skadi_tasks_finished_total"] == 4.0
        assert list(summary) == sorted(summary)
        assert any(k.startswith("skadi_link_bytes_total{link=") for k in summary)

    def test_export_deterministic_across_identical_runs(self):
        texts = []
        for _ in range(2):
            rt = pull_runtime()
            run_diamond(rt)
            texts.append(to_prometheus_text(rt.telemetry.registry))
        assert texts[0] == texts[1]
        parsed = parse_prometheus_text(texts[0])
        assert parsed.value("skadi_tasks_finished_total") == 4


def _const(value):
    return lambda: value


def _total(*xs):
    return sum(xs)


def hot_pass(rt, frontend, tenants):
    """One round of every hot metering site: a 3x3 shuffle of 1 MiB objects
    (chunked, multi-hop), a batch of small tasks, the heartbeats that run
    beside them, and a few serving requests."""
    cpus = [f"server{i}/cpu" for i in range(3)]
    producers = [
        rt.submit(_const(i), compute_cost=1e-4, output_nbytes=1 << 20, pinned_device=cpu)
        for i, cpu in enumerate(cpus)
    ]
    consumers = [
        rt.submit(_total, tuple(producers), compute_cost=1e-4, pinned_device=cpu)
        for cpu in cpus
    ]
    batch = [rt.submit(_const(i), compute_cost=1e-3) for i in range(8)]
    assert rt.get(rt.submit(_total, tuple(consumers + batch))) == 3 * 3 + 28
    offset = rt.sim.now
    requests = WorkloadGenerator(tenants, rate=400.0, duration=0.02, seed=3).requests()
    frontend.play([dataclasses.replace(r, arrival=r.arrival + offset) for r in requests])
    rt.sim.run(until=offset + 1.0)


class TestBoundInstruments:
    """Hot sites bind their instruments once: after a warm-up pass, an
    identical pass makes no registry lookup at all."""

    @pytest.mark.parametrize("mode", [ResolutionMode.PUSH, ResolutionMode.PULL])
    def test_a_warm_pass_looks_nothing_up(self, mode, monkeypatch):
        rt = ServerlessRuntime(
            build_serverful(n_servers=3),
            RuntimeConfig(
                resolution=mode,
                heartbeat_interval=1e-3,
                heartbeat_miss_threshold=3,
                serving_max_inflight=2,
                serving_queue_depth=64,
                serving_fair_queueing=True,
            ),
        )
        tenants = TenantRegistry(20)
        frontend = ServingFrontend(rt, tenants)
        hot_pass(rt, frontend, tenants)
        lookups = []
        for method in ("counter", "gauge", "histogram"):
            original = getattr(MetricsRegistry, method)

            def counting(self, name, *args, _original=original, **labels):
                lookups.append(name)
                return _original(self, name, *args, **labels)

            monkeypatch.setattr(MetricsRegistry, method, counting)
        reg = rt.telemetry.registry
        before = dict(
            link=reg.value("skadi_link_bytes_total", link="server1/cpu<->tor-switch"),
            beats=rt.health.beats_received,
            completed=frontend.completed,
            queued=reg.get("skadi_serving_queue_depth").last_updated,
        )
        hot_pass(rt, frontend, tenants)
        assert lookups == []
        # ... and the pass did meter every kind of hot site
        assert reg.value("skadi_link_bytes_total", link="server1/cpu<->tor-switch") > before["link"]
        assert rt.health.beats_received > before["beats"]
        assert frontend.completed > before["completed"]
        assert reg.get("skadi_serving_queue_depth").last_updated > before["queued"]

    def test_a_second_runtime_meters_into_its_own_registry(self):
        cluster = build_serverful(n_servers=3)
        first = pull_runtime(cluster)
        run_diamond(first, spread=True)
        frozen = first.metrics_summary()
        second = pull_runtime(cluster)
        _, answer = run_diamond(second, spread=True)
        assert answer == 23
        assert first.metrics_summary() == frozen
        reg = second.telemetry.registry
        for name in (
            "skadi_link_bytes_total",
            "skadi_link_busy_seconds_total",
            "skadi_link_transfers_total",
            "skadi_store_puts_total",
            "skadi_store_bytes_resident",
            "skadi_raylet_control_actions_total",
        ):
            family = reg.family(name)
            assert family is not None and len(family) > 0, name
        # the second runtime's traffic alone: its link bytes equal the first's
        assert {
            k: v for k, v in second.metrics_summary().items() if k.startswith("skadi_link_")
        } == {k: v for k, v in frozen.items() if k.startswith("skadi_link_")}

    def test_nothing_carried_means_no_series(self):
        # server2 and its link carry nothing: no link, store, raylet or
        # device series names them
        rt = pull_runtime(build_serverful(n_servers=3))
        a = rt.submit(_const(1), compute_cost=1e-3, output_nbytes=1 << 20,
                      pinned_device="server0/cpu")
        b = rt.submit(lambda x: x + 1, (a,), compute_cost=1e-3, pinned_device="server1/cpu")
        assert rt.get(b) == 2
        links = ("server0/cpu<->tor-switch", "server1/cpu<->tor-switch")
        assert set(rt.metrics_summary()) == {
            "skadi_actor_restarts_total",
            "skadi_lineage_replays_total",
            "skadi_scheduler_capacity_slots",
            "skadi_scheduler_schedulable_devices",
            "skadi_scheduler_waiting_tasks",
            "skadi_speculations_total",
            "skadi_task_input_stall_seconds",
            "skadi_task_latency_seconds",
            "skadi_tasks_failed_total",
            "skadi_tasks_finished_total",
            "skadi_tasks_retried_total",
            "skadi_tasks_submitted_total",
            *(
                f"skadi_link_{kind}_total{{link={link}}}"
                for kind in ("busy_seconds", "bytes", "messages", "transfers")
                for link in links
            ),
            *(
                f"{name}{{device=server{i}/cpu}}"
                for name in (
                    "skadi_store_bytes_resident",
                    "skadi_store_puts_total",
                )
                for i in (0, 1)
            ),
            "skadi_placements_total{device=server0/cpu,policy=locality}",
            "skadi_placements_total{device=server1/cpu,policy=locality}",
            "skadi_raylet_control_actions_total{raylet=raylet@server0/cpu}",
            "skadi_raylet_control_actions_total{raylet=raylet@server1/cpu}",
            "skadi_store_misses_total{device=server1/cpu}",
        }


class TestRuntimeSpans:
    def test_task_spans_share_one_trace_and_link_producers(self):
        rt = pull_runtime()
        (a, b, c, d), _ = run_diamond(rt)
        spans = {r.object_id: rt.span_of(r) for r in (a, b, c, d)}
        assert all(s is not None and not s.is_open for s in spans.values())
        trace_ids = {s.trace_id for r, s in spans.items() if r != a.object_id}
        # b and c link a; d links b and c — all downstream spans share a's trace
        assert trace_ids == {spans[a.object_id].trace_id}
        assert spans[b.object_id].links == (spans[a.object_id].span_id,)
        assert set(spans[d.object_id].links) == {
            spans[b.object_id].span_id,
            spans[c.object_id].span_id,
        }

    def test_phase_events_tile_the_task_span(self):
        rt = pull_runtime()
        (_, _, _, d), _ = run_diamond(rt)
        span = rt.span_of(d)
        phases = [
            e for e in to_chrome_trace(rt)
            if e["ph"] == "X" and e["name"].startswith(f"{span.name}:")
            and e["args"]["parent_id"] == span.span_id
        ]
        assert {e["cat"] for e in phases} <= {"queue", "transfer", "compute"}
        assert "compute" in {e["cat"] for e in phases}
        # back to back from submission to finish, no gap and no overlap
        assert phases[0]["ts"] == pytest.approx(span.start * 1e6)
        for before, after in zip(phases, phases[1:], strict=False):
            assert before["ts"] + before["dur"] == pytest.approx(after["ts"])
        assert sum(e["dur"] for e in phases) == pytest.approx(span.duration * 1e6)
        # the phases are drawn, not recorded: the tracer holds no child for them
        assert not [
            s for s in rt.telemetry.tracer.spans
            if s.parent_id == span.span_id and s.name.startswith(f"{span.name}:")
        ]

    def test_pull_transfers_traced_under_task(self):
        rt = pull_runtime()
        (_, b, _, _), _ = run_diamond(rt, spread=True)
        span = rt.span_of(b)
        pulls = [
            s
            for s in rt.telemetry.tracer.spans
            if s.parent_id == span.span_id and s.name.startswith("pull:")
        ]
        assert pulls and all(not s.is_open for s in pulls)

    def test_critical_path_on_live_runtime(self):
        rt = pull_runtime()
        (a, b, c, d), _ = run_diamond(rt)
        result = rt.critical_path(d)
        tl = rt.timeline_of(d)
        assert result.total == pytest.approx(tl.end)
        assert result.task_ids()[-1] == rt._ctx_of_object[d.object_id].spec.task_id
        assert result.breakdown["compute"] > 0
        assert result.breakdown["recovery"] == 0.0
        assert sum(result.breakdown.values()) == pytest.approx(result.total)

    def test_replay_spans_marked_replayed(self):
        rt = ServerlessRuntime(
            build_serverful(n_servers=2),
            RuntimeConfig(resolution=ResolutionMode.PULL),
        )
        cpu = rt.cluster.node("server0").first_of_kind(DeviceKind.CPU)
        ref = rt.submit(lambda: 5, name="head", pinned_device=cpu.device_id)
        assert rt.get(ref) == 5
        rt.fail_node("server0")
        rt.restart_node("server0")
        assert rt.get(ref) == 5
        replayed = [
            s for s in rt.telemetry.tracer.spans if s.attrs.get("replayed")
        ]
        assert replayed and not replayed[0].is_open
        assert rt.telemetry.registry.value("skadi_lineage_replays_total") == 1


class TestIncidentRoundTrip:
    """Satellite: metrics_summary() and EventLog.counts() agree (one source
    of truth, two views) — asserted on a failure-heavy run."""

    def _soak(self):
        cluster = build_serverful(n_servers=3)
        cache = make_reliable_cache(cluster, ReplicationScheme(2))
        rt = ServerlessRuntime(
            cluster,
            RuntimeConfig(
                resolution=ResolutionMode.PULL,
                max_retries=8,
                retry_backoff_base=1e-3,
            ),
            reliable_cache=cache,
        )
        cpu1 = cluster.node("server1").first_of_kind(DeviceKind.CPU)
        ref = rt.submit(lambda: 1, pinned_device=cpu1.device_id, name="head")
        for i in range(3):
            ref = rt.submit(lambda x: x + 1, (ref,), name=f"s{i}")
        assert rt.get(ref) == 4
        rt.fail_node("server1")
        rt.restart_node("server1")
        assert rt.get(ref) == 4
        return rt

    def test_incident_counters_equal_event_log_counts(self):
        rt = self._soak()
        counts = rt.log.counts()
        assert counts  # the run actually produced incidents
        summary = rt.metrics_summary()
        for kind, n in counts.items():
            assert summary[f"skadi_incidents_total{{kind={kind}}}"] == float(n)
        # and nothing extra: every incident counter maps back to a log kind
        incident_keys = [
            k for k in summary if k.startswith("skadi_incidents_total{")
        ]
        assert len(incident_keys) == len(counts)

    def test_runtime_counters_match_legacy_attributes(self):
        rt = self._soak()
        reg = rt.telemetry.registry
        assert reg.value("skadi_tasks_finished_total") == rt.tasks_finished
        assert reg.value("skadi_tasks_failed_total") == rt.tasks_failed
        assert reg.value("skadi_tasks_retried_total") == rt.tasks_retried
        assert reg.value("skadi_lineage_replays_total") == rt.lineage.replays
        assert reg.value("skadi_actor_restarts_total") == rt.actor_restarts


class TestChromeTraceIntegration:
    def test_one_task_slice_per_timeline(self):
        """The span graph and the timelines the ledger reads agree: one task
        slice per finished task, on the device the timeline names."""
        rt = pull_runtime()
        run_diamond(rt)
        events = to_chrome_trace(rt)
        assert {e["ph"] for e in events} <= {"X", "i", "s", "f", "C"}
        task_x = sorted(
            (e["name"], e["tid"]) for e in events if e["ph"] == "X" and e["cat"] == "task"
        )
        assert task_x == sorted((tl.name, tl.device) for tl in rt.timelines)
        assert len(task_x) == 4

    def test_node_scoped_instants_use_process_scope(self):
        rt = pull_runtime()
        run_diamond(rt)
        rt.fail_node("server1")  # records node_dead (node-scoped)
        events = to_chrome_trace(rt)
        instants = [e for e in events if e["ph"] == "i"]
        node_dead = next(e for e in instants if e["name"] == "node_dead")
        assert node_dead["s"] == "p"  # pinned to its node's process row
        assert node_dead["pid"] == "server1"

    def test_cluster_wide_instants_stay_global(self):
        rt = pull_runtime(task_timeout=None)
        rt.log.record(rt.sim.now, "detector_stalled", ticks=200)
        events = to_chrome_trace(rt)
        stalled = next(e for e in events if e["name"] == "detector_stalled")
        assert stalled["s"] == "g"
        assert stalled["pid"] == "control-plane"

    def test_every_chaos_injection_is_an_instant(self):
        """Every kind the chaos monkey can record is marked, whatever fault
        it injects: device, blade and DPU faults, head kills and load bursts
        included."""
        kinds = set(re.findall(r'_record\(\s*"(chaos_\w+)"', inspect.getsource(monkey)))
        assert len(kinds) == 18  # nine faults, eight revivals, the head kill
        rt = pull_runtime()
        for kind in sorted(kinds):
            rt._record(kind)
        instants = {e["name"]: e["cat"] for e in to_chrome_trace(rt) if e["ph"] == "i"}
        assert instants == dict.fromkeys(kinds, "chaos")

    def test_verdicts_of_every_fault_domain_are_instants(self):
        rt = ServerlessRuntime(
            build_physical_disagg(), RuntimeConfig(generation=Generation.GEN1)
        )
        rt.fail_device("gpucard0/gpu0")
        rt.failures.fail_dpu("fpgacard0", "killed by driver", announce=True)  # head adopts
        rt.failures.fail_blade("memblade0", "killed by driver", announce=True)
        rt.failures.fail_head()  # no standby: the control plane is lost
        instants = [(e["name"], e["cat"]) for e in to_chrome_trace(rt) if e["ph"] == "i"]
        assert instants == [
            ("device_dead", "failure"), ("device_dead", "failure"),
            ("raylet_takeover", "recovery"), ("blade_dead", "failure"), ("gcs_lost", "failure"),
        ]

    def test_trace_holds_the_span_graph_and_counters(self):
        rt = pull_runtime()
        run_diamond(rt)
        events = to_chrome_trace(rt)
        x_events = [e for e in events if e["ph"] == "X"]
        task_x = [e for e in x_events if e["cat"] == "task"]
        assert len(task_x) == 4
        assert all("span_id" in e["args"] for e in task_x)
        assert any(e["ph"] == "s" for e in events)  # flow arrows
        assert any(e["ph"] == "f" for e in events)
        assert any(e["ph"] == "C" for e in events)  # gauge counters
        # flows bind to enclosing slices so Perfetto draws arrows onto spans
        assert all(e.get("bp") == "e" for e in events if e["ph"] == "f")

    def test_incidents_spans_and_counters_share_one_trace(self):
        rt = pull_runtime()
        (_, _, _, d), _ = run_diamond(rt)
        rt.fail_node("server1")
        events = to_chrome_trace(rt)
        kinds = [e["ph"] for e in events]
        # spans first, then the incident instants, then the gauge samples
        assert kinds.index("i") > max(i for i, ph in enumerate(kinds) if ph in "Xsf")
        assert kinds.index("C") > max(i for i, ph in enumerate(kinds) if ph == "i")
        assert rt.span_of(d).span_id in {e.get("args", {}).get("span_id") for e in events}

    def test_a_failed_task_is_drawn_without_phases(self):
        rt = pull_runtime()

        def boom():
            raise ValueError("no")

        ref = rt.submit(boom, name="boom")
        with pytest.raises(TaskError):
            rt.get(ref)
        events = to_chrome_trace(rt)
        (slice_,) = [e for e in events if e["ph"] == "X" and e["name"] == "boom"]
        assert slice_["cat"] == "task"
        assert not [e for e in events if e["name"].startswith("boom:")]

    def test_the_exporters_take_no_flags(self):
        from repro.runtime import write_chrome_trace

        assert list(inspect.signature(to_chrome_trace).parameters) == ["runtime"]
        assert list(inspect.signature(write_chrome_trace).parameters) == [
            "runtime", "path_or_file",
        ]

    def test_trace_is_json_serializable(self, tmp_path):
        import json

        from repro.runtime import write_chrome_trace

        rt = pull_runtime()
        run_diamond(rt)
        out = tmp_path / "trace.json"
        n = write_chrome_trace(rt, str(out))
        payload = json.loads(out.read_text())
        assert len(payload["traceEvents"]) == n
