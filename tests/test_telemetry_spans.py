"""Unit tests for span tracing, critical-path extraction, and Chrome export."""

from __future__ import annotations

import pytest

from repro.telemetry import (
    ATTRIBUTION_BUCKETS,
    MetricsRegistry,
    Tracer,
    counters_to_chrome_events,
    critical_path,
    spans_to_chrome_events,
)


class TestTracer:
    def test_ids_are_sequential_and_deterministic(self):
        tracer = Tracer()
        a = tracer.start_span("a", "task")
        b = tracer.start_span("b", "task")
        assert (a.trace_id, a.span_id) == ("trace-0001", "span-000001")
        assert (b.trace_id, b.span_id) == ("trace-0002", "span-000002")

    def test_trace_id_propagates_parent_to_child(self):
        tracer = Tracer()
        parent = tracer.start_span("parent", "task")
        child = tracer.start_span("child", "compute", parent=parent)
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id

    def test_finish_guards(self):
        tracer = Tracer()
        span = tracer.start_span("t", "task", start=1.0)
        with pytest.raises(ValueError, match="ends before it starts"):
            span.finish(0.5)
        span.finish(2.0)
        with pytest.raises(RuntimeError, match="already finished"):
            span.finish(3.0)

    def test_emit_records_closed_span(self):
        tracer = Tracer()
        span = tracer.emit("x", "transfer", 1.0, 2.0)
        assert not span.is_open
        assert span.duration == 1.0
        assert tracer.finished_spans() == [span]

    def test_open_spans_excluded_from_finished(self):
        tracer = Tracer()
        tracer.start_span("open", "task")
        done = tracer.emit("done", "task", 0.0, 1.0)
        assert tracer.finished_spans() == [done]


def _task_span(tracer, name, submitted, dispatched, inputs_ready, started,
               finished, links=(), **attrs):
    """A task span shaped exactly like the runtime's: opened at submission,
    given the winning attempt's milestones, closed at the finish."""
    span = tracer.start_span(name, "task", links=links, start=submitted, task_id=name, **attrs)
    span.dispatched, span.inputs_ready, span.started = dispatched, inputs_ready, started
    return span.finish(finished)


class TestCriticalPath:
    def test_single_task_exact_attribution(self):
        tracer = Tracer()
        # submitted 0, dispatched 1, inputs 3, started 4, finished 10
        span = _task_span(tracer, "t", 0.0, 1.0, 3.0, 4.0, 10.0)
        result = critical_path(tracer.finished_spans(), span)
        assert result.total == pytest.approx(10.0)
        assert result.breakdown["queue"] == pytest.approx(2.0)  # 0-1 and 3-4
        assert result.breakdown["transfer"] == pytest.approx(2.0)  # 1-3
        assert result.breakdown["compute"] == pytest.approx(6.0)  # 4-10
        assert result.breakdown["recovery"] == 0.0
        assert sum(result.fractions.values()) == pytest.approx(1.0)

    def test_chain_follows_gating_producer(self):
        tracer = Tracer()
        fast = _task_span(tracer, "fast", 0.0, 0.0, 0.0, 0.0, 1.0)
        slow = _task_span(tracer, "slow", 0.0, 0.0, 0.0, 0.0, 5.0)
        sink = _task_span(
            tracer, "sink", 0.0, 0.5, 6.0, 6.0, 8.0,
            links=(fast.span_id, slow.span_id),
        )
        result = critical_path(tracer.finished_spans(), sink)
        # the gate is `slow` (finished last); `fast` is off the path
        assert result.task_ids() == ["slow", "sink"]
        # sink contributes only its post-gate window [5, 8]
        assert result.breakdown["compute"] == pytest.approx(5.0 + 2.0)
        assert result.breakdown["transfer"] == pytest.approx(1.0)  # 5-6 clipped
        assert result.total == pytest.approx(8.0)

    def test_clipping_under_push_dispatch(self):
        tracer = Tracer()
        # push mode: consumer dispatched at t=0 but its producer ends at t=4,
        # so [dispatched, inputs_ready] = [0, 4.5] must clip to [4, 4.5]
        producer = _task_span(tracer, "p", 0.0, 0.0, 0.0, 0.0, 4.0)
        consumer = _task_span(
            tracer, "c", 0.0, 0.0, 4.5, 4.5, 6.0, links=(producer.span_id,)
        )
        result = critical_path(tracer.finished_spans(), consumer)
        assert result.breakdown["transfer"] == pytest.approx(0.5)
        assert result.breakdown["compute"] == pytest.approx(4.0 + 1.5)
        assert result.total == pytest.approx(6.0)

    def test_segments_are_contiguous(self):
        tracer = Tracer()
        a = _task_span(tracer, "a", 0.0, 0.2, 0.2, 0.5, 2.0)
        b = _task_span(tracer, "b", 0.1, 0.3, 2.5, 2.5, 4.0, links=(a.span_id,))
        result = critical_path(tracer.finished_spans(), b)
        for prev, nxt in zip(result.segments, result.segments[1:], strict=False):
            assert prev.end == pytest.approx(nxt.start)
        assert result.segments[0].start == 0.0
        assert result.segments[-1].end == 4.0
        assert sum(result.breakdown.values()) == pytest.approx(result.total)

    def test_replayed_task_is_all_recovery(self):
        tracer = Tracer()
        span = _task_span(tracer, "r", 1.0, 1.2, 1.5, 1.6, 3.0, replayed=True)
        result = critical_path(tracer.finished_spans(), span)
        assert result.breakdown["recovery"] == pytest.approx(2.0)
        assert result.breakdown["compute"] == 0.0

    def test_retried_task_queue_becomes_recovery(self):
        tracer = Tracer()
        span = _task_span(tracer, "r", 0.0, 5.0, 5.5, 6.0, 7.0, retries=2)
        result = critical_path(tracer.finished_spans(), span)
        # queue windows [0,5] + [5.5,6] fold into recovery; the winning
        # attempt's transfer and compute remain genuinely that
        assert result.breakdown["recovery"] == pytest.approx(5.5)
        assert result.breakdown["transfer"] == pytest.approx(0.5)
        assert result.breakdown["compute"] == pytest.approx(1.0)

    def test_target_must_be_finished_task_span(self):
        tracer = Tracer()
        phase = tracer.emit("x", "compute", 0.0, 1.0)
        with pytest.raises(ValueError, match="task span"):
            critical_path(tracer.finished_spans(), phase)
        open_task = tracer.start_span("open", "task")
        with pytest.raises(ValueError, match="still open"):
            critical_path(tracer.spans, open_task)

    def test_buckets_cover_constant(self):
        assert ATTRIBUTION_BUCKETS == ("compute", "transfer", "queue", "recovery")


class TestChromeExport:
    def test_spans_become_complete_events(self):
        tracer = Tracer()
        span = tracer.emit("t", "task", 0.0, 1.0, node="server0", device="server0/cpu0")
        (event,) = spans_to_chrome_events([span])
        assert event["ph"] == "X"
        assert event["pid"] == "server0"
        assert event["tid"] == "server0/cpu0"
        assert event["ts"] == 0.0
        assert event["dur"] == pytest.approx(1e6)
        assert event["args"]["span_id"] == span.span_id

    def test_causal_links_become_flow_pairs(self):
        tracer = Tracer()
        producer = tracer.emit("p", "task", 0.0, 2.0)
        consumer = tracer.emit(
            "c", "task", 1.0, 4.0, links=(producer.span_id,)
        )
        events = spans_to_chrome_events([producer, consumer])
        flows = [e for e in events if e["cat"] == "flow"]
        assert {e["ph"] for e in flows} == {"s", "f"}
        start = next(e for e in flows if e["ph"] == "s")
        finish = next(e for e in flows if e["ph"] == "f")
        assert start["id"] == finish["id"]
        assert start["ts"] == pytest.approx(2.0 * 1e6)  # producer finish
        assert finish["ts"] == pytest.approx(2.0 * 1e6)  # consumer resume
        assert finish["bp"] == "e"

    def test_gauge_samples_become_counter_events(self):
        registry = MetricsRegistry()
        g = registry.gauge("skadi_depth", device="gpu0")
        g.set(1)
        g.set(3)
        events = counters_to_chrome_events(registry)
        assert all(e["ph"] == "C" for e in events)
        assert events[-1]["args"]["value"] == 3.0
        assert events[0]["name"] == "skadi_depth{device=gpu0}"
