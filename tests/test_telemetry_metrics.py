"""Unit tests for the metrics plane: instruments, registry, Prometheus I/O."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from array import array
from pathlib import Path

import pytest

from repro.telemetry import (
    MetricsRegistry,
    parse_prometheus_text,
    to_prometheus_text,
)
from repro.telemetry.metrics import nearest_rank


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def registry(clock: FakeClock) -> MetricsRegistry:
    return MetricsRegistry(clock=clock)


class TestCounter:
    def test_inc_accumulates(self, registry):
        c = registry.counter("skadi_things_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("skadi_things_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_label_sets_are_independent(self, registry):
        registry.counter("skadi_link_bytes_total", link="a<->b").inc(10)
        registry.counter("skadi_link_bytes_total", link="b<->c").inc(3)
        assert registry.value("skadi_link_bytes_total", link="a<->b") == 10
        assert registry.value("skadi_link_bytes_total", link="b<->c") == 3

    def test_timestamped_with_sim_clock(self, registry, clock):
        c = registry.counter("skadi_things_total")
        clock.now = 1.25
        c.inc()
        assert c.last_updated == 1.25


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("skadi_depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value == 6.0

    def test_samples_record_the_time_series(self, registry, clock):
        g = registry.gauge("skadi_depth")
        g.set(1)
        clock.now = 0.5
        g.set(2)
        clock.now = 1.0
        g.set(3)
        assert g.samples == [(0.0, 1.0), (0.5, 2.0), (1.0, 3.0)]

    def test_same_instant_samples_coalesce(self, registry, clock):
        g = registry.gauge("skadi_depth")
        clock.now = 0.25
        g.set(1)
        g.set(2)  # same virtual instant: only the final value is observable
        assert g.samples == [(0.25, 2.0)]


class TestHistogram:
    def test_exact_percentiles(self, registry):
        h = registry.histogram("skadi_latency_seconds")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(0.5) == 50.0
        assert h.percentile(0.95) == 95.0
        assert h.percentile(0.99) == 99.0
        assert h.percentile(0.0) == 1.0
        assert h.percentile(1.0) == 100.0

    def test_nearest_rank_on_five_values(self, registry):
        # rank ceil(q * n): p50 of 1..5 is the 3rd value, p90 the 5th
        h = registry.histogram("skadi_latency_seconds")
        for v in (4, 1, 5, 3, 2):
            h.observe(float(v))
        assert h.percentile(0.5) == 3.0
        assert h.percentile(0.9) == 5.0
        assert h.percentile(0.0) == 1.0
        assert [nearest_rank([1, 2, 3, 4, 5], q) for q in (0.0, 0.2, 0.5, 0.9, 1.0)] == [
            1, 1, 3, 5, 5,
        ]

    def test_empty_percentile_is_nan(self, registry):
        h = registry.histogram("skadi_latency_seconds")
        assert math.isnan(h.percentile(0.5))

    def test_count_sum_and_scalar_value(self, registry):
        h = registry.histogram("skadi_latency_seconds")
        h.observe(1.0)
        h.observe(3.0)
        assert h.count == 2
        assert h.sum == 4.0
        assert h.value == 2.0  # uniform collection: count is the scalar

    def test_out_of_range_percentile_rejected(self, registry):
        h = registry.histogram("skadi_latency_seconds")
        with pytest.raises(ValueError):
            h.percentile(1.5)


class TestPackedSeries:
    """A gauge keeps its series in two arrays of doubles and a histogram its
    observations in one; what readers see is unchanged."""

    def test_a_gauge_packs_two_doubles_per_instant(self, registry, clock):
        g = registry.gauge("skadi_depth")
        for t, values in ((0.0, (1, 2, 3)), (0.5, (4,)), (2.0, (5, 6))):
            clock.now = t
            for v in values:
                g.set(v)
        g.inc()  # same instant again: coalesces into the last sample
        assert g._times == array("d", [0.0, 0.5, 2.0])
        assert g._values == array("d", [3.0, 4.0, 7.0])
        assert g.samples == [(0.0, 3.0), (0.5, 4.0), (2.0, 7.0)]

    def test_coalescing_is_by_exact_instant(self, registry, clock):
        g = registry.gauge("skadi_depth")
        clock.now = 0.1 + 0.2
        g.set(1)
        clock.now = 0.3  # a different double: a sample of its own
        g.set(2)
        g.dec(2)
        assert g.samples == [(0.1 + 0.2, 1.0), (0.3, 0.0)]

    def test_samples_is_a_fresh_list_of_float_pairs(self, registry, clock):
        g = registry.gauge("skadi_depth")
        assert g.samples == []
        g.set(True)
        clock.now = 1
        g.set(2)
        pairs = g.samples
        assert type(pairs) is list and all(type(p) is tuple and len(p) == 2 for p in pairs)
        assert all(type(x) is float for p in pairs for x in p)
        pairs.append((9.0, 9.0))
        assert g.samples == [(0.0, 1.0), (1.0, 2.0)]

    def test_histogram_percentiles_on_duplicates(self, registry):
        h = registry.histogram("skadi_latency_seconds")
        for v in (3, 1, 3, 2, 3, 1):
            h.observe(v)
        assert isinstance(h._values, array) and h._values.typecode == "d"
        # sorted: 1 1 2 3 3 3
        assert [h.percentile(q) for q in (0.0, 0.34, 0.5, 0.51, 1.0)] == [1.0, 2.0, 2.0, 3.0, 3.0]
        assert (h.count, h.sum) == (6, 13.0)

    def test_histogram_percentiles_on_unsorted_input_observed_after_a_read(self, registry):
        h = registry.histogram("skadi_latency_seconds")
        for v in (0.5, 0.25, 0.75):
            h.observe(v)
        assert h.percentile(0.5) == 0.5
        h.observe(0.125)  # after a sorted read: sorted again on the next one
        h.observe(1.0)
        assert [h.percentile(q) for q in (0.0, 0.4, 0.6, 1.0)] == [0.125, 0.25, 0.5, 1.0]
        assert list(h._values) == [0.125, 0.25, 0.5, 0.75, 1.0]

    # recorded at the parent of the change that packed the series, whose
    # gauges kept a list of tuples; re-pinned when the per-device running-task
    # gauge (``skadi_device_outstanding_tasks``) was deleted: its 966 samples
    # were the only events that went
    COUNTERS_SHA256 = "3747e2096d8c7966363cde203fc20f410a884629d87d27e45730093cedcd45b6"

    def test_the_chrome_counter_export_of_a_seeded_run_is_unchanged(self):
        from repro.telemetry.chrome import counters_to_chrome_events

        benchmarks = str(Path(__file__).resolve().parents[1] / "benchmarks")
        if benchmarks not in sys.path:
            sys.path.insert(0, benchmarks)
        from ledger import workloads

        wl = workloads.ServingWorkload()
        (ep,) = wl.generate(0, 0.05)
        state = wl.build(ep)
        assert wl.check(ep, state, wl.run(ep, state)) > 0
        events = counters_to_chrome_events(state.rt.telemetry.registry)
        assert len(events) == 2122
        blob = json.dumps(events).encode()
        assert hashlib.sha256(blob).hexdigest() == self.COUNTERS_SHA256


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self, registry):
        a = registry.counter("skadi_x_total", link="l")
        b = registry.counter("skadi_x_total", link="l")
        assert a is b

    def test_kind_conflict_raises(self, registry):
        registry.counter("skadi_x_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("skadi_x_total")

    def test_families_sorted_by_name(self, registry):
        registry.counter("skadi_b_total")
        registry.counter("skadi_a_total")
        assert [f.name for f in registry.families()] == [
            "skadi_a_total",
            "skadi_b_total",
        ]

    def test_value_default_when_absent(self, registry):
        assert registry.value("skadi_missing_total") == 0.0
        assert registry.value("skadi_missing_total", default=7.0) == 7.0


class TestSeriesHandle:
    def test_binding_creates_nothing_until_the_first_write(self, registry, clock):
        handle = registry.series("counter", "skadi_link_bytes_total", "bytes", "link")
        bound = handle.of("a<->b")
        assert len(registry) == 0 and registry.get("skadi_link_bytes_total", link="a<->b") is None
        clock.now = 2.0
        bound.inc(5)
        bound.inc(3)
        inst = registry.get("skadi_link_bytes_total", link="a<->b")
        assert inst.value == 8.0 and inst.last_updated == 2.0
        assert registry.family("skadi_link_bytes_total").help == "bytes"
        # once written, the cache hands out the registry's own instrument
        assert handle.of("a<->b") is inst

    def test_an_existing_series_is_returned_as_is(self, registry):
        inst = registry.gauge("skadi_depth", node="n0")
        handle = registry.series("gauge", "skadi_depth", "", "node")
        assert handle.of("n0") is inst
        handle.of("n0").set(4.0)
        assert inst.value == 4.0

    def test_one_handle_per_name_and_registry(self, registry):
        a = registry.series("counter", "skadi_x_total", "x", "device")
        assert registry.series("counter", "skadi_x_total", "x", "device") is a
        assert MetricsRegistry().series("counter", "skadi_x_total", "x", "device") is not a

    def test_conflicting_kind_or_labels_raise(self, registry):
        registry.series("counter", "skadi_x_total", "", "device")
        with pytest.raises(ValueError, match="already bound"):
            registry.series("gauge", "skadi_x_total", "", "device")
        with pytest.raises(ValueError, match="already bound"):
            registry.series("counter", "skadi_x_total", "", "node")
        registry.gauge("skadi_depth")
        with pytest.raises(ValueError, match="already registered as gauge"):
            registry.series("counter", "skadi_depth", "")

    def test_a_write_the_kind_lacks_creates_no_series(self, registry):
        bound = registry.series("counter", "skadi_x_total", "").of()
        with pytest.raises(AttributeError):
            bound.set(1.0)
        assert registry.get("skadi_x_total") is None

    def test_unwritten_gauge_and_histogram(self, registry):
        gauge = registry.series("gauge", "skadi_depth", "").of()
        gauge.inc(2)
        gauge.dec()
        hist = registry.series("histogram", "skadi_lat", "", "cls").of("gold")
        hist.observe(0.5)
        assert registry.value("skadi_depth") == 1.0
        assert registry.get("skadi_lat", cls="gold").count == 1


class TestPrometheusRoundTrip:
    def _populated(self, registry: MetricsRegistry) -> MetricsRegistry:
        registry.counter("skadi_tasks_total", "tasks run").inc(12)
        registry.counter("skadi_link_bytes_total", "per-link bytes", link="a<->b").inc(
            4096
        )
        registry.gauge("skadi_depth", "queue depth", device="gpu0").set(3)
        # the overload-control surface: per-scope admission depth gauges and
        # the shed counter, labeled by reason
        registry.gauge(
            "skadi_admission_queue_depth", "admitted, unconcluded attempts",
            scope="scheduler",
        ).set(5)
        registry.gauge(
            "skadi_admission_queue_depth", "admitted, unconcluded attempts",
            scope="raylet:server0",
        ).set(2)
        registry.counter(
            "skadi_shed_tasks_total", "tasks shed by overload control",
            reason="admission_reject",
        ).inc(7)
        registry.counter(
            "skadi_shed_tasks_total", "tasks shed by overload control",
            reason="retry_budget_exhausted",
        ).inc(3)
        h = registry.histogram("skadi_latency_seconds", "task latency")
        for v in (0.1, 0.2, 0.3, 0.4):
            h.observe(v)
        return registry

    def test_export_has_help_and_type_framing(self, registry):
        text = to_prometheus_text(self._populated(registry))
        assert "# HELP skadi_tasks_total tasks run" in text
        assert "# TYPE skadi_tasks_total counter" in text
        assert "# TYPE skadi_latency_seconds summary" in text

    def test_export_is_deterministic(self, registry, clock):
        text1 = to_prometheus_text(self._populated(registry))
        other = self._populated(MetricsRegistry(clock=clock))
        assert text1 == to_prometheus_text(other)

    def test_round_trip_preserves_values(self, registry):
        text = to_prometheus_text(self._populated(registry))
        parsed = parse_prometheus_text(text)
        assert parsed.value("skadi_tasks_total") == 12
        assert parsed.value("skadi_link_bytes_total", link="a<->b") == 4096
        assert parsed.value("skadi_depth", device="gpu0") == 3
        assert parsed.value("skadi_admission_queue_depth", scope="scheduler") == 5
        assert parsed.value("skadi_admission_queue_depth", scope="raylet:server0") == 2
        assert (
            parsed.value("skadi_shed_tasks_total", reason="admission_reject") == 7
        )
        assert (
            parsed.value("skadi_shed_tasks_total", reason="retry_budget_exhausted")
            == 3
        )
        assert parsed.value("skadi_latency_seconds_count") == 4
        assert parsed.value("skadi_latency_seconds_sum") == pytest.approx(1.0)
        assert parsed.value("skadi_latency_seconds", quantile="0.5") == 0.2

    def test_parsed_types_and_helps(self, registry):
        parsed = parse_prometheus_text(to_prometheus_text(self._populated(registry)))
        assert parsed.types["skadi_tasks_total"] == "counter"
        assert parsed.types["skadi_depth"] == "gauge"
        assert parsed.helps["skadi_tasks_total"] == "tasks run"

    def test_unknown_sample_raises(self, registry):
        parsed = parse_prometheus_text(to_prometheus_text(self._populated(registry)))
        with pytest.raises(KeyError):
            parsed.value("skadi_not_a_metric")
