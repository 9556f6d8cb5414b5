"""E18 — telemetry plane: critical-path attribution of end-to-end latency.

Skadi's pitch is that a disaggregated runtime must *explain* where time
goes, not just spend it: the same observability that drives the paper's
pull-vs-push and locality arguments has to come from the runtime itself.
This experiment exercises the full telemetry stack — sim-time metrics,
causal spans, critical-path extraction, Prometheus and Chrome-trace
exports — and checks three properties:

1. **Exactness** — on a hand-built pinned chain the extractor's breakdown
   equals the attribution recomputed by hand from each task's milestones
   (a task's span is its timeline, so this checks the gating-producer walk
   and the clipping, not a second record).
2. **Determinism** — two runs with the same seed produce byte-identical
   Prometheus text and an identical critical path.
3. **Explanatory power** — on the E1 producer/consumer workload the
   extractor shows push-based resolution shrinking the transfer share of
   the critical path, which is §2.3.2's claim restated as telemetry.

Set ``BENCH_ARTIFACTS=<dir>`` to export the Chrome trace and Prometheus
text for the chaos/telemetry runs (CI uploads these as artifacts).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import ResultTable, fmt_seconds
from repro.cluster import DeviceKind, build_physical_disagg, build_serverful
from repro.runtime import (
    Generation,
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
)
from repro.runtime.trace import to_chrome_trace
from repro.telemetry import parse_prometheus_text, to_prometheus_text

PAIRS = 4
OP_COST = 1e-4
PAYLOAD = 256 * 1024
CHAIN = 5


# ---------------------------------------------------------------------------
# workloads


def run_pinned_chain():
    """A chain pinned across servers: every hand-off crosses the fabric."""
    rt = ServerlessRuntime(
        build_serverful(n_servers=3),
        RuntimeConfig(resolution=ResolutionMode.PULL),
    )
    cpus = [
        rt.cluster.node(f"server{i}").first_of_kind(DeviceKind.CPU).device_id
        for i in range(3)
    ]
    ref = rt.submit(
        lambda: 0, name="t0", compute_cost=2e-3, output_nbytes=PAYLOAD,
        pinned_device=cpus[0],
    )
    refs = [ref]
    for i in range(1, CHAIN):
        ref = rt.submit(
            lambda x: x + 1, (ref,), name=f"t{i}", compute_cost=2e-3,
            output_nbytes=PAYLOAD, pinned_device=cpus[i % 3],
        )
        refs.append(ref)
    assert rt.get(ref) == CHAIN - 1
    return rt, refs


def run_pairs(resolution: ResolutionMode):
    """The E1 workload: FPGA producers feeding GPU consumers cross-card."""
    cluster = build_physical_disagg(n_gpu_cards=2, n_fpga_cards=2)
    rt = ServerlessRuntime(
        cluster,
        RuntimeConfig(generation=Generation.GEN2, resolution=resolution),
    )
    fpgas = [d.device_id for d in cluster.devices_of_kind(DeviceKind.FPGA)]
    gpus = [d.device_id for d in cluster.devices_of_kind(DeviceKind.GPU)]
    consumers = []
    for i in range(PAIRS):
        producer = rt.submit(
            lambda i=i: i, compute_cost=OP_COST, output_nbytes=PAYLOAD,
            pinned_device=fpgas[i % len(fpgas)], name=f"prod{i}",
        )
        consumers.append(
            rt.submit(
                lambda x: x * 2, (producer,), compute_cost=OP_COST,
                pinned_device=gpus[i % len(gpus)], name=f"cons{i}",
            )
        )
    assert rt.get(consumers) == [2 * i for i in range(PAIRS)]
    return rt, consumers


# ---------------------------------------------------------------------------
# independent re-derivation of the attribution from the chain's milestones


def expected_breakdown(rt, refs):
    """Recompute the chain's attribution from each task's milestones.

    Mirrors the published semantics (clip each task to the window after
    its gating producer finished; split by milestone) but walks the chain
    the driver built, not the span graph's links, and clips by hand — so it
    cross-checks the extractor's gating-producer walk and its clipping.
    """
    tls = [rt.timeline_of(r) for r in refs]
    buckets = {"compute": 0.0, "transfer": 0.0, "queue": 0.0, "recovery": 0.0}
    lo = tls[0].start
    for i, tl in enumerate(tls):
        gate = tls[i - 1].end if i else tl.start
        lo = max(tl.start, gate)
        for a, b, bucket in (
            (tl.start, tl.dispatched, "queue"),
            (tl.dispatched, tl.inputs_ready, "transfer"),
            (tl.inputs_ready, tl.started, "queue"),
            (tl.started, tl.end, "compute"),
        ):
            a = max(a, lo)
            if b > a:
                buckets[bucket] += b - a
    total = tls[-1].end - tls[0].start
    return buckets, total


# ---------------------------------------------------------------------------
# the experiment


def test_e18_critical_path(benchmark):
    def sweep():
        chain_rt, chain_refs = run_pinned_chain()
        pull_rt, pull_refs = run_pairs(ResolutionMode.PULL)
        push_rt, push_refs = run_pairs(ResolutionMode.PUSH)
        return chain_rt, chain_refs, pull_rt, pull_refs, push_rt, push_refs

    chain_rt, chain_refs, pull_rt, pull_refs, push_rt, push_refs = (
        benchmark.pedantic(sweep, rounds=1, iterations=1)
    )

    # -- 1. exactness on the hand-built chain -------------------------------
    result = chain_rt.critical_path(chain_refs[-1])
    want, want_total = expected_breakdown(chain_rt, chain_refs)
    assert result.total == pytest.approx(want_total)
    for bucket, value in want.items():
        assert result.breakdown[bucket] == pytest.approx(value), bucket
    assert result.breakdown["recovery"] == 0.0  # failure-free run
    assert result.task_ids() == [rt_ref.task_id for rt_ref in chain_refs]
    # the path is gapless and covers the whole latency window
    for prev, nxt in zip(result.segments, result.segments[1:], strict=False):
        assert prev.end == pytest.approx(nxt.start)
    assert sum(result.fractions.values()) == pytest.approx(1.0)
    assert sum(result.breakdown.values()) == pytest.approx(result.total)

    # -- 2. determinism under the fixed seed --------------------------------
    chain_rt2, chain_refs2 = run_pinned_chain()
    assert to_prometheus_text(chain_rt2.telemetry.registry) == to_prometheus_text(
        chain_rt.telemetry.registry
    )
    result2 = chain_rt2.critical_path(chain_refs2[-1])
    assert result2.segments == result.segments
    assert result2.breakdown == result.breakdown

    # -- 3. push shrinks the transfer share of the critical path ------------
    pull_frac = max(
        pull_rt.critical_path(r).fractions["transfer"] for r in pull_refs
    )
    push_frac = max(
        push_rt.critical_path(r).fractions["transfer"] for r in push_refs
    )
    assert push_frac < pull_frac

    # -- 4. the exports round-trip through their parsers --------------------
    prom_text = to_prometheus_text(pull_rt.telemetry.registry)
    parsed = parse_prometheus_text(prom_text)
    assert parsed.value("skadi_tasks_finished_total") == pull_rt.tasks_finished
    assert parsed.types["skadi_task_latency_seconds"] == "summary"
    assert (
        parsed.value("skadi_task_latency_seconds_count") == pull_rt.tasks_finished
    )
    events = json.loads(json.dumps(to_chrome_trace(pull_rt)))
    phases = {e["ph"] for e in events}
    assert {"X", "C", "s", "f"} <= phases

    # -- the table ----------------------------------------------------------
    table = ResultTable(
        "E18: critical-path attribution (fractions of end-to-end latency)",
        ["scenario", "total", "compute", "transfer", "queue", "recovery"],
    )
    for label, res in (
        ("pinned chain", result),
        ("pairs/pull", pull_rt.critical_path(pull_refs[0])),
        ("pairs/push", push_rt.critical_path(push_refs[0])),
    ):
        frac = res.fractions
        table.add_row(
            label,
            fmt_seconds(res.total),
            f"{frac['compute']:.0%}",
            f"{frac['transfer']:.0%}",
            f"{frac['queue']:.0%}",
            f"{frac['recovery']:.0%}",
        )
    table.show()

    # -- artifacts for CI ---------------------------------------------------
    artifacts = os.environ.get("BENCH_ARTIFACTS")
    if artifacts:
        from repro.runtime.trace import write_chrome_trace

        os.makedirs(artifacts, exist_ok=True)
        write_chrome_trace(pull_rt, os.path.join(artifacts, "e18_trace.json"))
        with open(os.path.join(artifacts, "e18_metrics.prom"), "w") as fh:
            fh.write(prom_text)
