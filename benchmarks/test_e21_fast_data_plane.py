"""E21 — fast data plane: chunking, dedup, multicast, contention (§2.3).

Skadi's headline is that the runtime controls *where bytes travel*; this
experiment measures the four data-plane mechanisms this repo layers onto
the simulated fabric.  The mechanisms are always on, so each row's
comparator is something the fabric can still do or plain arithmetic:

* **chunking** — a large transfer over a >= 3-hop disaggregated route,
  pipelined cut-through vs. the same payload sent as one chunk (which every
  hop stores and forwards whole);
* **dedup** — N concurrent consumers of one object on one node collapse
  onto one bulk transfer; without the in-flight fetch registry each of the
  N would have paid the bytes;
* **multicast** — a push wave to N consumer nodes rides one spanning tree;
  ``skadi_multicast_bytes_saved_total`` meters exactly the link bytes that
  one unicast per consumer would have added;
* **contention** — the locality scheduler prices the backlog on a hot PCIe
  link and steers to a remote GPU, vs. the same tasks pinned to the GPU
  nearest their input.

Acceptance: chunking >= 2x on the 4-hop route, dedup does exactly 1
transfer, the multicast tree saves (N-1) uplink serializations, placement
steers off the hot link and holds the committed makespan — and the numbers
land in ``BENCH_E21.json`` for the perf trajectory.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.bench import ResultTable, fmt_bytes, fmt_seconds
from repro.cluster import DeviceKind, build_physical_disagg, build_serverful
from repro.cluster.hardware import MB
from repro.cluster.network import DEFAULT_CHUNK_BYTES, Network
from repro.runtime import ResolutionMode, RuntimeConfig, ServerlessRuntime

XFER_NB = 64 * MB  # the chunking probe payload
FANOUT_NB = 8 * MB  # the dedup / multicast object
N_CONSUMERS = 4


def bench_chunking() -> dict:
    """(a) 64 MB over the 4-hop gpu->dpu->ToR->dpu->gpu route."""

    def timed(chunk_bytes: int) -> float:
        cluster = build_physical_disagg()
        net = Network(cluster.sim, cluster.topology, chunk_bytes=chunk_bytes)
        hops = cluster.topology.hop_count("gpucard0/gpu0", "gpucard1/gpu0")
        assert hops >= 3, f"route too short for the cut-through probe: {hops}"
        net.transfer("gpucard0/gpu0", "gpucard1/gpu0", XFER_NB)
        cluster.sim.run()
        return cluster.sim.now

    # a chunk as large as the payload: one chunk, stored and forwarded whole
    t_off, t_on = timed(XFER_NB), timed(DEFAULT_CHUNK_BYTES)
    return {
        "nbytes": XFER_NB,
        "hops": 4,
        "time_store_and_forward": t_off,
        "time_chunked": t_on,
        "speedup": t_off / t_on,
    }


def fanout_runtime(**overrides) -> ServerlessRuntime:
    overrides.setdefault("resolution", ResolutionMode.PULL)
    return ServerlessRuntime(
        build_serverful(n_servers=N_CONSUMERS + 1), RuntimeConfig(**overrides)
    )


def run_fanout(rt: ServerlessRuntime, spread: bool) -> ServerlessRuntime:
    """N concurrent consumers of one head-node object; ``spread`` pins one
    consumer per node (multicast shape), else all onto one node (dedup)."""
    ref = rt.put(b"x" * 64, nbytes=FANOUT_NB)
    outs = [
        rt.submit(
            lambda x: len(x),
            (ref,),
            compute_cost=1e-5,
            pinned_device=f"server{i + 1 if spread else 1}/cpu",
            name=f"consumer{i}",
        )
        for i in range(N_CONSUMERS)
    ]
    assert rt.get(outs) == [64] * N_CONSUMERS
    return rt


def bench_dedup() -> dict:
    """(b) N concurrent same-object fetches to one node."""
    rt = run_fanout(fanout_runtime(), spread=False)
    return {
        "consumers": N_CONSUMERS,
        "nbytes": FANOUT_NB,
        "transfers_dedup": rt.net.stats.transfers,
        # un-deduped, every consumer pays the bytes itself
        "transfers_legacy": N_CONSUMERS,
        "bytes_dedup": rt.net.stats.bytes_moved,
        "bytes_legacy": N_CONSUMERS * FANOUT_NB,
        "fetches_deduped": int(
            sum(
                c.value
                for c in rt.telemetry.registry.family(
                    "skadi_fetch_dedup_total"
                ).instruments()
            )
        ),
    }


def bench_multicast() -> dict:
    """(c) push wave of one object to N consumer nodes."""
    rt = run_fanout(fanout_runtime(resolution=ResolutionMode.PUSH), spread=True)
    metered = rt.telemetry.registry.counter(
        "skadi_multicast_bytes_saved_total",
        "bytes multicast trees avoided serializing vs. per-consumer unicasts",
    ).value
    link_bytes = sum(rt.net.stats.bytes_by_link.values())
    uplink = rt.net.stats.bytes_by_link[("server0/cpu", rt.cluster.switch_id)]
    return {
        "consumers": N_CONSUMERS,
        "nbytes": FANOUT_NB,
        "link_bytes_multicast": link_bytes,
        # the counter *is* the unicast delta: the link crossings one unicast
        # per consumer would have added to what the tree delivered
        "link_bytes_unicast": link_bytes + int(metered),
        "bytes_saved_metered": metered,
        "uplink_bytes_multicast": uplink,
        # N unicasts serialize the object N times on the producer's uplink
        "uplink_bytes_unicast": uplink + (N_CONSUMERS - 1) * FANOUT_NB,
    }


def bench_contention() -> dict:
    """(d) hot-link placement: the input's nearest GPU sits behind a
    backlogged PCIe link; the locality scheduler prices the backlog and
    routes around it.  The comparator pins the tasks where an idle-fabric
    estimate would have put them: on the nearest GPU."""

    def run(pinned: Optional[str]) -> ServerlessRuntime:
        rt = ServerlessRuntime(
            build_serverful(n_servers=3, gpus_per_server=1),
            RuntimeConfig(resolution=ResolutionMode.PULL),
        )
        ref = rt.put(b"x" * 64, nbytes=32 * MB)  # on server0's CPU store
        for _ in range(4):  # 1 GB queued ahead on server0's PCIe link
            rt.net.transfer("server0/cpu", "server0/gpu0", 256 * MB)
        outs = [
            rt.submit(
                lambda x: len(x),
                (ref,),
                compute_cost=1e-5,
                supported_kinds=frozenset({DeviceKind.GPU}),
                pinned_device=pinned,
                name=f"gpu-task{i}",
            )
            for i in range(N_CONSUMERS)
        ]
        rt.get(outs)
        return rt

    nearest = run(pinned="server0/gpu0")
    steered = run(pinned=None)
    assert all(t.device_id != "server0/gpu0" for t in steered.timelines)
    hot = max(t.finished for t in nearest.timelines)
    cool = max(t.finished for t in steered.timelines)
    return {
        "makespan_idle_model": hot,
        "makespan_contention_aware": cool,
        "speedup": hot / cool,
    }


def test_e21_fast_data_plane(write_result):
    chunking = bench_chunking()
    dedup = bench_dedup()
    multicast = bench_multicast()
    contention = bench_contention()

    table = ResultTable(
        "E21: fast data plane (each mechanism vs. doing without it)",
        ["mechanism", "without", "fast plane", "win"],
    )
    table.add_row(
        "chunked cut-through (64 MB, 4 hops)",
        fmt_seconds(chunking["time_store_and_forward"]),
        fmt_seconds(chunking["time_chunked"]),
        f"{chunking['speedup']:.2f}x",
    )
    table.add_row(
        f"fetch dedup ({N_CONSUMERS} consumers, 1 node)",
        f"{dedup['transfers_legacy']} transfers",
        f"{dedup['transfers_dedup']} transfer",
        fmt_bytes(dedup["bytes_legacy"] - dedup["bytes_dedup"]) + " saved",
    )
    table.add_row(
        f"multicast push ({N_CONSUMERS} consumer nodes)",
        fmt_bytes(multicast["link_bytes_unicast"]),
        fmt_bytes(multicast["link_bytes_multicast"]),
        fmt_bytes(multicast["bytes_saved_metered"]) + " metered",
    )
    table.add_row(
        "contention-aware placement (hot PCIe)",
        fmt_seconds(contention["makespan_idle_model"]),
        fmt_seconds(contention["makespan_contention_aware"]),
        f"{contention['speedup']:.2f}x",
    )
    table.show()

    # (a) pipelining over >= 3 hops is at least 2x
    assert chunking["speedup"] >= 2.0
    # (b) N concurrent same-object fetches collapse onto exactly 1 transfer
    assert dedup["transfers_dedup"] == 1
    assert dedup["transfers_legacy"] == N_CONSUMERS
    assert dedup["fetches_deduped"] == N_CONSUMERS - 1
    # (c) the tree beats per-consumer unicasts, and the savings are metered:
    # the head node's uplink serializes the object once instead of N times
    # (the residue on the link is control-message frames, identical in both)
    assert multicast["link_bytes_multicast"] < multicast["link_bytes_unicast"]
    assert (
        multicast["uplink_bytes_unicast"] - multicast["uplink_bytes_multicast"]
        == (N_CONSUMERS - 1) * FANOUT_NB
    )
    assert multicast["bytes_saved_metered"] >= (N_CONSUMERS - 1) * FANOUT_NB
    # (d) pricing the backlog beats the nearest GPU, by the committed margin
    assert contention["speedup"] > 1.0
    with open(os.path.join(os.path.dirname(__file__), "baselines", "BENCH_E21.json")) as fh:
        committed = json.load(fh)["contention"]["makespan_contention_aware"]
    assert abs(contention["makespan_contention_aware"] - committed) <= 1e-9

    results = {
        "experiment": "E21",
        "chunking": chunking,
        "dedup": dedup,
        "multicast": multicast,
        "contention": contention,
    }
    write_result("BENCH_E21.json", results)
