"""E2 — data-centric scheduling (§1 req (b), §2.3 control plane).

"[the caching layer] decouples compute from states so compute (i.e.,
vertices) can be opportunistically migrated to where data reside to reduce
data transfer" and the control plane "embraces data-centric scheduling".

Workload: large shards resident on specific nodes; a map-like stage
consumes them.  Compute-centric (round-robin) placement ships the data;
data-centric (locality) placement ships the task.

E2b: near-zero-work lanes under PULL on the physically-disaggregated
cluster, where what a task costs is its raylet's lease queue and its pulls'
protocol, not bytes.  Locality must not lose to round-robin there: it prices
the leases in flight to a device and each remote input's locate and
pull-request round trips, so a lane stays with its data until the queue
ahead of it costs more than the fetch.
"""

from __future__ import annotations

from repro.bench import ResultTable, fmt_bytes, fmt_seconds
from repro.cluster import MB, DeviceKind, build_physical_disagg, build_serverful
from repro.runtime import (
    ResolutionMode,
    RuntimeConfig,
    SchedulingPolicy,
    ServerlessRuntime,
)

SHARD_BYTES = 64 * MB
N_SHARDS = 8


def run_job(policy: SchedulingPolicy):
    cluster = build_serverful(n_servers=4)
    rt = ServerlessRuntime(
        cluster,
        RuntimeConfig(resolution=ResolutionMode.PULL, scheduling=policy),
    )
    cpus = [cluster.node(f"server{i}").first_of_kind(DeviceKind.CPU) for i in range(4)]
    # materialize big shards on servers 0 and 1 only, so a placement policy
    # that ignores data location will ship most shards across the network
    shard_refs = [
        rt.submit(
            lambda i=i: i,
            compute_cost=1e-4,
            output_nbytes=SHARD_BYTES,
            pinned_device=cpus[i % 2].device_id,
            name=f"load{i}",
        )
        for i in range(N_SHARDS)
    ]
    rt.get(shard_refs)
    baseline_bytes = rt.bytes_moved

    # map stage: one small task per shard, placement under test
    map_refs = [
        rt.submit(
            lambda x: x + 1,
            (shard_refs[i],),
            compute_cost=1e-3,
            supported_kinds=frozenset({DeviceKind.CPU}),
            name=f"map{i}",
        )
        for i in range(N_SHARDS)
    ]
    start = rt.sim.now
    rt.get(map_refs)
    return rt.bytes_moved - baseline_bytes, rt.sim.now - start


def test_e2_locality_vs_compute_centric(benchmark):
    def both():
        rr_bytes, rr_time = run_job(SchedulingPolicy.ROUND_ROBIN)
        loc_bytes, loc_time = run_job(SchedulingPolicy.LOCALITY)
        return rr_bytes, rr_time, loc_bytes, loc_time

    rr_bytes, rr_time, loc_bytes, loc_time = benchmark.pedantic(
        both, rounds=1, iterations=1
    )

    table = ResultTable(
        f"E2: map stage over {N_SHARDS} x {SHARD_BYTES // MB} MiB resident shards",
        ["policy", "bytes moved", "stage time"],
    )
    table.add_row("compute-centric (round-robin)", fmt_bytes(rr_bytes), fmt_seconds(rr_time))
    table.add_row("data-centric (locality)", fmt_bytes(loc_bytes), fmt_seconds(loc_time))
    table.show()

    # locality ships ~zero bytes; round-robin ships a large fraction of the
    # dataset across the network
    assert loc_bytes == 0
    assert rr_bytes >= 4 * SHARD_BYTES  # most shards cross nodes
    assert loc_time < rr_time / 5


N_LANES, LANE_DEPTH = 25, 20
LANE_TASK_COST = 1e-5  # near-zero work: the control plane is the cost


def run_lanes(policy: SchedulingPolicy):
    """``N_LANES`` chains of ``LANE_DEPTH`` + 1 tasks, each passing 64 B on;
    returns the makespan and the bytes moved."""
    rt = ServerlessRuntime(
        build_physical_disagg(),
        RuntimeConfig(resolution=ResolutionMode.PULL, scheduling=policy),
    )
    tails = []
    for lane in range(N_LANES):
        ref = rt.submit(
            lambda i=lane: i, compute_cost=LANE_TASK_COST, output_nbytes=64, name=f"lane{lane}"
        )
        for d in range(LANE_DEPTH):
            ref = rt.submit(
                lambda x: x + 1, (ref,), compute_cost=LANE_TASK_COST, output_nbytes=64,
                name=f"lane{lane}d{d}",
            )
        tails.append(ref)
    assert rt.get(tails) == [lane + LANE_DEPTH for lane in range(N_LANES)]
    return rt.sim.now, rt.bytes_moved


def test_e2b_locality_on_near_zero_work_lanes(benchmark):
    def both():
        return run_lanes(SchedulingPolicy.ROUND_ROBIN), run_lanes(SchedulingPolicy.LOCALITY)

    (rr_time, rr_bytes), (loc_time, loc_bytes) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    table = ResultTable(
        f"E2b: {N_LANES} near-zero-work lanes of {LANE_DEPTH + 1} tasks under PULL",
        ["policy", "bytes moved", "makespan"],
    )
    table.add_row("compute-centric (round-robin)", fmt_bytes(rr_bytes), fmt_seconds(rr_time))
    table.add_row("data-centric (locality)", fmt_bytes(loc_bytes), fmt_seconds(loc_time))
    table.show()

    # the policy gate: locality's makespan is no worse than round-robin's
    assert loc_time <= rr_time
