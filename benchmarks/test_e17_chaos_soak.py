"""E17 — chaos soak: self-healing under a seeded fault barrage (§2.3, §3).

"Applications often handle failures of their logical components ... the
runtime should provide fault tolerance as a service, e.g., detecting
failures and transparently re-executing computation or reconstructing
state."

Workload: L parallel task lanes of depth D feeding a join, plus a
checkpointed actor homed on a node the chaos schedule is guaranteed to
crash.  A seeded :class:`ChaosSchedule` injects node crashes, a network
partition, and a straggler mid-run.  The control plane gets *no* fault
notifications: heartbeat suspicion must detect the crashes, retries with
backoff must absorb dropped leases, speculation must route around the
straggler, and the actor must be reconstructed from its reliable-cache
checkpoint.  The soak passes only if the answer is exactly right, nothing
is permanently lost, and the same seed reproduces the identical event
trace twice.
"""

from __future__ import annotations

import os

from repro.bench import ResultTable, fmt_seconds
from repro.caching import ReplicationScheme
from repro.chaos import ChaosMonkey, ChaosSchedule, NetworkPartition, NodeCrash, Straggler
from repro.cluster import DeviceKind, build_serverful
from repro.runtime import ResolutionMode, RuntimeConfig, ServerlessRuntime
from repro.runtime.runtime import make_reliable_cache
from repro.runtime.task import TERMINAL_STATES

SEED = 20230622  # HotOS '23
LANES = 8
DEPTH = 5
TASK_COST = 4e-3
HORIZON = 2e-2  # ~the fault-free makespan; faults land 10-75% through it
N_SERVERS = 4

EXPECTED_TOTAL = sum(lane + (DEPTH - 1) for lane in range(LANES))


class Auditor:
    """Idempotent accumulator: at-least-once re-execution is harmless."""

    def __init__(self):
        self.seen = set()


def mark(state, lane):
    state.seen.add(lane)
    return len(state.seen)


def audit_size(state):
    return len(state.seen)


def make_schedule(seed):
    cluster = build_serverful(n_servers=N_SERVERS)  # throwaway, for ids only
    fallible = [f"server{i}" for i in range(1, N_SERVERS)]  # never the head
    devices = [
        cluster.node(n).first_of_kind(DeviceKind.CPU).device_id for n in fallible
    ]
    return ChaosSchedule.random(
        seed,
        node_ids=fallible,
        device_ids=devices,
        horizon=HORIZON,
        n_crashes=2,
        n_partitions=1,
        n_stragglers=1,
    )


def run_soak(seed, chaos=True, **config_overrides):
    """Run the soak; ``config_overrides`` lets equivalence tests flip the
    overload-control switches on top of the canonical E17 config."""
    cluster = build_serverful(n_servers=N_SERVERS)
    cache = make_reliable_cache(cluster, ReplicationScheme(2))
    rt = ServerlessRuntime(
        cluster,
        RuntimeConfig(
            resolution=ResolutionMode.PULL,
            heartbeat_interval=1e-3,
            heartbeat_miss_threshold=3,
            max_retries=10,
            retry_backoff_base=2e-3,
            speculation_factor=4.0,
            actor_checkpoint_every=1,
            **config_overrides,
        ),
        reliable_cache=cache,
    )
    schedule = make_schedule(seed) if chaos else ChaosSchedule()
    monkey = ChaosMonkey(rt, schedule).arm()

    # home the auditor on a node the schedule *will* crash
    crashes = [f for f in schedule if isinstance(f, NodeCrash)]
    victim = crashes[0].node_id if crashes else "server1"
    home = cluster.node(victim).first_of_kind(DeviceKind.CPU)
    auditor = rt.create_actor(Auditor, pinned_device=home.device_id)

    lanes = []
    for lane in range(LANES):
        ref = rt.submit(lambda lane=lane: lane, compute_cost=TASK_COST)
        for _ in range(DEPTH - 1):
            ref = rt.submit(lambda x: x + 1, (ref,), compute_cost=TASK_COST)
        lanes.append(ref)
    total = rt.submit(lambda *xs: sum(xs), tuple(lanes), compute_cost=1e-3)
    audits = [auditor.call(mark, lane, compute_cost=1e-3) for lane in range(LANES)]

    answer = rt.get(total)
    rt.get(audits)
    audited = rt.get(auditor.call(audit_size, compute_cost=1e-3))
    # a stall is a bug, not a recovery path: nothing waited out the detector's
    # guard, and no task was left open behind the answer
    assert rt.log.count("detector_stalled") == 0
    assert rt._open_tasks == 0
    assert all(ctx.state in TERMINAL_STATES for ctx in rt._ctxs.values())
    return {
        "rt": rt,
        "monkey": monkey,
        "answer": answer,
        "audited": audited,
        "makespan": rt.sim.now,
        "signature": rt.log.signature(),
    }


def test_e17_chaos_soak(benchmark):
    def sweep():
        baseline = run_soak(SEED, chaos=False)
        soak = run_soak(SEED, chaos=True)
        replay = run_soak(SEED, chaos=True)  # determinism witness
        return baseline, soak, replay

    baseline, soak, replay = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = ResultTable(
        "E17: chaos soak — seeded faults vs. self-healing control plane",
        [
            "scenario",
            "makespan",
            "answer",
            "retries",
            "suspicions",
            "replays",
            "actor restarts",
            "tasks lost",
        ],
    )
    for label, run in (("fault-free", baseline), ("chaos", soak)):
        rt = run["rt"]
        table.add_row(
            label,
            fmt_seconds(run["makespan"]),
            run["answer"],
            rt.tasks_retried,
            rt.log.count("node_suspected"),
            rt.lineage.replays,
            rt.actor_restarts,
            rt.tasks_failed,
        )
    table.show()

    rt = soak["rt"]
    injected = soak["monkey"].injected
    # the schedule really threw the required barrage mid-run
    assert sum(isinstance(f, NodeCrash) for f in injected) >= 2
    assert sum(isinstance(f, NetworkPartition) for f in injected) >= 1
    assert sum(isinstance(f, Straggler) for f in injected) >= 1

    # correctness: exact answer, every audit mark present, nothing lost
    assert soak["answer"] == EXPECTED_TOTAL == baseline["answer"]
    assert soak["audited"] == LANES
    assert rt.tasks_failed == 0
    assert not rt.actors.dead

    # recovery was *detected*, not announced: every node_dead verdict came
    # from missed heartbeats, and the detector actually suspected someone
    assert rt.log.count("node_suspected") >= 1
    assert all(ev["cause"] == "missed heartbeats" for ev in rt.log.of_kind("node_dead"))
    assert rt.health.beats_received > 0

    # the chaos run paid for its faults but survived them
    assert rt.tasks_retried >= 1
    assert soak["makespan"] >= baseline["makespan"]
    assert baseline["rt"].tasks_failed == 0
    assert baseline["rt"].log.count("node_suspected") == 0

    # determinism: the same seed reproduces the identical event trace
    assert soak["signature"] == replay["signature"]
    assert soak["makespan"] == replay["makespan"]
    assert soak["answer"] == replay["answer"]

    # telemetry artifacts for CI (chrome trace + prometheus export)
    artifacts = os.environ.get("BENCH_ARTIFACTS")
    if artifacts:
        from repro.runtime.trace import write_chrome_trace
        from repro.telemetry import to_prometheus_text

        os.makedirs(artifacts, exist_ok=True)
        write_chrome_trace(
            rt, os.path.join(artifacts, "e17_trace.json"),
            spans=True, counters=True,
        )
        with open(os.path.join(artifacts, "e17_metrics.prom"), "w") as fh:
            fh.write(to_prometheus_text(rt.telemetry.registry))
        # protocol trace for the offline dist-sanitizer pass in CI
        traced = run_soak(SEED, chaos=True, sanitizers=("trace",))
        traced["rt"].probe.trace.dump(
            os.path.join(artifacts, "e17_dist_trace.json")
        )
