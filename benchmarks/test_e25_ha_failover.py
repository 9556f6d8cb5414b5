"""E25 — control-plane HA: surviving a head kill, by replica count.

PRs 1-8 treated the head node — and the GCS riding on it — as immortal,
the classic single-point-of-failure a disaggregated control plane cannot
afford.  ``repro.runtime.ha`` replicates every control-plane mutation to
N standby server nodes as a write-ahead log; this experiment kills the
leader mid-workload (``ChaosSchedule.fail_gcs``) and measures what each
replica count buys:

* ``ha_replicas=0`` (the legacy config): the control plane dies with the
  head — every open task fails, the cluster is lost, the driver sees a
  :class:`TaskError`.  This is the baseline replication is measured
  against.
* ``ha_replicas>=1``: the standbys detect the sync silence, run the
  seeded election, replay the WAL, re-register the surviving raylets,
  and finish the workload with the **exact** answer.  The claims pinned
  here: zero READY objects whose bytes survived the head are lost, and
  the unavailability window is bounded by detection + election + replay
  — milliseconds — not by the workload.

The run is deterministic: the same seed and config replay the identical
event signature twice (the determinism witness below).
"""

from __future__ import annotations

from repro.bench import ResultTable, fmt_seconds
from repro.chaos import ChaosMonkey, ChaosSchedule
from repro.cluster import build_serverful
from repro.runtime import ResolutionMode, RuntimeConfig, ServerlessRuntime, TaskError
from repro.runtime.task import TERMINAL_STATES

LANES = 8
DEPTH = 5
TASK_COST = 4e-3
KILL_AT = 10e-3  # mid-barrage: sources done, chains in flight
N_SERVERS = 5
REPLICA_SWEEP = (0, 1, 2, 3)

EXPECTED_TOTAL = sum(lane + DEPTH for lane in range(LANES))
UNAVAILABILITY_BOUND = 50e-3  # election + replay, with margin; not the workload


def run_failover(replicas: int):
    """One mid-workload head kill at the given replica count."""
    cluster = build_serverful(n_servers=N_SERVERS)
    rt = ServerlessRuntime(
        cluster,
        RuntimeConfig(
            resolution=ResolutionMode.PULL,
            heartbeat_interval=1e-3,
            heartbeat_miss_threshold=3,
            max_retries=10,
            retry_backoff_base=2e-3,
            ha_replicas=replicas,
        ),
    )
    ChaosMonkey(rt, ChaosSchedule().fail_gcs(at=KILL_AT)).arm()
    lanes = []
    for lane in range(LANES):
        ref = rt.submit(lambda i=lane: i, name=f"src{lane}", compute_cost=TASK_COST)
        for d in range(DEPTH):
            ref = rt.submit(
                lambda x: x + 1, args=(ref,), name=f"l{lane}d{d}",
                compute_cost=TASK_COST,
            )
        lanes.append(ref)
    target = rt.submit(lambda *xs: sum(xs), args=tuple(lanes), name="sum")
    row = {"replicas": replicas}
    try:
        total = rt.get(target)
    except TaskError as exc:
        row.update(
            survived=False,
            answer=None,
            error=str(exc)[:120],
            tasks_failed=rt.tasks_failed,
        )
    else:
        ha = rt.ha
        assert ha is not None
        # a stall is a bug, not a recovery path: the failover's losses came
        # back at their verdicts, and no task was left open behind the answer
        assert rt.log.count("detector_stalled") == 0
        assert rt._open_tasks == 0
        assert all(ctx.state in TERMINAL_STATES for ctx in rt._ctxs.values())
        row.update(
            survived=True,
            answer=total,
            failovers=ha.failovers,
            epoch=ha.epoch,
            leader=ha.leader_node,
            unavailability_s=ha.last_unavailability,
            wal_records=len(ha.wal),
            ready_survivable=ha.last_failover_report["ready_survivable"],
            ready_lost=ha.last_failover_report["ready_lost"],
            stale_leases_fenced=int(
                rt.telemetry.registry.counter(
                    "skadi_ha_stale_leases_rejected_total",
                    "deposed-leader leases fenced at raylets",
                ).value
            ),
        )
    row["makespan_s"] = rt.sim.now
    row["signature"] = rt.log.signature()
    return row


def test_e25_ha_failover(benchmark, write_result):
    def sweep():
        rows = [run_failover(r) for r in REPLICA_SWEEP]
        # determinism witness: the flagship replicated run replays bit-for-bit
        witness = run_failover(2)
        return rows, witness

    rows, witness = benchmark.pedantic(sweep, rounds=1, iterations=1)
    by_replicas = {row["replicas"]: row for row in rows}

    table = ResultTable(
        "E25: head-node failover — mid-workload GCS kill, by replica count",
        ["replicas", "outcome", "answer", "unavailability", "READY lost"],
    )
    for row in rows:
        if row["survived"]:
            table.add_row(
                str(row["replicas"]),
                f"failover to {row['leader']} (epoch {row['epoch']})",
                str(row["answer"]),
                fmt_seconds(row["unavailability_s"]),
                f"{row['ready_lost']}/{row['ready_survivable']}",
            )
        else:
            table.add_row(
                str(row["replicas"]), "CLUSTER LOST", "-", "-", "-"
            )
    table.show()

    # the unreplicated baseline demonstrably cannot survive the kill
    baseline = by_replicas[0]
    assert not baseline["survived"]
    assert "control plane lost" in baseline["error"]
    # every replicated config survives with the exact answer and loses no
    # READY object whose bytes outlived the head
    for replicas in REPLICA_SWEEP[1:]:
        row = by_replicas[replicas]
        assert row["survived"], f"replicas={replicas} lost the cluster"
        assert row["answer"] == EXPECTED_TOTAL
        assert row["failovers"] == 1 and row["epoch"] == 2
        assert row["ready_lost"] == 0
        assert row["unavailability_s"] is not None
        assert row["unavailability_s"] < UNAVAILABILITY_BOUND
    # same seed, same config: the failover path is deterministic
    assert witness["signature"] == by_replicas[2]["signature"]
    assert witness["answer"] == by_replicas[2]["answer"]

    payload = {
        "experiment": "E25",
        "title": "Control-plane HA: head-node failover by replica count",
        "workload": {
            "lanes": LANES,
            "depth": DEPTH,
            "task_cost_s": TASK_COST,
            "kill_at_s": KILL_AT,
            "expected_total": EXPECTED_TOTAL,
        },
        "sweep": [
            {k: v for k, v in row.items() if k != "signature"} for row in rows
        ],
        "deterministic": witness["signature"] == by_replicas[2]["signature"],
    }
    write_result("BENCH_E25.json", payload)
