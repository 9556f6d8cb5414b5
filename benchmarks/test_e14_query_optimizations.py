"""E14 — predefined query-optimization rules (§2.1 step 2).

Skadi "optimizes the graph using predefined rules".  Three classics, all of
which matter *more* under disaggregation because they shrink what crosses
the fabric:

* filter pushdown below joins — the shuffle moves filtered rows;
* broadcast joins — a small dimension table is replicated to the fact
  table's shards instead of hash-shuffling both sides;
* column pruning — a scan ships only the columns its query reads.

Scheduling is round-robin for the first two so shuffles really cross nodes
(locality would co-locate everything and hide the effect); column pruning
runs under both.
"""

from __future__ import annotations

import numpy as np

from repro import Skadi
from repro.bench import ResultTable, fmt_bytes, fmt_seconds
from repro.bench.workloads import customers_table, lineitem_like_table, orders_table
from repro.runtime import RuntimeConfig, SchedulingPolicy

QUERY_PUSHDOWN = (
    "SELECT region, SUM(amount) AS total FROM orders "
    "JOIN customers ON cust = cid "
    "WHERE amount > 90 AND credit > 500 GROUP BY region ORDER BY region"
)
QUERY_JOIN = (
    "SELECT region, SUM(amount) AS total FROM orders "
    "JOIN customers ON cust = cid GROUP BY region ORDER BY region"
)
QUERY_Q6 = (
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_discount BETWEEN 0.02 AND 0.04 AND l_quantity < 24"
)


def run(query, *, optimize_ir=True, broadcast_threshold=0, n_orders=30_000):
    tables = {
        "orders": orders_table(n_orders, seed=14),
        "customers": customers_table(50, seed=15),
    }
    skadi = Skadi(
        config=RuntimeConfig(scheduling=SchedulingPolicy.ROUND_ROBIN),
        shards=4,
        optimize_ir=optimize_ir,
        broadcast_threshold=broadcast_threshold,
    )
    out = skadi.sql(query, tables)
    return out, skadi.last_report


def test_e14_filter_pushdown(benchmark):
    def both():
        return (
            run(QUERY_PUSHDOWN, optimize_ir=False),
            run(QUERY_PUSHDOWN, optimize_ir=True),
        )

    (out_plain, rep_plain), (out_opt, rep_opt) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )

    table = ResultTable(
        "E14a: filter pushdown below a join (30k fact rows, 4 shards)",
        ["plan", "bytes over fabric", "virtual time"],
    )
    table.add_row("filter above join", fmt_bytes(rep_plain.bytes_moved),
                  fmt_seconds(rep_plain.sim_seconds))
    table.add_row("filter pushed below join", fmt_bytes(rep_opt.bytes_moved),
                  fmt_seconds(rep_opt.sim_seconds))
    table.show()

    np.testing.assert_allclose(
        out_plain.column("total"), out_opt.column("total")
    )
    # the shuffle moves filtered rows: a large byte reduction
    assert rep_opt.bytes_moved < rep_plain.bytes_moved * 0.7


def test_e14_broadcast_vs_shuffle_join(benchmark):
    def both():
        return (
            run(QUERY_JOIN, broadcast_threshold=0),
            run(QUERY_JOIN, broadcast_threshold=5_000),
        )

    (out_shuffle, rep_shuffle), (out_bcast, rep_bcast) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )

    table = ResultTable(
        "E14b: join strategy (30k fact rows x 50-row dimension, 4 shards)",
        ["strategy", "bytes over fabric", "virtual time", "tasks"],
    )
    table.add_row("hash-shuffle both sides", fmt_bytes(rep_shuffle.bytes_moved),
                  fmt_seconds(rep_shuffle.sim_seconds), rep_shuffle.physical_tasks)
    table.add_row("broadcast small side", fmt_bytes(rep_bcast.bytes_moved),
                  fmt_seconds(rep_bcast.sim_seconds), rep_bcast.physical_tasks)
    table.show()

    np.testing.assert_allclose(
        out_shuffle.column("total"), out_bcast.column("total")
    )
    # round-robin places each broadcast join away from its fact shard, so the
    # shard crosses whole, while each shuffle producer partitions its shard
    # where it lies and ships about 3/4 of it: the shuffle join moves fewer
    # bytes and finishes sooner.  The broadcast side is a scan only the join
    # reads, so it is scanned as one shard with no coalesce, and the broadcast
    # join launches fewer tasks (10: 4 + 1 scans, 4 joins, 1 final) than the
    # shuffle (13: 4 + 4 scans, 4 joins, 1 final)
    assert rep_shuffle.bytes_moved < rep_bcast.bytes_moved
    assert (rep_bcast.physical_tasks, rep_shuffle.physical_tasks) == (10, 13)
    assert rep_shuffle.sim_seconds < rep_bcast.sim_seconds


def scan_bytes(skadi) -> int:
    """The bytes a query's scans moved: the transfers of the table's put and
    of its source shards, not of what the compute tasks made of them."""
    rt = skadi.runtime
    total = 0
    for span in rt.telemetry.tracer.finished_spans():
        if "nbytes" in span.attrs and "object_id" in span.attrs:
            producer = rt.lineage.producer(span.attrs["object_id"])
            if producer is None or producer.name.startswith("scan:"):
                total += span.attrs["nbytes"]
    return total


def test_e14_column_pruning(benchmark):
    # TPC-H Q6's shape: three of lineitem's eight columns are read
    lineitem = lineitem_like_table(30_000, seed=14)

    def run_q6(optimize_ir, scheduling):
        skadi = Skadi(
            config=RuntimeConfig(scheduling=scheduling), shards=4, optimize_ir=optimize_ir
        )
        out = skadi.sql(QUERY_Q6, {"lineitem": lineitem})
        return out, skadi.last_report, scan_bytes(skadi)

    placements = (SchedulingPolicy.LOCALITY, SchedulingPolicy.ROUND_ROBIN)

    def all_runs():
        return {(p, on): run_q6(on, p) for p in placements for on in (False, True)}

    runs = benchmark.pedantic(all_runs, rounds=1, iterations=1)

    table = ResultTable(
        "E14c: column pruning (Q6 shape, 30k rows x 8 columns, 4 shards)",
        ["placement", "plan", "bytes over fabric", "virtual time"],
    )
    for (placement, on), (_out, rep, _scans) in runs.items():
        table.add_row(placement.value, "3 of 8 columns" if on else "whole table",
                      fmt_bytes(rep.bytes_moved), fmt_seconds(rep.sim_seconds))
    table.show()

    for placement in placements:
        (out_plain, rep_plain, _), (out_pruned, rep_pruned, _) = (
            runs[(placement, False)], runs[(placement, True)]
        )
        assert out_pruned == out_plain
        assert rep_pruned.sim_seconds < rep_plain.sim_seconds
    # co-located tasks: only the table crosses the fabric, and only 3 of 8 columns
    assert runs[(SchedulingPolicy.LOCALITY, True)][1].bytes_moved * 8 == (
        runs[(SchedulingPolicy.LOCALITY, False)][1].bytes_moved * 3
    )
    # spread tasks: the put and the shards the scans ship are narrower too;
    # the four 8-byte partial sums that cross to the final are the same
    # either way
    assert runs[(SchedulingPolicy.ROUND_ROBIN, True)][2] * 8 == (
        runs[(SchedulingPolicy.ROUND_ROBIN, False)][2] * 3
    )
