"""E15 — a TPC-H-flavoured query suite through the whole stack.

Regression harness for the SQL path end to end (Figure 2's pipeline under
four realistic query shapes): scan-heavy aggregation (Q1-like), selective
filter (Q6-like), join + group-by (Q3-like), and top-k (order/limit).
Every query's distributed answer is checked against the reference
interpreter; the table reports the physical shape and virtual cost.
"""

from __future__ import annotations

import numpy as np

from repro import Skadi
from repro.bench import ResultTable, fmt_bytes, fmt_seconds, lineitem_like_table
from repro.bench.workloads import customers_table, orders_table
from repro.frontends.sql import sql_to_ir
from repro.ir import FrameType, run_function

QUERIES = {
    "Q1-like (scan+agg)": (
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
        "SUM(l_extendedprice) AS sum_price, AVG(l_discount) AS avg_disc, "
        "COUNT(*) AS n FROM lineitem "
        "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag"
    ),
    "Q6-like (selective filter)": (
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
        "WHERE l_discount BETWEEN 0.02 AND 0.04 AND l_quantity < 24"
    ),
    "Q3-like (join+group)": (
        "SELECT region, SUM(amount) AS revenue, COUNT(*) AS n FROM orders "
        "JOIN customers ON cust = cid WHERE amount > 10 "
        "GROUP BY region ORDER BY region"
    ),
    "top-k (sort+limit)": (
        "SELECT oid, amount FROM orders ORDER BY amount DESC LIMIT 10"
    ),
}


def tables_and_catalog():
    tables = {
        "lineitem": lineitem_like_table(30_000, seed=15),
        "orders": orders_table(20_000, seed=16),
        "customers": customers_table(100, seed=17),
    }
    catalog = {
        name: FrameType(
            tuple((f.name, f.dtype.name) for f in batch.schema.fields)
        )
        for name, batch in tables.items()
    }
    return tables, catalog


def test_e15_query_suite(benchmark):
    tables, catalog = tables_and_catalog()

    def run_suite():
        skadi = Skadi(shards=4)
        results = {}
        for name, sql in QUERIES.items():
            out = skadi.sql(sql, tables)
            results[name] = (out, skadi.last_report)
        return results

    results = benchmark.pedantic(run_suite, rounds=1, iterations=1)

    table = ResultTable(
        "E15: query suite over the full stack (4 shards)",
        ["query", "rows out", "tasks", "bytes moved", "virtual time"],
    )
    for name, (out, report) in results.items():
        table.add_row(
            name,
            out.num_rows,
            report.physical_tasks,
            fmt_bytes(report.bytes_moved),
            fmt_seconds(report.sim_seconds),
        )
    table.show()

    # every distributed answer matches the reference interpreter
    for name, sql in QUERIES.items():
        (oracle,) = run_function(sql_to_ir(sql, catalog), tables=tables)
        got, _ = results[name]
        assert got.num_rows == oracle.num_rows, name
        assert got.schema == oracle.schema, name
        for column in got.schema.names:
            a, b = got.column(column), oracle.column(column)
            if a.dtype.kind == "f":
                np.testing.assert_allclose(a, b, rtol=1e-9, err_msg=name)
            else:
                np.testing.assert_array_equal(a, b, err_msg=name)


def test_e15_second_pass_on_the_same_skadi():
    """The suite twice on one Skadi: a table is laid out once (its puts,
    source shards and hash partitions are kept), so pass 2 ships only what
    each query computes.  A scan whose columns a kept shard already holds is
    answered by that shard in pass 1 too: Q6-like reads 3 of Q1-like's 5
    lineitem columns.  The plan is the same size in both passes; what a pass
    did not run is reported as reused tasks, never as a cheaper plan."""
    tables, _ = tables_and_catalog()
    skadi = Skadi(shards=4)

    def kept_answers_a_scan(sql: str) -> bool:
        kept = skadi.explain(sql, tables).split("== kept layouts ==")[1]
        return any(not line.endswith(": none") for line in kept.splitlines()[1:])

    covered, passes = set(), []  # covered: pass-1 queries a kept layout answers
    for _ in range(2):
        answers = {}
        for name, sql in QUERIES.items():
            if not passes and kept_answers_a_scan(sql):
                covered.add(name)
            answers[name] = (skadi.sql(sql, tables), skadi.last_report)
        passes.append(answers)

    table = ResultTable(
        "E15: pass 2 on the same Skadi (4 shards)",
        ["query", "tasks", "pass-1 reused", "pass-1 bytes", "pass-2 bytes",
         "pass-2 reused tasks"],
    )
    for name in QUERIES:
        (first, one), (again, two) = passes[0][name], passes[1][name]
        table.add_row(
            name, two.physical_tasks, one.reused_tasks, fmt_bytes(one.bytes_moved),
            fmt_bytes(two.bytes_moved), two.reused_tasks,
        )
        assert again == first, name
        assert two.physical_tasks == one.physical_tasks
        assert (one.reused_tasks > 0) == (name in covered), name
        assert two.reused_tasks > 0 and two.bytes_moved <= one.bytes_moved, name
    table.show()
    assert covered == {"Q6-like (selective filter)"}
