"""A gathered aggregate runs in two phases (``core.planner``).

When an aggregate's result ends up on one shard anyway — it is keyless, its
only user is a sort or a limit, or it is the query's result — the planner
runs a partial aggregate on every shard of its input and a final one that
merges the partials, instead of hash-shuffling the input.  Every case here is
compared with the reference interpreter (``run_function``): the same schema
and dtypes, the same groups in the same order, integers exact and floats
within rows x eps.

* Every aggregate function over int32, int64, float32, float64 and bool
  columns, grouped and keyless.
* A keyless aggregate after a filter that empties some shards, then all of
  them: ``SUM`` and ``COUNT`` give 0, ``MIN``, ``MAX`` and ``AVG`` raise the
  reference's ``ValueError`` (inside the failed task's ``TaskError``).
* A grouped aggregate without ``ORDER BY`` comes back in key order.
* An aggregate that feeds a join still shuffles, and one-shard plans have no
  partial.
* The ledger's four shapes: plan sizes, and what ``join_group`` launches on a
  later pass.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro import RecordBatch, Skadi
from repro.bench.workloads import customers_table, lineitem_like_table, orders_table
from repro.core.planner import ir_to_flowgraph
from repro.frontends.dataframe import from_batch
from repro.frontends.sql import sql_to_ir
from repro.ir import FrameType, run_function
from repro.ir.lowering import lower_relational_to_df
from repro.runtime import TaskError

from test_query_kernels import assert_same_aggregates

BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

from ledger.workloads import QUERIES  # noqa: E402

ROWS = 400
COLUMNS = ["i32", "i64", "f32", "f64", "b"]


@pytest.fixture(scope="module")
def table() -> RecordBatch:
    rng = np.random.default_rng(31)
    return RecordBatch.from_arrays(
        {
            "g": rng.integers(0, 7, ROWS),
            "h": rng.integers(0, 3, ROWS).astype(np.int32),
            "row": np.arange(ROWS, dtype=np.int64),  # shard i holds rows i*100..i*100+99
            "i32": rng.integers(-50, 50, ROWS).astype(np.int32),
            "i64": rng.integers(-1000, 1000, ROWS),
            # same-signed floats: the tolerance of a re-ordered sum is relative
            "f32": (rng.random(ROWS) * 10).astype(np.float32),
            "f64": rng.random(ROWS) * 10,
            "b": rng.random(ROWS) < 0.4,
        }
    )


def catalog(tables: Dict[str, RecordBatch]) -> Dict[str, FrameType]:
    return {
        name: FrameType(tuple((f.name, f.dtype.name) for f in batch.schema.fields))
        for name, batch in tables.items()
    }


def reference(sql: str, tables: Dict[str, RecordBatch]) -> RecordBatch:
    (out,) = run_function(sql_to_ir(sql, catalog(tables)), tables=tables)
    return out


def every_function(column: str) -> str:
    return (
        f"SUM({column}) AS s, MIN({column}) AS lo, MAX({column}) AS hi, "
        f"AVG({column}) AS a, COUNT(*) AS n"
    )


@pytest.mark.parametrize("column", COLUMNS)
@pytest.mark.parametrize("grouped", [True, False], ids=["grouped", "keyless"])
def test_every_function_and_dtype_match_the_reference(table, column, grouped):
    sql = (
        f"SELECT g, {every_function(column)} FROM t GROUP BY g"
        if grouped
        else f"SELECT {every_function(column)} FROM t"
    )
    skadi = Skadi(shards=4)
    got = skadi.sql(sql, {"t": table})
    want = reference(sql, {"t": table})
    assert [(f.name, f.dtype) for f in got.schema.fields] == [
        (f.name, f.dtype) for f in want.schema.fields
    ]
    assert_same_aggregates(got, want, ROWS)
    # 4 scans, 4 partials, 1 final: no shuffle and no sharded aggregate
    assert skadi.last_report.physical_tasks == 9


class TestEmptyShards:
    SOME = "row < 100"  # only shard 0 keeps rows
    ALL = "row < 0"

    @pytest.mark.parametrize("column", COLUMNS)
    def test_shards_without_rows_add_nothing(self, table, column):
        sql = f"SELECT {every_function(column)} FROM t WHERE {self.SOME}"
        got = Skadi(shards=4).sql(sql, {"t": table})
        assert_same_aggregates(got, reference(sql, {"t": table}), ROWS)

    @pytest.mark.parametrize("column", COLUMNS)
    def test_sum_and_count_of_nothing_are_zero(self, table, column):
        sql = f"SELECT SUM({column}) AS s, COUNT(*) AS n FROM t WHERE {self.ALL}"
        got = Skadi(shards=4).sql(sql, {"t": table})
        want = reference(sql, {"t": table})
        assert_same_aggregates(got, want, ROWS)
        assert got.to_pydict() == {"s": [0], "n": [0]}

    @pytest.mark.parametrize("fn", ["MIN", "MAX", "AVG"])
    @pytest.mark.parametrize("column", ["i64", "f32"])
    def test_min_max_avg_of_nothing_raise_the_references_error(self, table, fn, column):
        sql = f"SELECT {fn}({column}) AS x FROM t WHERE {self.ALL}"
        with pytest.raises(ValueError) as oracle:
            reference(sql, {"t": table})
        with pytest.raises(TaskError) as err:
            Skadi(shards=4).sql(sql, {"t": table})
        assert str(err.value).endswith(f"ValueError: {oracle.value}")


@pytest.mark.parametrize("keys", ["g", "h, g", "b"])
def test_a_grouped_aggregate_without_order_by_comes_back_in_key_order(table, keys):
    sql = f"SELECT {keys}, SUM(f64) AS s, AVG(i32) AS a FROM t GROUP BY {keys}"
    got = Skadi(shards=4).sql(sql, {"t": table})
    assert_same_aggregates(got, reference(sql, {"t": table}), ROWS)
    rows = list(zip(*(got.column(k.strip()).tolist() for k in keys.split(",")), strict=True))
    assert rows == sorted(rows)


@pytest.fixture(scope="module")
def tables() -> Dict[str, RecordBatch]:
    return {
        "lineitem": lineitem_like_table(3000, seed=11),
        "orders": orders_table(2000, num_customers=100, seed=12),
        "customers": customers_table(100, seed=13),
    }


def test_an_aggregate_feeding_a_join_still_shuffles(tables):
    per_customer = from_batch("orders", tables["orders"]).groupby("cust").agg(
        total=("sum", "amount"), mean=("mean", "amount")
    )
    frame = per_customer.join(
        from_batch("customers", tables["customers"]), left_on="cust", right_on="cid"
    )
    graph, _ = ir_to_flowgraph(lower_relational_to_df(frame.to_ir()), shards=4)
    assert {e.key for e in graph.edges if e.key is not None} == {"cust", "cid"}
    assert not any(v.name.endswith((":partial", ":final")) for v in graph.vertices.values())
    skadi = Skadi(shards=4, broadcast_threshold=0)
    got = skadi.dataframe(frame, tables)
    (want,) = run_function(frame.to_ir(), tables=tables)
    # a shuffle join's shards come back in hash order: compare by customer
    order = np.argsort(got.column("cust"), kind="stable")
    got = got.take(order)
    want = want.take(np.argsort(want.column("cust"), kind="stable"))
    assert_same_aggregates(got, want, tables["orders"].num_rows)


# physical tasks over one shard, as before the two phases; join_group's two
# keyed edges into one shard partition nothing, so it runs no split task (was 6)
ONE_SHARD_PLAN_SIZES = {"scan_agg": 2, "selective_filter": 2, "join_group": 4, "top_k": 2}


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_one_shard_plans_have_no_partial(tables, query):
    skadi = Skadi(shards=1)
    func = sql_to_ir(QUERIES[query], catalog(tables))
    _lowered, graph, _sink, _stats = skadi._plan(func, tables)
    assert not any(v.name.endswith((":partial", ":final")) for v in graph.vertices.values())
    skadi.sql(QUERIES[query], tables)
    assert skadi.last_report.physical_tasks == ONE_SHARD_PLAN_SIZES[query]


# physical tasks of a first pass over 4 shards; before the two phases, scan_agg
# was 13 (4 scans, 4 splits, 4 aggregates, 1 sort) and join_group 22
PLAN_SIZES = {"scan_agg": 9, "selective_filter": 9, "join_group": 14, "top_k": 9}


def test_the_ledger_shapes_plan_sizes_and_what_a_later_pass_launches(tables):
    skadi = Skadi(shards=4)
    for name, sql in QUERIES.items():
        skadi.sql(sql, tables)
        assert skadi.last_report.physical_tasks == PLAN_SIZES[name], name
    skadi.sql(QUERIES["join_group"], tables)
    report = skadi.last_report
    # the 8 source shards and the broadcast side are kept: the filtered join
    # with its partial aggregate (4 tasks) and the final with the sort (1)
    # run, where a shuffle ran 14 (4 joins, 4 splits, 4 aggregates, the
    # coalesce and the sort)
    assert report.physical_tasks - report.reused_tasks == 5
