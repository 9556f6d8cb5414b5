"""A query plan launches no task that only passes rows through.

* ``DropIdentityProject`` (``ir/relational_passes.py``): a projection whose
  columns are its input's, in order, with nothing derived, folds away in
  either dialect — typically one that column pruning narrowed to exactly what
  its scan now ships.  A reorder or a derived column stays.
* ``core.planner``: the small side of a broadcast join that is a scan nothing
  else reads is scanned as one shard, with no ``coalesce``; any other small
  side (a filtered scan, an aggregate, a scan read twice) is still gathered
  by one.
* Differential: the four ledger (E15) shapes over 1, 2 and 4 shards, with
  and without broadcast joins, give the numpy interpreter's rows, in its
  order, from plans with no such task.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro import RecordBatch, Skadi
from repro.bench.workloads import customers_table, lineitem_like_table, orders_table
from repro.core.planner import ir_to_flowgraph
from repro.flowgraph import FlowGraph
from repro.flowgraph.launch import coalesce
from repro.frontends.dataframe import DataFrame, from_batch
from repro.frontends.sql import sql_to_ir
from repro.ir import Builder, FrameType, PassManager, run_function
from repro.ir.core import Function
from repro.ir.expr import Col, Lit
from repro.ir.lowering import optimize_and_lower
from repro.ir.passes import PassStats
from repro.ir.relational_passes import DropIdentityProject, relational_optimizer

BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

from ledger.workloads import QUERIES  # noqa: E402


@pytest.fixture(scope="module")
def tables() -> Dict[str, RecordBatch]:
    return {
        "lineitem": lineitem_like_table(3000, seed=21),
        "orders": orders_table(2000, num_customers=100, seed=22),
        "customers": customers_table(100, seed=23),
    }


def catalog(tables: Dict[str, RecordBatch]) -> Dict[str, FrameType]:
    return {
        name: FrameType(tuple((f.name, f.dtype.name) for f in batch.schema.fields))
        for name, batch in tables.items()
    }


def identity_projections(func: Function) -> List[str]:
    return [
        op.qualified
        for op in func.ops
        if op.name in ("project", "select")
        and not op.attrs.get("derived")
        and tuple(op.attrs.get("columns", ())) == op.operands[0].type.names
    ]


def pass_through(graph: FlowGraph) -> List[str]:
    """The vertices that only pass rows through: a ``coalesce`` of source
    shards, or an IR vertex that runs an identity projection."""
    found = []
    for vertex in graph.vertices.values():
        sources = [graph.vertices[e.src] for e in graph.edges if e.dst == vertex.vertex_id]
        if vertex.py_func is coalesce and all(v.is_source for v in sources):
            found.append(vertex.name)
        elif vertex.ir_func is not None and identity_projections(vertex.ir_func):
            found.append(vertex.name)
    return found


def assert_same_rows(got: RecordBatch, want: RecordBatch) -> None:
    """Same schema, same rows in the same order: ints exact, floats to 1e-9."""
    assert got.schema == want.schema
    assert got.num_rows == want.num_rows
    for name in got.schema.names:
        a, b = got.column(name), want.column(name)
        if a.dtype.kind == "f":
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=0.0)
        else:
            np.testing.assert_array_equal(a, b)


# -- the rule ---------------------------------------------------------------------


def projected(dialect: str, columns, derived=()) -> Function:
    b = Builder("f")
    schema = FrameType((("a", "int64"), ("b", "float64")))
    scan = b.emit(dialect, "scan" if dialect == "relational" else "source", (), {
        "table": "t", "schema": schema,
    })
    op = "project" if dialect == "relational" else "select"
    project = b.emit(dialect, op, [scan.result()], {"columns": columns, "derived": derived})
    limit = b.emit(dialect, "limit", [project.result()], {"n": 3})
    func = b.ret(limit.result())
    func.verify()
    return func


class TestDropIdentityProject:
    @pytest.mark.parametrize("dialect", ["relational", "df"])
    def test_an_identity_projection_goes_in_either_dialect(self, dialect):
        func = projected(dialect, ("a", "b"))
        assert DropIdentityProject().run(func, PassStats())
        func.verify()
        assert [op.name for op in func.ops] == [func.ops[0].name, "limit"]
        assert func.ops[1].operands[0] is func.ops[0].result()
        assert not DropIdentityProject().run(func, PassStats())

    @pytest.mark.parametrize(
        "columns,derived",
        [
            (("b", "a"), ()),  # a reorder
            (("a",), ()),  # a narrowing
            (("a", "b"), (("c", Col("a") + Lit(1), "int64"),)),  # a derived column
        ],
    )
    def test_a_projection_that_changes_the_frame_stays(self, columns, derived):
        func = projected("relational", columns, derived)
        assert not DropIdentityProject().run(func, PassStats())
        assert [op.name for op in func.ops] == ["scan", "project", "limit"]

    def test_a_returned_identity_projection_returns_its_input(self):
        b = Builder("f")
        scan = b.emit("relational", "scan", (), {
            "table": "t", "schema": FrameType((("a", "int64"),)),
        })
        project = b.emit("relational", "project", [scan.result()], {"columns": ("a",)})
        func = b.ret(project.result())
        PassManager(relational_optimizer(), verify_each=True).run(func)
        assert [op.name for op in func.ops] == ["scan"]
        assert func.returns == [scan.result()]

    def test_the_e15_shapes_optimize_to_no_identity_projection(self, tables):
        for name, sql in QUERIES.items():
            func = sql_to_ir(sql, catalog(tables))
            PassManager(relational_optimizer(), verify_each=True).run(func)
            assert not identity_projections(func), name
            lowered = optimize_and_lower(sql_to_ir(sql, catalog(tables)))
            assert not identity_projections(lowered), name
        lowered = optimize_and_lower(sql_to_ir(QUERIES["top_k"], catalog(tables)))
        assert [op.qualified for op in lowered.ops] == ["df.source", "df.sort"]
        assert lowered.ops[1].attrs["limit"] == 10

    def test_a_column_list_in_table_order_plans_like_select_star(self, tables):
        orders = {"orders": tables["orders"]}
        plans = {}
        for sql in (
            "SELECT * FROM orders",
            "SELECT oid, amount FROM orders",
            "SELECT amount, oid FROM orders",
        ):
            skadi = Skadi(shards=4)
            out = skadi.sql(sql, orders)
            (want,) = run_function(sql_to_ir(sql, catalog(orders)), tables=orders)
            assert_same_rows(out, want)
            plans[sql] = (skadi.last_report.physical_tasks, skadi.explain(sql, orders))
        star, in_order, reordered = plans.values()
        assert in_order[0] == star[0] == 4  # the 4 scan shards, nothing else
        assert "df.select" not in in_order[1]
        # the reorder keeps its select: 4 scan shards and 4 select tasks
        assert reordered[0] == 8
        assert "df.select x4" in reordered[1]


# -- the broadcast side -------------------------------------------------------------


def small_sides(tables: Dict[str, RecordBatch]) -> Dict[str, DataFrame]:
    orders = from_batch("orders", tables["orders"])
    customers = from_batch("customers", tables["customers"])
    per_region = customers.groupby("cid").agg(n=("count", "region"))
    return {
        "scan": orders.join(customers, left_on="cust", right_on="cid"),
        "filtered scan": orders.join(
            customers.filter(Col("credit") > Lit(500.0)), left_on="cust", right_on="cid"
        ),
        "aggregate": orders.join(per_region, left_on="cust", right_on="cid"),
        "scan read twice": orders.join(customers, left_on="cust", right_on="cid").join(
            customers, left_on="cust", right_on="cid"
        ),
    }


def test_only_a_scan_nothing_else_reads_is_broadcast_as_one_shard(tables):
    rows = {name: batch.num_rows for name, batch in tables.items()}
    for name, frame in small_sides(tables).items():
        graph, _ = ir_to_flowgraph(
            optimize_and_lower(frame.to_ir()),
            shards=4,
            table_rows=rows,
            broadcast_threshold=5_000,
        )
        joins = [v for v in graph.vertices.values() if v.name.endswith(":broadcast")]
        assert joins, name
        (customers,) = [v for v in graph.vertices.values() if v.source_table == "customers"]
        coalesces = [v for v in graph.vertices.values() if v.py_func is coalesce]
        if name == "scan":
            assert customers.parallelism == 1
            assert not coalesces
            (orders,) = [v for v in graph.vertices.values() if v.source_table == "orders"]
            join_inputs = {e.src for e in graph.edges if e.dst == joins[0].vertex_id}
            assert join_inputs == {orders.vertex_id, customers.vertex_id}
        else:
            assert customers.parallelism == 4, name
            assert len(coalesces) == len(joins), name
        skadi = Skadi(shards=4)
        got = skadi.dataframe(frame, tables)
        (want,) = run_function(frame.to_ir(), tables=tables)
        assert_same_rows(got, want)


# -- differential ------------------------------------------------------------------


def test_the_e15_shapes_match_the_interpreter_with_no_pass_through_task(tables):
    for name, sql in sorted(QUERIES.items()):
        (want,) = run_function(sql_to_ir(sql, catalog(tables)), tables=tables)
        for shards in (1, 2, 4):
            for threshold in (0, 5_000):
                skadi = Skadi(shards=shards, broadcast_threshold=threshold)
                _lowered, graph, _sink, _stats = skadi._plan(
                    sql_to_ir(sql, catalog(tables)), tables
                )
                assert not pass_through(graph), (name, shards, threshold)
                assert_same_rows(skadi.sql(sql, tables), want)
