"""Tests for relational rewrite rules and broadcast-join planning."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro import RecordBatch, Skadi
from repro.bench.workloads import customers_table, lineitem_like_table, orders_table
from repro.core.planner import ir_to_flowgraph
from repro.frontends.sql import sql_to_ir
from repro.ir import Builder, FrameType, PassManager, run_function
from repro.ir.expr import BinOp, Col, FuncCall, Lit, UnaryOp
from repro.ir.lowering import lower_relational_to_df
from repro.ir.passes import PassStats
from repro.ir.relational_passes import (
    PruneScanColumns,
    SplitConjunctiveFilter,
    relational_optimizer,
    rename_cols,
)

BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

from ledger.workloads import QUERIES  # noqa: E402

CATALOG = {
    "orders": FrameType(
        (("oid", "int64"), ("cust", "int64"), ("amount", "float64"), ("qty", "int64"))
    ),
    "customers": FrameType(
        (("cid", "int64"), ("region", "int64"), ("credit", "float64"))
    ),
}

JOIN_QUERY = (
    "SELECT region, SUM(amount) AS total FROM orders "
    "JOIN customers ON cust = cid WHERE amount > 50 AND credit > 500 "
    "GROUP BY region ORDER BY region"
)


class TestRenameCols:
    def test_rewrites_every_node_kind(self):
        expr = UnaryOp(
            "not",
            BinOp("and", Col("a") > Lit(1), FuncCall("sqrt", (Col("b"),)) < Lit(2)),
        )
        renamed = rename_cols(expr, {"a": "x", "b": "y"})
        assert set(renamed.referenced_columns()) == {"x", "y"}

    def test_unmapped_columns_untouched(self):
        expr = Col("a") + Col("b")
        renamed = rename_cols(expr, {"a": "x"})
        assert set(renamed.referenced_columns()) == {"x", "b"}


class TestSplitConjunctions:
    def test_splits_and_preserves_semantics(self, orders):
        func = sql_to_ir(
            "SELECT oid FROM orders WHERE amount > 50 AND qty > 3",
            CATALOG,
        )
        (before,) = run_function(func, tables={"orders": orders})
        PassManager([SplitConjunctiveFilter()]).run(func)
        filters = [op for op in func.ops if op.name == "filter"]
        assert len(filters) == 2
        (after,) = run_function(func, tables={"orders": orders})
        assert before == after

    def test_non_conjunctive_untouched(self):
        func = sql_to_ir("SELECT oid FROM orders WHERE amount > 50", CATALOG)
        assert not SplitConjunctiveFilter().run(func, PassManager().run(func))


class TestPushdown:
    def plan_ops(self, query):
        func = sql_to_ir(query, CATALOG)
        PassManager(relational_optimizer()).run(func)
        return func, [op.qualified for op in func.ops]

    def test_both_sides_pushed(self):
        func, ops = self.plan_ops(JOIN_QUERY)
        join_pos = ops.index("relational.join")
        # both filters sit before the join now
        assert ops[:join_pos].count("relational.filter") == 2
        assert "relational.filter" not in ops[join_pos:]

    def test_semantics_preserved(self, orders, customers):
        tables = {"orders": orders, "customers": customers}
        plain = sql_to_ir(JOIN_QUERY, CATALOG)
        (want,) = run_function(plain, tables=tables)
        optimized, _ = self.plan_ops(JOIN_QUERY)
        (got,) = run_function(optimized, tables=tables)
        assert got == want

    def test_right_side_rename_handling(self):
        # credit is a right-side column: its predicate must reference the
        # original name after the push
        func, _ = self.plan_ops(JOIN_QUERY)
        filters = [op for op in func.ops if op.name == "filter"]
        preds = [repr(op.attrs["pred"]) for op in filters]
        assert any("credit" in p for p in preds)
        assert all("r_credit" not in p for p in preds)

    def test_cross_side_predicate_stays_put(self):
        func, ops = self.plan_ops(
            "SELECT oid FROM orders JOIN customers ON cust = cid "
            "WHERE amount > credit"
        )
        join_pos = ops.index("relational.join")
        assert "relational.filter" in ops[join_pos:]  # cannot push


class TestBroadcastJoinPlanning:
    def lowered(self, query=JOIN_QUERY):
        return lower_relational_to_df(sql_to_ir(query, CATALOG))

    def test_threshold_zero_keeps_shuffle(self):
        graph, _ = ir_to_flowgraph(
            self.lowered(), shards=4, table_rows={"orders": 50_000, "customers": 50}
        )
        assert any(e.key is not None for e in graph.edges)

    def test_small_side_broadcasts(self):
        graph, _ = ir_to_flowgraph(
            self.lowered(),
            shards=4,
            table_rows={"orders": 50_000, "customers": 50},
            broadcast_threshold=1_000,
        )
        join_vertex = next(
            v for v in graph.vertices.values() if v.name.endswith(":broadcast")
        )
        assert "hash_join" in join_vertex.name
        # no keyed (shuffle) edge feeds the join; the GROUP BY shuffle later
        # in the plan is untouched and legitimate
        join_in = [e for e in graph.edges if e.dst == join_vertex.vertex_id]
        assert all(e.key is None for e in join_in)
        assert any("coalesce" in v.name for v in graph.vertices.values())

    def test_two_big_sides_still_shuffle(self):
        graph, _ = ir_to_flowgraph(
            self.lowered(),
            shards=4,
            table_rows={"orders": 50_000, "customers": 50_000},
            broadcast_threshold=1_000,
        )
        assert any(e.key is not None for e in graph.edges)

    def test_broadcast_answers_match_shuffle(self, orders, customers):
        tables = {"orders": orders, "customers": customers}
        shuffle = Skadi(shards=3, broadcast_threshold=0)
        bcast = Skadi(shards=3, broadcast_threshold=10_000)
        out_s = shuffle.sql(JOIN_QUERY, tables)
        out_b = bcast.sql(JOIN_QUERY, tables)
        np.testing.assert_allclose(out_s.column("total"), out_b.column("total"))
        np.testing.assert_array_equal(out_s.column("region"), out_b.column("region"))


# -- column pruning ---------------------------------------------------------------


def catalog_of(tables):
    return {
        name: FrameType(tuple((f.name, f.dtype.name) for f in batch.schema.fields))
        for name, batch in tables.items()
    }


def scan_schemas(func):
    return {op.attrs["table"]: op.attrs["schema"].names for op in func.ops if op.name == "scan"}


@pytest.fixture(scope="module")
def ledger_tables():
    return {
        "lineitem": lineitem_like_table(800, seed=3),
        "orders": orders_table(600, num_customers=40, seed=4),
        "customers": customers_table(40, seed=5),
    }


@pytest.fixture(scope="module")
def collide():
    """``d.x`` collides with ``t.x``: a join reads it as ``r_x``."""
    rng = np.random.default_rng(6)
    return {
        "t": RecordBatch.from_arrays(
            {"g": rng.integers(0, 4, 60), "x": rng.random(60), "k": rng.integers(0, 9, 60)}
        ),
        "d": RecordBatch.from_arrays(
            {"dk": np.array([0, 2, 2, 5]), "x": np.array([0.5, 1.5, 2.5, 3.5]), "w": np.arange(4)}
        ),
    }


def build(tables, emit):
    """A function whose body ``emit(builder, scan)`` writes over full-schema scans."""
    catalog = catalog_of(tables)
    b = Builder("f")

    def scan(table):
        return b.emit("relational", "scan", (), {"table": table, "schema": catalog[table]}).result()

    func = b.ret(emit(b, scan).result())
    func.verify()
    return func


class TestPruneScanColumns:
    def optimized_equals_plain(self, make, tables):
        """Optimize a fresh copy under ``verify_each``; the answer must not move,
        and a second run of the pass must change nothing.  Returns the copy."""
        (want,) = run_function(make(), tables=tables)
        func = make()
        PassManager(relational_optimizer(), verify_each=True).run(func)
        (got,) = run_function(func, tables=tables)
        assert got == want
        assert not PruneScanColumns().run(func, PassStats())
        return func

    @pytest.mark.parametrize(
        "query,schemas",
        [
            ("scan_agg", {"lineitem": (
                "l_quantity", "l_extendedprice", "l_discount", "l_returnflag", "l_linestatus"
            )}),
            ("selective_filter", {"lineitem": ("l_quantity", "l_extendedprice", "l_discount")}),
            ("join_group", {"orders": ("cust", "amount"), "customers": ("cid", "region")}),
            ("top_k", {"orders": ("oid", "amount")}),
        ],
    )
    def test_each_ledger_query_scans_only_what_it_reads(self, query, schemas, ledger_tables):
        func = self.optimized_equals_plain(
            lambda: sql_to_ir(QUERIES[query], catalog_of(ledger_tables)), ledger_tables
        )
        assert scan_schemas(func) == schemas

    def test_count_star_keeps_exactly_one_column(self, ledger_tables):
        func = self.optimized_equals_plain(
            lambda: sql_to_ir("SELECT COUNT(*) AS n FROM orders", catalog_of(ledger_tables)),
            ledger_tables,
        )
        assert scan_schemas(func) == {"orders": ("oid",)}

    def test_reading_r_x_keeps_x_on_both_sides(self, collide):
        func = self.optimized_equals_plain(
            lambda: sql_to_ir("SELECT g, r_x FROM t JOIN d ON g = dk", catalog_of(collide)),
            collide,
        )
        # without t.x the right side's x would come out as x, not r_x
        assert scan_schemas(func) == {"t": ("g", "x"), "d": ("dk", "x")}

    def test_distinct_keeps_every_column_of_its_input(self, collide):
        def make():
            return build(collide, lambda b, scan: b.emit(
                "relational", "project",
                [b.emit("relational", "distinct", [scan("t")]).result()],
                {"columns": ("g",), "derived": ()},
            ))

        assert scan_schemas(self.optimized_equals_plain(make, collide)) == {"t": ("g", "x", "k")}

    @pytest.mark.parametrize("shards", [2, 4])
    def test_distributed_distinct_gives_the_oracles_rows(self, shards, collide):
        sql = "SELECT DISTINCT g FROM t"
        (want,) = run_function(sql_to_ir(sql, catalog_of(collide)), tables=collide)
        got = Skadi(shards=shards).sql(sql, collide)
        # no ORDER BY: the rows may come in shard order
        assert got.schema == want.schema
        assert sorted(got.column("g").tolist()) == sorted(want.column("g").tolist())

    def test_kernel_call_operand_stays_whole(self, collide):
        def make():
            def emit(b, scan):
                source = scan("t")
                top = b.emit("kernel", "call", [source], {
                    "kernel": "misc.top_k", "kwargs": {"column": "x", "k": 3},
                    "result_type": source.type,
                })
                return b.emit("relational", "project", [top.result()], {"columns": ("g",)})
            return build(collide, emit)

        assert scan_schemas(self.optimized_equals_plain(make, collide)) == {"t": ("g", "x", "k")}

    def test_frame_to_tensor_operand_stays_whole(self, collide):
        def make():
            return build(collide, lambda b, scan: b.emit(
                "linalg", "frame_to_tensor", [scan("t")], {"columns": ("x",)}
            ))

        func = make()
        (want,) = run_function(func, tables=collide)
        PassManager(relational_optimizer(), verify_each=True).run(func)
        assert scan_schemas(func) == {"t": ("g", "x", "k")}
        (got,) = run_function(func, tables=collide)
        assert np.array_equal(got, want)

    def test_a_project_nobody_reads_from_keeps_one_column(self, collide):
        def make():
            return build(collide, lambda b, scan: b.emit(
                "relational", "aggregate",
                [b.emit("relational", "project", [scan("t")], {
                    "columns": ("k",), "derived": (("y", Col("x") * Lit(2.0), "float64"),)
                }).result()],
                {"keys": (), "aggs": (("n", "count", "k"),)},
            ))

        func = self.optimized_equals_plain(make, collide)
        project = next(op for op in func.ops if op.name == "project")
        assert (project.attrs["columns"], project.attrs["derived"]) == (("k",), ())
        assert scan_schemas(func) == {"t": ("k",)}

    def test_selective_filter_ships_three_of_eight_columns(self):
        lineitem = lineitem_like_table(800, seed=3)
        skadi = Skadi(shards=4)
        skadi.sql(QUERIES["selective_filter"], {"lineitem": lineitem})
        assert skadi.last_report.bytes_moved * 8 == lineitem.nbytes * 3


class TestScanReturnsItsSchema:
    def test_join_reads_the_declared_side_of_a_name_both_tables_have(self, collide):
        # t also has an x; the scan of t declares only g, so the x of the
        # join is d.x — a scan that returned all of t would hand out t.x
        b = Builder("f")
        left = b.emit("relational", "scan", (), {
            "table": "t", "schema": FrameType((("g", "int64"),)),
        })
        right = b.emit("relational", "scan", (), {
            "table": "d", "schema": FrameType((("dk", "int64"), ("x", "float64"))),
        })
        join = b.emit("relational", "join", [left.result(), right.result()],
                      {"left_on": "g", "right_on": "dk"})
        func = b.ret(join.result())
        func.verify()
        assert join.result().type.names == ("g", "x")
        (out,) = run_function(func, tables=collide)
        assert out.schema.names == ["g", "x"]
        d = collide["d"]
        by_key = {}
        for key, x in zip(d.column("dk").tolist(), d.column("x").tolist(), strict=True):
            by_key.setdefault(key, []).append(x)
        want = [x for g in collide["t"].column("g").tolist() for x in by_key.get(g, [])]
        assert out.column("x").tolist() == want
