"""Tests for the Skadi facade and the IR->FlowGraph planner."""

from __future__ import annotations

import pytest

from repro import Skadi, col, lit
from repro.cluster import build_physical_disagg, build_serverful
from repro.core.planner import PlanningError, ir_to_flowgraph
from repro.frontends.dataframe import from_batch
from repro.frontends.sql import sql_to_ir
from repro.ir import Builder, TensorType, run_function
from repro.runtime import Generation, ResolutionMode, RuntimeConfig

from conftest import assert_batches_close


class TestPlanner:
    def test_scan_becomes_sharded_source(self, catalog):
        func = sql_to_ir("SELECT oid FROM orders", catalog)
        from repro.ir.lowering import lower_relational_to_df

        graph, sink = ir_to_flowgraph(lower_relational_to_df(func), shards=4)
        source = next(v for v in graph.vertices.values() if v.is_source)
        assert source.parallelism == 4

    def test_join_gets_keyed_edges(self, catalog):
        func = sql_to_ir(
            "SELECT oid FROM orders JOIN customers ON cust = cid", catalog
        )
        from repro.ir.lowering import lower_relational_to_df

        graph, _ = ir_to_flowgraph(lower_relational_to_df(func), shards=3)
        keyed = [e for e in graph.edges if e.key is not None]
        assert {e.key for e in keyed} == {"cust", "cid"}

    def test_a_gathered_keyed_aggregate_runs_in_two_phases(self, catalog):
        func = sql_to_ir(
            "SELECT cust, SUM(amount) AS s FROM orders GROUP BY cust", catalog
        )
        from repro.ir.lowering import lower_relational_to_df

        graph, sink = ir_to_flowgraph(lower_relational_to_df(func), shards=3)
        assert not [e for e in graph.edges if e.key is not None]
        shape = {v.name: v.parallelism for v in graph.vertices.values()}
        assert shape == {
            "scan:orders": 3, "df.hash_aggregate:partial": 3, "df.hash_aggregate:final": 1,
        }
        assert sink.name == "df.hash_aggregate:final"

    def test_a_keyed_aggregate_feeding_a_sharded_consumer_shuffles(self, orders, customers):
        per_customer = from_batch("orders", orders).groupby("cust").agg(total=("sum", "amount"))
        regions = from_batch("customers", customers)
        frame = per_customer.join(regions, left_on="cust", right_on="cid")
        from repro.ir.lowering import lower_relational_to_df

        graph, _ = ir_to_flowgraph(lower_relational_to_df(frame.to_ir()), shards=3)
        keyed = [e for e in graph.edges if e.key == "cust"]
        assert len(keyed) == 2  # into the aggregate, and from it into the join
        assert not any("partial" in v.name for v in graph.vertices.values())

    def test_global_aggregate_gathers(self, catalog):
        func = sql_to_ir("SELECT SUM(amount) AS s FROM orders", catalog)
        from repro.ir.lowering import lower_relational_to_df

        graph, sink = ir_to_flowgraph(lower_relational_to_df(func), shards=3)
        assert sink.parallelism == 1

    def test_open_function_rejected(self):
        b = Builder("f")
        b.add_param("x", TensorType((2, 2)))
        func = b.ret(b.emit("linalg", "relu", [b.function.params[0]]).result())
        with pytest.raises(PlanningError, match="closed query"):
            ir_to_flowgraph(func)

    def test_invalid_shards(self, catalog):
        func = sql_to_ir("SELECT oid FROM orders", catalog)
        with pytest.raises(PlanningError):
            ir_to_flowgraph(func, shards=0)


class TestSkadiSQL:
    @pytest.fixture
    def skadi(self):
        return Skadi(shards=3)

    def oracle(self, sql, catalog, tables):
        (out,) = run_function(sql_to_ir(sql, catalog), tables=tables)
        return out

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_aggregation_matches_oracle_across_shards(
        self, shards, catalog, orders
    ):
        sql = (
            "SELECT cust, SUM(amount) AS total, COUNT(*) AS n FROM orders "
            "GROUP BY cust ORDER BY cust"
        )
        skadi = Skadi(shards=shards)
        out = skadi.sql(sql, {"orders": orders})
        assert_batches_close(out, self.oracle(sql, catalog, {"orders": orders}))

    def test_join_query_matches_oracle(self, skadi, catalog, orders, customers):
        sql = (
            "SELECT region, SUM(amount) AS total FROM orders "
            "JOIN customers ON cust = cid WHERE amount > 20 "
            "GROUP BY region ORDER BY region"
        )
        tables = {"orders": orders, "customers": customers}
        out = skadi.sql(sql, tables)
        assert_batches_close(out, self.oracle(sql, catalog, tables))

    def test_sort_limit_query(self, skadi, catalog, orders):
        sql = "SELECT oid, amount FROM orders ORDER BY amount DESC LIMIT 7"
        out = skadi.sql(sql, {"orders": orders})
        assert_batches_close(out, self.oracle(sql, catalog, {"orders": orders}))

    def test_report_populated(self, skadi, orders):
        skadi.sql("SELECT oid FROM orders WHERE amount > 50", {"orders": orders})
        report = skadi.last_report
        assert report.physical_tasks > 0
        assert report.sim_seconds > 0
        assert "relational.scan" in report.ir_text
        assert "df.source" in report.lowered_text

    def test_ir_fusion_reduces_tasks_and_keeps_answers(self, orders):
        sql = "SELECT oid, amount * qty AS r FROM orders WHERE amount > 10"
        plain = Skadi(shards=2, optimize_graph=False, optimize_ir=False)
        out_plain = plain.sql(sql, {"orders": orders})
        unopt_tasks = plain.last_report.physical_tasks
        opt = Skadi(shards=2)
        out_opt = opt.sql(sql, {"orders": orders})
        assert opt.last_report.physical_tasks < unopt_tasks
        mask = orders.column("amount") > 10
        assert out_opt.num_rows == out_plain.num_rows == int(mask.sum())

    def test_fused_query_keeps_parallelism(self, orders):
        skadi = Skadi(shards=4)
        skadi.sql(
            "SELECT oid, amount * qty AS r FROM orders WHERE amount > 10",
            {"orders": orders},
        )
        # fused elementwise stage still runs 4-wide (not gathered to 1)
        assert skadi.last_report.physical_tasks >= 8

    def test_dataframe_entry_point(self, skadi, orders):
        df = (
            from_batch("orders", orders)
            .filter(col("amount") > lit(50))
            .groupby("cust")
            .agg(n=("count", "oid"))
            .sort("cust")
        )
        out = skadi.dataframe(df, {"orders": orders})
        local = df.collect({"orders": orders})
        assert_batches_close(out, local)

    def test_task_api_passthrough(self, skadi):
        ref = skadi.submit(lambda a, b: a + b, (skadi.put(1), 2))
        assert skadi.get(ref) == 3
        assert skadi.sim_now > 0

    def test_runs_on_alternative_clusters(self, orders):
        for cluster in (build_serverful(3), build_physical_disagg()):
            skadi = Skadi(cluster=cluster, shards=2)
            out = skadi.sql(
                "SELECT COUNT(*) AS n FROM orders", {"orders": orders}
            )
            assert out.column("n").tolist() == [orders.num_rows]

    def test_runtime_config_respected(self, orders):
        skadi = Skadi(
            config=RuntimeConfig(
                generation=Generation.GEN1, resolution=ResolutionMode.PULL
            ),
            shards=2,
        )
        out = skadi.sql("SELECT COUNT(*) AS n FROM orders", {"orders": orders})
        assert out.column("n").tolist() == [orders.num_rows]
