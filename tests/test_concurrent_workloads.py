"""Integration tests: several data systems sharing one runtime.

The paper's whole point is that one runtime hosts many systems at once
("data systems integration").  These tests interleave SQL, graph,
streaming, and ML work on a single Skadi/ServerlessRuntime instance and
check that results stay correct and isolated.
"""

from __future__ import annotations

import numpy as np

from repro import RecordBatch, Skadi
from repro.cluster import build_physical_disagg
from repro.flowgraph import collect_sink, launch_physical_graph, to_physical
from repro.frontends import (
    EdgeList,
    ParameterServer,
    StreamJob,
    WindowAggregate,
    make_regression,
    micro_batches,
    pagerank,
    pagerank_flowgraph,
)
from repro.frontends.sql import sql_to_ir
from repro.ir import run_function
from repro.runtime import ServerlessRuntime


class TestSharedRuntime:
    def test_two_sql_queries_back_to_back(self, orders, customers, catalog):
        skadi = Skadi(shards=3)
        q1 = "SELECT COUNT(*) AS n FROM orders WHERE amount > 50"
        q2 = (
            "SELECT region, SUM(amount) AS total FROM orders "
            "JOIN customers ON cust = cid GROUP BY region ORDER BY region"
        )
        tables = {"orders": orders, "customers": customers}
        out1 = skadi.sql(q1, tables)
        out2 = skadi.sql(q2, tables)
        (want1,) = run_function(sql_to_ir(q1, catalog), tables=tables)
        (want2,) = run_function(sql_to_ir(q2, catalog), tables=tables)
        assert out1.column("n").tolist() == want1.column("n").tolist()
        np.testing.assert_allclose(out2.column("total"), want2.column("total"))

    def test_sql_and_tasks_interleaved(self, orders):
        skadi = Skadi(shards=2)
        refs = [skadi.submit(lambda i=i: i * i, name=f"side{i}") for i in range(5)]
        out = skadi.sql("SELECT COUNT(*) AS n FROM orders", {"orders": orders})
        assert out.column("n").tolist() == [orders.num_rows]
        assert skadi.get(refs) == [0, 1, 4, 9, 16]

    def test_pagerank_and_ml_share_a_runtime(self):
        rt = ServerlessRuntime(build_physical_disagg())
        edges = EdgeList.random(100, 400, seed=6)
        graph, sink, tables = pagerank_flowgraph(edges, iterations=3, partitions=2)
        outs = launch_physical_graph(rt, to_physical(graph), tables=tables)

        X, y, w_true = make_regression(200, 4, seed=9)
        ps = ParameterServer(rt, 4, lr=0.05)
        weights = ps.train(X, y, rounds=20, workers=3)

        # both systems got correct answers off the same runtime
        result = collect_sink(rt, outs, sink)
        ranks = np.zeros(edges.num_vertices)
        ranks[result.column("vid")] = result.column("rank")
        np.testing.assert_allclose(ranks, pagerank(edges, iterations=3))
        assert np.abs(weights - w_true).max() < 0.2

    def test_stream_and_batch_coexist(self, rng):
        rt = ServerlessRuntime(build_physical_disagg())
        table = RecordBatch.from_arrays(
            {"k": rng.integers(0, 3, 160), "x": rng.random(160)}
        )
        stream_job = StreamJob(
            [WindowAggregate(keys=("k",), aggs=(("s", "sum", "x"),), window=4)]
        )
        stream_out = stream_job.run(rt, micro_batches(table, 20))
        batch_ref = rt.submit(lambda: 123, name="batch_side_job")
        assert rt.get(batch_ref) == 123
        local = stream_job.run_local(micro_batches(table, 20))
        for d, l in zip(stream_out, local, strict=False):
            assert d == l

    def test_runtime_stats_accumulate_across_jobs(self, orders):
        skadi = Skadi(shards=2)
        skadi.sql("SELECT COUNT(*) AS n FROM orders", {"orders": orders})
        first_tasks = skadi.runtime.tasks_finished
        skadi.sql("SELECT COUNT(*) AS n FROM orders", {"orders": orders})
        assert skadi.runtime.tasks_finished > first_tasks
        assert skadi.sim_now > 0
