"""Tests for dataframe, graph, and ML frontends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import build_physical_disagg
from repro.flowgraph import collect_sink, launch_physical_graph, to_physical
from repro.frontends import (
    EdgeList,
    LinearModel,
    LogisticModel,
    ParameterServer,
    connected_components,
    from_batch,
    make_classification,
    make_regression,
    pagerank,
    pagerank_flowgraph,
    sssp,
    training_flowgraph,
)
from repro.ir import col, lit
from repro.runtime import ServerlessRuntime


class TestDataFrame:
    def test_filter_select_collect(self, small_batch):
        df = (
            from_batch("t", small_batch)
            .filter(col("x") > lit(2.0))
            .select("k", doubled=col("x") * 2)
        )
        out = df.collect({"t": small_batch})
        assert out.column("doubled").tolist() == [6.0, 8.0, 10.0]

    def test_groupby_agg(self, small_batch):
        df = (
            from_batch("t", small_batch)
            .groupby("k")
            .agg(s=("sum", "x"), n=("count", "x"))
            .sort("k")
        )
        out = df.collect({"t": small_batch})
        assert out.column("s").tolist() == [4.0, 6.0, 5.0]
        assert out.column("n").tolist() == [2, 2, 1]

    def test_join(self, orders, customers):
        df_o = from_batch("orders", orders)
        df_c = from_batch("customers", customers)
        joined = df_o.join(df_c, left_on="cust", right_on="cid")
        out = joined.collect({"orders": orders, "customers": customers})
        assert "region" in out.schema.names
        assert out.num_rows == orders.num_rows  # every cust has a customer

    def test_schema_validation(self, small_batch):
        df = from_batch("t", small_batch)
        with pytest.raises(KeyError):
            df.filter(col("ghost") > lit(1))
        with pytest.raises(KeyError):
            df.groupby("ghost")

    def test_sort_limit(self, small_batch):
        df = from_batch("t", small_batch).sort("x", ascending=False).limit(2)
        out = df.collect({"t": small_batch})
        assert out.column("x").tolist() == [5.0, 4.0]

    def test_plans_are_immutable(self, small_batch):
        base = from_batch("t", small_batch)
        filtered = base.filter(col("x") > lit(3))
        assert base.collect({"t": small_batch}).num_rows == 5
        assert filtered.collect({"t": small_batch}).num_rows == 2

    def test_agg_validation(self, small_batch):
        with pytest.raises(ValueError):
            from_batch("t", small_batch).groupby("k").agg()


class TestGraphAlgorithms:
    def test_pagerank_sums_to_one(self):
        el = EdgeList.random(200, 800, seed=0)
        pr = pagerank(el, iterations=15)
        assert pr.sum() == pytest.approx(1.0)
        assert np.all(pr > 0)

    def test_pagerank_star_center_dominates(self):
        # edges all pointing at vertex 0
        n = 10
        el = EdgeList(n, np.arange(1, n), np.zeros(n - 1, dtype=np.int64))
        pr = pagerank(el, iterations=30)
        assert pr[0] == max(pr)
        assert pr[0] > 5 * pr[1]

    def test_sssp_simple_path(self):
        el = EdgeList(
            3,
            np.array([0, 1]),
            np.array([1, 2]),
            weight=np.array([1.5, 2.5]),
        )
        dist = sssp(el, 0)
        np.testing.assert_allclose(dist, [0.0, 1.5, 4.0])

    def test_sssp_unreachable_is_inf(self):
        el = EdgeList(3, np.array([0]), np.array([1]), weight=np.array([1.0]))
        assert sssp(el, 0)[2] == np.inf

    def test_sssp_requires_weights(self):
        el = EdgeList(2, np.array([0]), np.array([1]))
        with pytest.raises(ValueError, match="weights"):
            sssp(el, 0)
        with pytest.raises(ValueError, match="out of range"):
            sssp(EdgeList(2, np.array([0]), np.array([1]), np.array([1.0])), 5)

    def test_connected_components_two_islands(self):
        el = EdgeList(6, np.array([0, 1, 3, 4]), np.array([1, 2, 4, 5]))
        labels = connected_components(el)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_edge_list_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            EdgeList(2, np.array([0]), np.array([5]))
        with pytest.raises(ValueError, match="length"):
            EdgeList(2, np.array([0]), np.array([1, 0]))

    @pytest.mark.parametrize("partitions", [1, 2, 4])
    def test_pagerank_flowgraph_shape_and_result(self, partitions):
        el = EdgeList.random(120, 500, seed=5)
        iterations = 4
        graph, sink, tables = pagerank_flowgraph(
            el, iterations=iterations, partitions=partitions
        )
        physical = to_physical(graph)
        # the rank0 shards, then per superstep P scatters, one dangling-mass
        # reduction and P applies behind the keyed edge
        assert len(physical.tasks) == partitions + iterations * (2 * partitions + 1)
        rt = ServerlessRuntime(build_physical_disagg())
        outs = launch_physical_graph(rt, physical, tables=tables)
        result = collect_sink(rt, outs, sink)
        got = np.zeros(120)
        got[result.column("vid")] = result.column("rank")
        np.testing.assert_allclose(got, pagerank(el, iterations=iterations))
        assert result.num_rows == 120  # every vertex survived the shuffles

    def test_pagerank_flowgraph_task_count_at_the_examples_size(self):
        # examples/graph_processing.py runs k=8 supersteps over P=4 shards
        graph, _, _ = pagerank_flowgraph(
            EdgeList.random(64, 256, seed=0), iterations=8, partitions=4
        )
        assert len(to_physical(graph).tasks) == 76

    def test_pagerank_flowgraph_shuffles_only_scatter_to_apply(self):
        graph, _, _ = pagerank_flowgraph(
            EdgeList.random(20, 60, seed=1), iterations=3, partitions=2
        )
        name = {vid: v.name for vid, v in graph.vertices.items()}
        keyed = [(name[e.src], name[e.dst], e.key) for e in graph.edges if e.key is not None]
        assert keyed == [(f"scatter{s}", f"apply{s}", "dst") for s in range(3)]

    def test_pagerank_flowgraph_with_no_supersteps_is_the_uniform_start(self):
        el = EdgeList.random(30, 90, seed=2)
        graph, sink, tables = pagerank_flowgraph(el, iterations=0, partitions=3)
        physical = to_physical(graph)
        assert len(physical.tasks) == 3
        rt = ServerlessRuntime(build_physical_disagg())
        outs = launch_physical_graph(rt, physical, tables=tables)
        result = collect_sink(rt, outs, sink)
        got = np.zeros(30)
        got[result.column("vid")] = result.column("rank")
        np.testing.assert_allclose(got, pagerank(el, iterations=0))

    def test_pagerank_flowgraph_rejects_zero_partitions(self):
        el = EdgeList.random(10, 20, seed=0)
        with pytest.raises(ValueError, match="partitions"):
            pagerank_flowgraph(el, partitions=0)


class TestML:
    def test_linear_model_converges(self):
        X, y, w_true = make_regression(500, 6, noise=0.01, seed=1)
        model = LinearModel(6, lr=0.05)
        losses = model.fit(X, y, epochs=40)
        assert losses[-1] < losses[0] / 50
        assert np.abs(model.weights - w_true).max() < 0.1

    def test_logistic_model_accuracy(self):
        X, y = make_classification(600, 5, seed=2)
        model = LogisticModel(5, lr=0.2)
        model.fit(X, y, epochs=40)
        assert model.accuracy(X, y) > 0.9

    def test_training_flowgraph_matches_serial_gd(self):
        """Synchronous data-parallel SGD == serial full-batch GD when shards
        partition the data and gradients are averaged."""
        X, y, _ = make_regression(200, 4, seed=3)
        epochs, lr = 4, 0.05
        graph, sink, tables = training_flowgraph(X, y, epochs=epochs, workers=4, lr=lr)
        rt = ServerlessRuntime(build_physical_disagg())
        outs = launch_physical_graph(rt, to_physical(graph), tables=tables)
        w_dist = collect_sink(rt, outs, sink).column("w")

        w = np.zeros(4)
        shards = [(X[i::4], y[i::4]) for i in range(4)]
        for _ in range(epochs):
            grads = [2.0 * Xs.T @ (Xs @ w - ys) / len(ys) for Xs, ys in shards]
            w = w - lr * np.mean(grads, axis=0)
        np.testing.assert_allclose(w_dist, w, rtol=1e-9)

    def test_training_flowgraph_validates_lengths(self):
        with pytest.raises(ValueError):
            training_flowgraph(np.zeros((3, 2)), np.zeros(4))

    def test_parameter_server_learns(self):
        X, y, w_true = make_regression(300, 5, seed=4)
        rt = ServerlessRuntime(build_physical_disagg())
        ps = ParameterServer(rt, 5, lr=0.05)
        w = ps.train(X, y, rounds=25, workers=3)
        assert np.abs(w - w_true).max() < 0.1

    def test_parameter_server_update_count(self):
        rt = ServerlessRuntime(build_physical_disagg())
        ps = ParameterServer(rt, 3, lr=0.1)
        refs = [ps.push_gradient(np.ones(3) * 0.1) for _ in range(4)]
        rt.get(refs)
        # 4 sequential applications of -0.1*0.1
        np.testing.assert_allclose(ps.get_weights(), -0.04 * np.ones(3))
