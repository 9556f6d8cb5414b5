"""Tests for the logical FlowGraph, graph optimizer, and physical lowering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.caching.columnar import RecordBatch
from repro.flowgraph import (
    FlowGraph,
    GraphValidationError,
    collect_sink,
    fuse_linear_chains,
    launch_physical_graph,
    optimize,
    prune_dead_vertices,
    to_physical,
)
from repro.ir import Builder, FrameType, col, lit
from repro.runtime import ServerlessRuntime
from repro.cluster import build_physical_disagg

SCHEMA = FrameType((("k", "int64"), ("x", "float64")))


def ir_identity(name="ident"):
    b = Builder(name)
    p = b.add_param("in", SCHEMA)
    out = b.emit("df", "select", [p], {"columns": ("k", "x")})
    return b.ret(out.result())


def ir_filter(threshold=0.5):
    b = Builder("filter")
    p = b.add_param("in", SCHEMA)
    out = b.emit("df", "where", [p], {"pred": col("x") > lit(threshold)})
    return b.ret(out.result())


class TestLogicalGraph:
    def test_vertex_payload_exclusivity(self):
        g = FlowGraph()
        with pytest.raises(GraphValidationError, match="exactly one payload"):
            g.add_vertex("bad", ir_func=ir_identity(), py_func=lambda x: x)
        with pytest.raises(GraphValidationError):
            g.add_vertex("empty")

    def test_validation_checks_ir_arity(self):
        g = FlowGraph()
        g.add_vertex("f", ir_func=ir_filter())  # needs one input
        with pytest.raises(GraphValidationError, match="expects 1 inputs"):
            g.validate()

    def test_port_density_checked(self):
        g = FlowGraph()
        s = g.add_vertex("s", source_table="t")
        v = g.add_vertex("v", py_func=lambda a, b: a)
        g.add_edge(s, v, dst_port=0)
        g.add_edge(s, v, dst_port=2)  # gap
        with pytest.raises(GraphValidationError, match="not dense"):
            g.validate()

    def test_cycle_detection(self):
        g = FlowGraph()
        a = g.add_vertex("a", py_func=lambda x: x)
        b = g.add_vertex("b", py_func=lambda x: x)
        g.add_edge(a, b)
        g.add_edge(b, a)
        with pytest.raises(GraphValidationError, match="cycle"):
            g.topological_order()

    def test_topological_order(self):
        g = FlowGraph()
        s = g.add_vertex("s", source_table="t")
        m = g.add_vertex("m", ir_func=ir_identity())
        r = g.add_vertex("r", ir_func=ir_identity("r"))
        g.add_edge(s, m)
        g.add_edge(m, r)
        order = [v.name for v in g.topological_order()]
        assert order == ["s", "m", "r"]

    def test_sources_and_sinks(self):
        g = FlowGraph()
        s = g.add_vertex("s", source_table="t")
        m = g.add_vertex("m", ir_func=ir_identity())
        g.add_edge(s, m)
        assert [v.name for v in g.sources()] == ["s"]
        assert [v.name for v in g.sinks()] == ["m"]

    def test_foreign_vertex_rejected(self):
        g1, g2 = FlowGraph(), FlowGraph()
        a = g1.add_vertex("a", source_table="t")
        b = g2.add_vertex("b", ir_func=ir_identity())
        with pytest.raises(GraphValidationError):
            g1.add_edge(a, b)


class TestOptimizer:
    def chain_graph(self):
        g = FlowGraph()
        s = g.add_vertex("s", source_table="t", parallelism=2)
        f1 = g.add_vertex("f1", ir_func=ir_filter(0.2), parallelism=2)
        f2 = g.add_vertex("f2", ir_func=ir_identity(), parallelism=2)
        g.add_edge(s, f1)
        g.add_edge(f1, f2)
        return g, s, f1, f2

    def test_fuse_linear_chain(self):
        g, s, f1, f2 = self.chain_graph()
        fused = fuse_linear_chains(g)
        assert fused == 1
        assert len(g.vertices) == 2  # source + fused op
        fused_vertex = next(v for v in g.vertices.values() if v.ir_func is not None)
        assert len(fused_vertex.ir_func.ops) == 2
        assert fused_vertex.compute_cost == pytest.approx(
            f1.compute_cost + f2.compute_cost
        )

    def test_fusion_respects_keyed_edges(self):
        g = FlowGraph()
        s = g.add_vertex("s", source_table="t", parallelism=2)
        f1 = g.add_vertex("f1", ir_func=ir_filter(), parallelism=2)
        f2 = g.add_vertex("f2", ir_func=ir_identity(), parallelism=2)
        g.add_edge(s, f1)
        g.add_edge(f1, f2, key="k")  # shuffle boundary
        assert fuse_linear_chains(g) == 0

    def test_fusion_respects_parallelism_mismatch(self):
        g = FlowGraph()
        s = g.add_vertex("s", source_table="t", parallelism=2)
        f1 = g.add_vertex("f1", ir_func=ir_filter(), parallelism=2)
        f2 = g.add_vertex("f2", ir_func=ir_identity(), parallelism=1)
        g.add_edge(s, f1)
        g.add_edge(f1, f2)
        assert fuse_linear_chains(g) == 0

    def test_prune_dead_vertices(self):
        g, s, f1, f2 = self.chain_graph()
        dead = g.add_vertex("dead", ir_func=ir_identity("dead"), parallelism=2)
        g.add_edge(s, dead)
        removed = prune_dead_vertices(g, live_sinks=[f2])
        assert removed == 1
        assert "dead" not in [v.name for v in g.vertices.values()]

    def test_fused_execution_equivalence(self, rng):
        table = RecordBatch.from_arrays(
            {"k": rng.integers(0, 4, 200), "x": rng.random(200)}
        )

        def run(graph, sink):
            rt = ServerlessRuntime(build_physical_disagg())
            outs = launch_physical_graph(rt, to_physical(graph), tables={"t": table})
            return collect_sink(rt, outs, sink)

        g1, _, _, f2 = self.chain_graph()
        plain = run(g1, f2)
        g2, _, _, f2b = self.chain_graph()
        optimize(g2)
        fused_sink = g2.sinks()[0]
        fused = run(g2, fused_sink)
        assert plain == fused


class TestPhysicalLowering:
    def test_shard_counts(self):
        g = FlowGraph()
        s = g.add_vertex("s", source_table="t", parallelism=3)
        m = g.add_vertex("m", ir_func=ir_identity(), parallelism=3)
        g.add_edge(s, m)
        pg = to_physical(g)
        assert pg.num_tasks == 6
        assert len(pg.shards_of[m.vertex_id]) == 3

    def test_keyed_edge_partitions_in_its_producer(self):
        g = FlowGraph()
        s = g.add_vertex("s", source_table="t", parallelism=3)
        r = g.add_vertex("r", ir_func=ir_identity(), parallelism=2)
        g.add_edge(s, r, key="k")
        pg = to_physical(g)
        assert {t.kind for t in pg.tasks.values()} == {"source", "compute"}
        assert pg.num_tasks == 5
        # every producer shard hash-partitions itself, one output per reduce shard
        producers = pg.shards_of[s.vertex_id]
        for pid in producers:
            assert pg.tasks[pid].num_outputs == 2
            assert pg.tasks[pid].partition_key == "k"
        # reduce shard i reads output i of every producer shard
        for task in (pg.tasks[t] for t in pg.shards_of[r.vertex_id]):
            assert task.inputs == [producers]
            assert [pg.tasks[p].output_read_by(task.shard) for p in producers] == [task.shard] * 3

    def test_keyed_edge_into_one_shard_partitions_nothing(self):
        g = FlowGraph()
        s = g.add_vertex("s", source_table="t", parallelism=3)
        r = g.add_vertex("r", ir_func=ir_identity(), parallelism=1)
        g.add_edge(s, r, key="k")
        pg = to_physical(g)
        for pid in pg.shards_of[s.vertex_id]:
            assert pg.tasks[pid].num_outputs == 1
            assert pg.tasks[pid].partition_key is None
        (reduce_task,) = (pg.tasks[t] for t in pg.shards_of[r.vertex_id])
        assert reduce_task.inputs == [pg.shards_of[s.vertex_id]]

    def test_broadcast_and_gather_inputs(self):
        g = FlowGraph()
        one = g.add_vertex("one", source_table="t", parallelism=1)
        wide = g.add_vertex("wide", ir_func=ir_identity(), parallelism=4)
        sink = g.add_vertex("sink", ir_func=ir_identity("sink"), parallelism=1)
        g.add_edge(one, wide)  # broadcast 1 -> 4
        g.add_edge(wide, sink)  # gather 4 -> 1
        pg = to_physical(g)
        for pid in pg.shards_of[wide.vertex_id]:
            assert pg.tasks[pid].inputs == [pg.shards_of[one.vertex_id]]
        sink_task = pg.tasks[pg.shards_of[sink.vertex_id][0]]
        assert sink_task.inputs == [pg.shards_of[wide.vertex_id]]

    def test_unkeyed_reshard_rejected(self):
        g = FlowGraph()
        a = g.add_vertex("a", source_table="t", parallelism=3)
        b = g.add_vertex("b", ir_func=ir_identity(), parallelism=2)
        g.add_edge(a, b)
        with pytest.raises(GraphValidationError, match="keyed edge"):
            to_physical(g)

    def test_parallelism_override_and_pins(self):
        cluster = build_physical_disagg()
        g = FlowGraph()
        s = g.add_vertex("s", source_table="t", parallelism=1)
        m = g.add_vertex("m", ir_func=ir_identity())
        g.add_edge(s, m)
        pg = to_physical(g, parallelism_overrides={m.vertex_id: 1},
                         device_pins={m.vertex_id: ["server0/cpu"]})
        task = pg.tasks[pg.shards_of[m.vertex_id][0]]
        assert task.pinned_device == "server0/cpu"

    def test_pin_count_mismatch_rejected(self):
        g = FlowGraph()
        s = g.add_vertex("s", source_table="t")
        m = g.add_vertex("m", ir_func=ir_identity(), parallelism=2)
        g.add_edge(s, m)
        with pytest.raises(GraphValidationError, match="pins"):
            to_physical(g, device_pins={m.vertex_id: ["a"]})

    def test_cost_divided_across_shards(self):
        g = FlowGraph()
        s = g.add_vertex("s", source_table="t", parallelism=4)
        m = g.add_vertex("m", ir_func=ir_identity(), parallelism=4, compute_cost=1.0)
        g.add_edge(s, m)
        pg = to_physical(g)
        for ptid in pg.shards_of[m.vertex_id]:
            assert pg.tasks[ptid].compute_cost == pytest.approx(0.25)


class TestLaunch:
    def test_sharded_source_covers_table(self, rng):
        table = RecordBatch.from_arrays(
            {"k": rng.integers(0, 5, 100), "x": rng.random(100)}
        )
        g = FlowGraph()
        s = g.add_vertex("s", source_table="t", parallelism=4)
        m = g.add_vertex("m", ir_func=ir_identity(), parallelism=4)
        g.add_edge(s, m)
        rt = ServerlessRuntime(build_physical_disagg())
        outs = launch_physical_graph(rt, to_physical(g), tables={"t": table})
        merged = collect_sink(rt, outs, m)
        assert merged.num_rows == 100
        np.testing.assert_array_equal(
            np.sort(merged.column("x")), np.sort(table.column("x"))
        )

    def test_missing_table_raises(self):
        g = FlowGraph()
        g.add_vertex("s", source_table="nope")
        rt = ServerlessRuntime(build_physical_disagg())
        with pytest.raises(KeyError, match="nope"):
            launch_physical_graph(rt, to_physical(g), tables={})

    def test_gang_launch_runs_graph(self, rng):
        table = RecordBatch.from_arrays(
            {"k": rng.integers(0, 5, 40), "x": rng.random(40)}
        )
        g = FlowGraph()
        s = g.add_vertex("s", source_table="t", parallelism=2)
        m = g.add_vertex("m", ir_func=ir_identity(), parallelism=2)
        g.add_edge(s, m)
        rt = ServerlessRuntime(build_physical_disagg())
        outs = launch_physical_graph(
            rt, to_physical(g), tables={"t": table}, gang_group="all"
        )
        merged = collect_sink(rt, outs, m)
        assert merged.num_rows == 40
