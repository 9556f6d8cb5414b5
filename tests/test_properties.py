"""Cross-cutting property-based tests (hypothesis).

These check the invariants the whole reproduction rests on:

* the runtime computes exactly what direct evaluation computes, for random
  task DAGs, under every generation/resolution configuration, and what
  ``LocalRuntime`` computes for random DAGs of tasks with several outputs;
* the simulator is deterministic: same program, same virtual trace;
* the tiered cache never loses or corrupts objects under random workloads;
* random SQL filters, and random grouped aggregates behind a filter and a
  join, agree between the distributed path and the reference interpreter.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RecordBatch, Skadi
from repro.caching import EvictionPolicy, TieredCache, TierSpec
from repro.cluster import build_physical_disagg
from repro.frontends.sql import sql_to_ir
from repro.ir import FrameType, run_function
from repro.runtime import (
    ANY_COMPUTE_KIND,
    Generation,
    LocalRuntime,
    ResolutionMode,
    RuntimeConfig,
    SchedulingPolicy,
    ServerlessRuntime,
)

# -- random task DAGs ----------------------------------------------------------


@st.composite
def dag_spec(draw):
    """A random DAG: each node adds/multiplies values of earlier nodes."""
    n = draw(st.integers(2, 10))
    nodes = []
    for i in range(n):
        op = draw(st.sampled_from(["const", "add", "mul"]))
        if i == 0 or op == "const":
            nodes.append(("const", draw(st.integers(-5, 5))))
        else:
            a = draw(st.integers(0, i - 1))
            b = draw(st.integers(0, i - 1))
            nodes.append((op, a, b))
    return nodes


def eval_dag_direct(nodes):
    values = []
    for node in nodes:
        if node[0] == "const":
            values.append(node[1])
        elif node[0] == "add":
            values.append(values[node[1]] + values[node[2]])
        else:
            values.append(values[node[1]] * values[node[2]])
    return values[-1]


def eval_dag_runtime(nodes, config):
    rt = ServerlessRuntime(build_physical_disagg(), config)
    refs = []
    for node in nodes:
        if node[0] == "const":
            refs.append(
                rt.submit(lambda v=node[1]: v, supported_kinds=ANY_COMPUTE_KIND)
            )
        elif node[0] == "add":
            refs.append(
                rt.submit(
                    lambda x, y: x + y,
                    (refs[node[1]], refs[node[2]]),
                    supported_kinds=ANY_COMPUTE_KIND,
                )
            )
        else:
            refs.append(
                rt.submit(
                    lambda x, y: x * y,
                    (refs[node[1]], refs[node[2]]),
                    supported_kinds=ANY_COMPUTE_KIND,
                )
            )
    return rt.get(refs[-1]), rt.sim.now


class TestRandomDAGs:
    @given(nodes=dag_spec())
    @settings(max_examples=30, deadline=None)
    def test_runtime_matches_direct_evaluation(self, nodes):
        expected = eval_dag_direct(nodes)
        for generation in (Generation.GEN1, Generation.GEN2):
            for resolution in (ResolutionMode.PULL, ResolutionMode.PUSH):
                config = RuntimeConfig(generation=generation, resolution=resolution)
                value, _ = eval_dag_runtime(nodes, config)
                assert value == expected, (generation, resolution)

    @given(nodes=dag_spec())
    @settings(max_examples=15, deadline=None)
    def test_virtual_time_is_deterministic(self, nodes):
        config = RuntimeConfig(
            resolution=ResolutionMode.PUSH, scheduling=SchedulingPolicy.LOCALITY
        )
        v1, t1 = eval_dag_runtime(nodes, config)
        v2, t2 = eval_dag_runtime(nodes, config)
        assert v1 == v2
        assert t1 == t2  # bit-identical virtual clocks


@st.composite
def multi_return_dag(draw):
    """A random DAG of tasks with 1-4 outputs: each task is a constant or
    reads two outputs of earlier tasks; ``(num_returns, const, a, b)`` with
    ``a``/``b`` naming ``(task, output)``."""
    nodes, outputs = [], []
    for i in range(draw(st.integers(1, 8))):
        k = draw(st.integers(1, 4))
        if not outputs or draw(st.booleans()):
            nodes.append((k, draw(st.integers(-5, 5)), None, None))
        else:
            nodes.append((k, None, draw(st.sampled_from(outputs)), draw(st.sampled_from(outputs))))
        outputs += [(i, j) for j in range(k)]
    return nodes


def spread(k, x, y):
    """``k`` values from two inputs; a bare value when ``k`` is 1."""
    values = tuple(x + j * y for j in range(1, k + 1))
    return values if k > 1 else values[0]


def eval_multi_return(runtime, nodes):
    refs = []  # per task: its output refs
    for k, const, a, b in nodes:
        args = (k, const, 1) if const is not None else (k, refs[a[0]][a[1]], refs[b[0]][b[1]])
        out = runtime.submit(spread, args, num_returns=k, supported_kinds=ANY_COMPUTE_KIND)
        refs.append(out if k > 1 else [out])
    return runtime.get([ref for outs in refs for ref in outs])


class TestRandomMultiReturnDAGs:
    @given(nodes=multi_return_dag())
    @settings(max_examples=25, deadline=None)
    def test_simulated_runtime_matches_the_local_one(self, nodes):
        with LocalRuntime(max_workers=2) as local:
            expected = eval_multi_return(local, nodes)
        for resolution in (ResolutionMode.PUSH, ResolutionMode.PULL):
            rt = ServerlessRuntime(build_physical_disagg(), RuntimeConfig(resolution=resolution))
            assert eval_multi_return(rt, nodes) == expected, resolution


# -- tiered cache invariants --------------------------------------------------------


@st.composite
def cache_workload(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "delete"]),
                st.integers(0, 9),  # key space
                st.integers(1, 120),  # object size
            ),
            min_size=1,
            max_size=60,
        )
    )
    return ops


class TestTieredCacheInvariants:
    @given(ops=cache_workload())
    @settings(max_examples=50, deadline=None)
    def test_never_corrupts_or_leaks(self, ops):
        cache = TieredCache(
            [
                TierSpec("fast", 200, 1e9, 1e9, 1e-6),
                TierSpec("slow", 100_000, 1e8, 1e8, 1e-5),
            ],
            policy=EvictionPolicy.LRU,
        )
        shadow = {}
        for op, key, size in ops:
            name = f"k{key}"
            if op == "put":
                cache.put(name, (name, size), size)
                shadow[name] = (name, size)
            elif op == "get":
                if name in shadow:
                    value, _ = cache.get(name)
                    assert value == shadow[name]
                else:
                    with pytest.raises(KeyError):
                        cache.get(name)
            else:
                cache.delete(name)
                shadow.pop(name, None)
        # nothing dropped (slow tier is big enough for the whole key space)
        assert cache.dropped == 0
        for name, expected in shadow.items():
            value, _ = cache.get(name)
            assert value == expected
        # capacity accounting is exact
        assert cache.used_bytes() == sum(s for (_, s) in shadow.values())


# -- random SQL filters --------------------------------------------------------------


@st.composite
def filter_clause(draw):
    column = draw(st.sampled_from(["k", "x"]))
    op = draw(st.sampled_from([">", "<", ">=", "<=", "=", "<>"]))
    value = draw(st.integers(0, 50))
    return f"{column} {op} {value}"


class TestRandomSQL:
    @given(clauses=st.lists(filter_clause(), min_size=1, max_size=3),
           conj=st.sampled_from(["AND", "OR"]))
    @settings(max_examples=25, deadline=None)
    def test_distributed_matches_interpreter(self, clauses, conj):
        rng = np.random.default_rng(123)
        table = RecordBatch.from_arrays(
            {
                "oid": np.arange(200, dtype=np.int64),
                "k": rng.integers(0, 50, 200),
                "x": rng.integers(0, 50, 200).astype(np.float64),
            }
        )
        where = f" {conj} ".join(clauses)
        sql = f"SELECT oid FROM t WHERE {where}"
        catalog = {
            "t": FrameType((("oid", "int64"), ("k", "int64"), ("x", "float64")))
        }
        (oracle,) = run_function(sql_to_ir(sql, catalog), tables={"t": table})
        skadi = Skadi(shards=2)
        out = skadi.sql(sql, {"t": table})
        assert sorted(out.column("oid").tolist()) == sorted(
            oracle.column("oid").tolist()
        )


# -- random grouped aggregates ---------------------------------------------------------


@st.composite
def shard_clause(draw):
    """Keeps one run of ``t``'s rows, so it can empty whole shards."""
    return f"row {draw(st.sampled_from(['<', '>=']))} {draw(st.integers(0, 200))}"


@st.composite
def grouped_query(draw):
    """GROUP BY one or two low-cardinality keys (fewer groups than shards can
    be drawn) with 1-3 aggregates over an int and a float column, ordered by
    the keys or not (a gathered aggregate comes back in key order either way),
    or a narrow select list ordered by all of itself (so ties are whole-row
    duplicates), maybe ``DISTINCT`` (a keyed edge out of a compute producer);
    optionally behind a filter, which can empty shards, and a join against a
    small table with duplicate keys whose ``x`` collides with ``t.x`` and is
    read as ``r_x``."""
    joined = draw(st.booleans())
    distinct = ""
    values = ["k", "x"] + (["r_x"] if joined else [])
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(["g", "h"]), min_size=1, max_size=2, unique=True))
        agg = st.tuples(st.sampled_from(["SUM", "MIN", "MAX", "AVG"]), st.sampled_from(values))
        aggs = draw(st.lists(agg | st.just(("COUNT", "*")), min_size=1, max_size=3))
        select = keys + [f"{fn}({column}) AS a{i}" for i, (fn, column) in enumerate(aggs)]
        tail = f" GROUP BY {', '.join(keys)}"
        if draw(st.booleans()):
            tail += f" ORDER BY {', '.join(keys)}"
    else:
        columns = ["g", "h"] + values + (["w"] if joined else [])
        select = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=2, unique=True))
        tail = f" ORDER BY {', '.join(select)}"
        distinct = draw(st.sampled_from(["", "DISTINCT "]))
    sql = f"SELECT {distinct}{', '.join(select)} FROM t"
    if joined:
        sql += " JOIN d ON g = dk"
    clauses = draw(st.lists(filter_clause() | shard_clause(), max_size=2))
    if clauses:
        sql += " WHERE " + f" {draw(st.sampled_from(['AND', 'OR']))} ".join(clauses)
    return sql + tail


class TestRandomGroupedSQL:
    @given(sql=grouped_query(), shards=st.sampled_from([1, 2, 4]),
           broadcast_threshold=st.sampled_from([0, 5_000]))
    @settings(max_examples=25, deadline=None)
    def test_distributed_matches_interpreter(self, sql, shards, broadcast_threshold):
        rng = np.random.default_rng(321)
        tables = {
            "t": RecordBatch.from_arrays(
                {
                    "g": rng.integers(0, 3, 200),
                    "h": rng.integers(0, 2, 200),
                    "k": rng.integers(0, 50, 200),
                    "x": rng.integers(0, 50, 200) + 0.5,
                    "row": np.arange(200),
                }
            ),
            # duplicate keys (0), a key of t with no match (2), a match-less key (3)
            "d": RecordBatch.from_arrays(
                {"dk": np.array([0, 3, 1, 0]), "x": np.array([2.5, 9.5, 4.5, 7.5]), "w": np.arange(4)}
            ),
        }
        catalog = {
            name: FrameType(tuple((f.name, f.dtype.name) for f in batch.schema.fields))
            for name, batch in tables.items()
        }
        (oracle,) = run_function(sql_to_ir(sql, catalog), tables=tables)
        out = Skadi(shards=shards, broadcast_threshold=broadcast_threshold).sql(sql, tables)
        assert out.schema == oracle.schema and out.num_rows == oracle.num_rows
        for name in oracle.schema.names:
            got, want = out.column(name), oracle.column(name)
            if want.dtype.kind == "f":
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0, err_msg=name)
            else:
                assert np.array_equal(got, want), name
