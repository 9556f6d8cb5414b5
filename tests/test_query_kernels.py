"""The query path's kernels against the ones they replaced (DESIGN.md,
inventory lines of ``columnar.py`` and ``kernels.py``).

* **Differential.**  The parent commit's dict-of-lists join, boolean-mask
  filter, build-all-partitions split and group-by-group aggregate are kept
  here and are the reference: on seeded random batches the numpy kernels must
  give the same rows **in the same order** with the same dtypes — except where
  the old aggregate mistyped an empty result, which is the bug fixed.
* **Fast paths.**  A top-n sort, a radix-sorted group order and a
  direct-address join lookup must give what the general path (a full
  lexsort, ``np.searchsorted``) and the loop references give, on the inputs
  where such paths go wrong: narrow dtypes at their bounds, uint64 against
  negative int64 keys, spans at the cut-offs, ties, NaN and -0.0.  The
  paths that skip a sort or a copy are held to the loop references on the
  same kind of inputs: the direct-address aggregate (``bincount``; float sums
  within a reassociation's tolerance), the join on distinct build keys, and
  a fused chain of ``where`` steps, which must not evaluate a predicate on a
  row an earlier one excluded and must gather each column it outputs once.
* **An aggregate has the dtype the IR declares**, also over no rows, through
  the distributed path (where partitions outnumber groups) and the interpreter.
* **Cross-commit witness.**  Plan size, virtual cost and a digest of the rows
  of the four ledger queries: the rows recorded before the numpy kernels, the
  bytes since column pruning, the plan size and virtual cost since a gathered
  aggregate runs in two phases (see ``WITNESS``).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from typing import Any, Dict, List

import numpy as np
import pytest

from repro import RecordBatch, Skadi
from repro.bench.workloads import customers_table, lineitem_like_table, orders_table
from repro.cluster import build_physical_disagg
from repro.flowgraph import FlowGraph, launch_physical_graph, to_physical
from repro.frontends.sql import sql_to_ir
from repro.ir import FrameType, hash_partition, run_function
from repro.ir.dialects.kernel import FusedStep
from repro.ir.expr import Expr, col
from repro.ir.interpreter import _execute_fused
from repro.ir.kernels import (
    HANDCRAFTED,
    _dense_aggregate,
    _group_code,
    _group_order,
    _heads_by_address,
    _heads_by_search,
    _sort_order,
    k_aggregate,
    k_distinct,
    k_join,
    k_limit,
    k_project,
    k_sort,
)
from repro.ir.lowering import optimize_and_lower
from repro.runtime import ServerlessRuntime

BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

from ledger.workloads import QUERIES  # noqa: E402

SEEDS = range(6)


# -- the reference: the parent commit's kernels ---------------------------------


def ref_filter(batch: RecordBatch, mask: np.ndarray) -> RecordBatch:
    return RecordBatch(batch.schema, [batch.column(n)[mask] for n in batch.schema.names])


def ref_hash_partition(batch: RecordBatch, column: str, num_partitions: int) -> List[RecordBatch]:
    keys = batch.column(column)
    buckets = np.abs((keys.astype(np.int64) * np.int64(2654435761)) % num_partitions)
    return [ref_filter(batch, buckets == p) for p in range(num_partitions)]


def ref_join(attrs: Dict[str, Any], left: RecordBatch, right: RecordBatch) -> RecordBatch:
    left_on, right_on = attrs["left_on"], attrs["right_on"]
    index: Dict[Any, List[int]] = {}
    for i, key in enumerate(right.column(right_on).tolist()):
        index.setdefault(key, []).append(i)
    left_idx: List[int] = []
    right_idx: List[int] = []
    for i, key in enumerate(left.column(left_on).tolist()):
        for j in index.get(key, ()):
            left_idx.append(i)
            right_idx.append(j)
    li = np.asarray(left_idx, dtype=np.int64)
    ri = np.asarray(right_idx, dtype=np.int64)
    cols: Dict[str, np.ndarray] = {}
    for name in left.schema.names:
        cols[name] = left.column(name)[li]
    for name in right.schema.names:
        if name == right_on:
            continue
        cols[name if name not in cols else f"r_{name}"] = right.column(name)[ri]
    return RecordBatch.from_arrays(cols)


_REF_AGG = {"sum": np.sum, "count": len, "mean": np.mean, "min": np.min, "max": np.max}


def _ref_empty_agg(fn: str) -> Any:
    if fn == "count":
        return 0
    if fn == "sum":
        return 0.0
    raise ValueError(f"aggregate {fn!r} of an empty frame is undefined")


def ref_aggregate(attrs: Dict[str, Any], batch: RecordBatch) -> RecordBatch:
    keys = list(attrs.get("keys", ()))
    aggs = list(attrs["aggs"])
    if not keys:
        cols: Dict[str, np.ndarray] = {}
        for out_name, fn, colname in aggs:
            source = batch.column(colname if fn != "count" else batch.schema.names[0])
            value = _REF_AGG[fn](source) if batch.num_rows else _ref_empty_agg(fn)
            cols[out_name] = np.asarray([value], dtype=np.int64 if fn == "count" else None)
        return RecordBatch.from_arrays(cols)
    key_arrays = [batch.column(k) for k in keys]
    order = np.lexsort(key_arrays[::-1])
    sorted_keys = [arr[order] for arr in key_arrays]
    if batch.num_rows == 0:
        boundaries = np.asarray([], dtype=np.int64)
    else:
        changed = np.zeros(batch.num_rows, dtype=bool)
        changed[0] = True
        for arr in sorted_keys:
            changed[1:] |= arr[1:] != arr[:-1]
        boundaries = np.flatnonzero(changed)
    cols = {k: arr[boundaries] for k, arr in zip(keys, sorted_keys, strict=True)}
    group_slices = list(zip(boundaries, list(boundaries[1:]) + [batch.num_rows], strict=False))
    for out_name, fn, colname in aggs:
        if fn == "count":
            cols[out_name] = np.asarray([b - a for a, b in group_slices], dtype=np.int64)
            continue
        source = batch.column(colname)[order]
        cols[out_name] = np.asarray([_REF_AGG[fn](source[a:b]) for a, b in group_slices])
    return RecordBatch.from_arrays(cols)


# -- comparing ------------------------------------------------------------------


def assert_same_rows(got: RecordBatch, want: RecordBatch) -> None:
    """Same schema (names, order, dtypes) and the same rows in the same order,
    bit for bit: what a kernel that only *moves* rows must preserve."""
    assert got.schema == want.schema
    assert got.num_rows == want.num_rows
    for name in want.schema.names:
        assert got.column(name).tobytes() == want.column(name).tobytes(), name


def assert_same_aggregates(got: RecordBatch, want: RecordBatch, rows: int) -> None:
    """Same groups in the same order; integer results exact; float results
    within the bound a re-ordered sum of ``rows`` same-signed terms can move."""
    assert got.schema == want.schema
    assert got.num_rows == want.num_rows
    for field in want.schema.fields:
        a, b = got.column(field.name), want.column(field.name)
        if field.dtype.kind == "f":
            rtol = max(rows, 1) * float(np.finfo(field.dtype).eps)
            np.testing.assert_allclose(a, b, rtol=rtol, atol=0.0, equal_nan=True, err_msg=field.name)
        else:
            assert np.array_equal(a, b), field.name


# -- filter and split -----------------------------------------------------------


def random_batch(rng: np.random.Generator, rows: int) -> RecordBatch:
    return RecordBatch.from_arrays(
        {
            "k": rng.integers(-40, 40, rows),
            "k32": rng.integers(0, 9, rows).astype(np.int32),
            "f": np.round(rng.random(rows) * 20 - 10, 1),
            "flag": rng.random(rows) < 0.3,
            "x": rng.random(rows),
            "row": np.arange(rows, dtype=np.int64),
        }
    )


class TestFilter:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_boolean_mask_indexing(self, seed):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, int(rng.integers(0, 400)))
        for share in (0.0, 0.05, 0.5, 1.0):
            mask = rng.random(batch.num_rows) < share
            assert_same_rows(batch.filter(mask), ref_filter(batch, mask))

    def test_mask_is_still_validated(self, small_batch):
        with pytest.raises(ValueError, match="boolean array matching num_rows"):
            small_batch.filter(np.array([1, 0, 1, 0, 1]))  # the indices 1,0,1,0,1 otherwise
        with pytest.raises(ValueError, match="boolean array matching num_rows"):
            small_batch.filter(np.array([True, False]))
        with pytest.raises(ValueError, match="boolean array matching num_rows"):
            small_batch.filter(np.ones(6, dtype=bool))

    def test_a_list_mask_is_accepted_as_before(self, small_batch):
        out = small_batch.filter([True, False, False, True, False])
        assert out.to_pydict() == {"k": [0, 1], "x": [1.0, 4.0]}


class TestColumnLookup:
    def test_by_name_and_unknown(self, small_batch):
        assert small_batch.column("x") is small_batch.columns()["x"]
        with pytest.raises(KeyError) as err:
            small_batch.column("nope")
        assert err.value.args == ("no column 'nope'; have ['k', 'x']",)


class TestHashPartition:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("column", ["k", "k32", "f", "flag"])
    def test_matches_build_all(self, seed, column):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, int(rng.integers(0, 400)))
        for n in (1, 2, 3, 4, 7):
            want = ref_hash_partition(batch, column, n)
            got = hash_partition(batch, column, n)
            assert len(got) == n
            for i in range(n):
                assert_same_rows(got[i], want[i])
            assert sum(p.num_rows for p in got) == batch.num_rows

    def test_bad_arguments_still_raise(self, small_batch):
        with pytest.raises(ValueError, match=">= 1 partitions"):
            hash_partition(small_batch, "k", 0)
        with pytest.raises(KeyError, match="no column 'nope'"):
            hash_partition(small_batch, "nope", 2)

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_one_producer_task_gives_every_partition(self, n):
        """A keyed edge into n shards partitions in its producer: one source
        task with n outputs, and consumer shard i reads output i: partition
        i, row for row."""
        batch = random_batch(np.random.default_rng(n), 300)
        graph = FlowGraph()
        source = graph.add_vertex("t", source_table="t")
        sink = graph.add_vertex("read", py_func=lambda part: part, parallelism=n)
        graph.add_edge(source, sink, key="k")
        pgraph = to_physical(graph)
        (producer,) = [pgraph.tasks[pid] for pid in pgraph.shards_of[source.vertex_id]]
        assert producer.num_outputs == n and pgraph.num_tasks == 1 + n
        rt = ServerlessRuntime(build_physical_disagg())
        outputs = launch_physical_graph(rt, pgraph, tables={"t": batch})
        parts = rt.get(outputs[sink.vertex_id])
        assert rt.tasks_finished == 1 + n
        for got, want in zip(parts, hash_partition(batch, "k", n), strict=True):
            assert_same_rows(got, want)


# -- join -----------------------------------------------------------------------

ON = {"left_on": "lk", "right_on": "rk"}


def join_sides(rng: np.random.Generator, probe_keys: np.ndarray, build_keys: np.ndarray):
    left = RecordBatch.from_arrays(
        {"lk": probe_keys, "row": np.arange(len(probe_keys)), "v": rng.random(len(probe_keys))}
    )
    right = RecordBatch.from_arrays(
        {
            "rk": build_keys,
            "row": np.arange(len(build_keys)) * 10,  # collides: comes out as r_row
            "w": rng.integers(0, 5, len(build_keys)).astype(np.int32),
        }
    )
    return left, right


class TestJoin:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_duplicate_missing_and_unsorted_build_keys(self, seed):
        rng = np.random.default_rng(seed)
        # build keys: unsorted, with duplicates, and holes the probe falls into
        build = rng.choice(np.arange(0, 60, 2), size=int(rng.integers(1, 80)))
        probe = rng.integers(-5, 65, int(rng.integers(1, 300)))
        left, right = join_sides(rng, probe, build)
        got = k_join(ON, left, right)
        assert_same_rows(got, ref_join(ON, left, right))
        assert got.schema.names == ["lk", "row", "v", "r_row", "w"]

    @pytest.mark.parametrize("probe_rows,build_rows", [(0, 7), (7, 0), (0, 0)])
    def test_empty_sides(self, probe_rows, build_rows):
        rng = np.random.default_rng(1)
        left, right = join_sides(
            rng, rng.integers(0, 4, probe_rows), rng.integers(0, 4, build_rows)
        )
        got = k_join(ON, left, right)
        assert got.num_rows == 0
        assert_same_rows(got, ref_join(ON, left, right))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_probe_order_then_build_order(self, seed):
        rng = np.random.default_rng(seed)
        left, right = join_sides(rng, rng.integers(0, 6, 50), rng.integers(0, 6, 40))
        got = k_join(ON, left, right)
        pairs = list(zip(got.column("row").tolist(), got.column("r_row").tolist(), strict=True))
        assert pairs == sorted(pairs)  # both "row" columns ascend with the input position
        assert_same_rows(got, ref_join(ON, left, right))

    @pytest.mark.parametrize("probe_dtype,build_dtype", [
        (np.int32, np.int64), (np.int64, np.int32), (np.int64, np.uint8),
        (np.int64, np.float64), (np.float64, np.int64), (np.float32, np.int64),
    ])
    def test_mixed_key_types_compare_by_value(self, probe_dtype, build_dtype):
        rng = np.random.default_rng(3)
        left, right = join_sides(
            rng,
            rng.integers(0, 12, 120).astype(probe_dtype),
            rng.integers(0, 12, 30).astype(build_dtype),
        )
        got = k_join(ON, left, right)
        assert got.num_rows > 120  # duplicates on the build side fan out
        assert_same_rows(got, ref_join(ON, left, right))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_float_keys_nan_matches_nothing_and_zeros_match_each_other(self, seed):
        rng = np.random.default_rng(seed)
        pool = np.array([np.nan, 0.0, -0.0, 1.5, -2.25, np.inf, -np.inf, 7.0])
        left, right = join_sides(rng, rng.choice(pool, 60), rng.choice(pool, 25))
        got = k_join(ON, left, right)
        assert_same_rows(got, ref_join(ON, left, right))
        assert not np.isnan(got.column("lk")).any()
        zeros = (left.column("lk") == 0).sum() * (right.column("rk") == 0).sum()
        assert (got.column("lk") == 0).sum() == zeros > 0

    def test_bool_keys(self):
        rng = np.random.default_rng(5)
        left, right = join_sides(rng, rng.random(40) < 0.5, rng.random(9) < 0.5)
        assert_same_rows(k_join(ON, left, right), ref_join(ON, left, right))
        ints = RecordBatch.from_arrays({"rk": np.array([1, 0, 1, 2]), "w": np.arange(4)})
        assert_same_rows(k_join(ON, left, ints), ref_join(ON, left, ints))


# -- aggregate ------------------------------------------------------------------

AGGS = [
    ("n", "count", None),
    ("si", "sum", "i"), ("mi", "min", "i"), ("xi", "max", "i"), ("ai", "mean", "i"),
    ("sf", "sum", "f"), ("mf", "min", "f"), ("xf", "max", "f"), ("af", "mean", "f"),
    ("sb", "sum", "b"), ("mb", "min", "b"), ("ab", "mean", "b"),
    ("s32", "sum", "i32"), ("x32", "max", "i32"),
]


def agg_batch(rng: np.random.Generator, rows: int, groups: int) -> RecordBatch:
    return RecordBatch.from_arrays(
        {
            "g": rng.integers(0, max(groups, 1), rows),
            "h": rng.choice(np.array([0.5, -0.0, 0.0, 3.0]), rows),
            "i": rng.integers(-1000, 1000, rows),
            "f": rng.random(rows) * 100,  # same-signed: the float tolerance is relative
            "b": rng.random(rows) < 0.4,
            "i32": rng.integers(0, 50, rows).astype(np.int32),
        }
    )


class TestAggregate:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("keys", [["g"], ["g", "h"], ["h"], []])
    def test_matches_group_by_group_reduction(self, seed, keys):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 500))
        batch = agg_batch(rng, rows, groups=int(rng.integers(1, 40)))
        attrs = {"keys": keys, "aggs": AGGS}
        assert_same_aggregates(k_aggregate(attrs, batch), ref_aggregate(attrs, batch), rows)

    def test_many_small_groups_and_one_big_one(self):
        rng = np.random.default_rng(9)
        batch = agg_batch(rng, 3000, groups=2500)
        attrs = {"keys": ["g"], "aggs": AGGS}
        assert_same_aggregates(k_aggregate(attrs, batch), ref_aggregate(attrs, batch), 3000)
        one = RecordBatch.from_arrays({**batch.columns(), "g": np.zeros(3000, dtype=np.int64)})
        assert_same_aggregates(k_aggregate(attrs, one), ref_aggregate(attrs, one), 3000)

    def test_nan_keys_and_nan_values(self):
        batch = RecordBatch.from_arrays(
            {
                "g": np.array([1.0, np.nan, 1.0, np.nan, 2.0]),
                "f": np.array([1.0, 2.0, np.nan, 4.0, 5.0]),
            }
        )
        attrs = {"keys": ["g"], "aggs": [("s", "sum", "f"), ("m", "min", "f"), ("n", "count", None)]}
        got = k_aggregate(attrs, batch)
        assert_same_aggregates(got, ref_aggregate(attrs, batch), 5)
        assert got.column("n").tolist() == [2, 1, 1, 1]  # each NaN key is its own group

    def test_sum_of_bools_counts(self):
        batch = RecordBatch.from_arrays(
            {"g": np.array([0, 0, 0, 1]), "b": np.array([True, True, True, False])}
        )
        got = k_aggregate({"keys": ["g"], "aggs": [("s", "sum", "b")]}, batch)
        assert got.column("s").dtype == np.int64 and got.column("s").tolist() == [3, 0]
        got = k_aggregate({"keys": [], "aggs": [("s", "sum", "b")]}, batch)
        assert got.column("s").dtype == np.int64 and got.column("s").tolist() == [3]

    @pytest.mark.parametrize("keys", [["g"], ["g", "h"], []])
    def test_no_rows_gives_the_dtypes_that_rows_give(self, keys):
        rng = np.random.default_rng(2)
        batch = agg_batch(rng, 20, groups=3)
        attrs = {"keys": keys, "aggs": [a for a in AGGS if a[1] in ("sum", "count")]}
        full, empty = k_aggregate(attrs, batch), k_aggregate(attrs, batch.slice(0, 0))
        assert empty.schema == full.schema
        assert empty.num_rows == (0 if keys else 1)
        if not keys:
            assert all(v == [0] for v in empty.to_pydict().values())
        # the reference chose float64 for every sum of nothing: the bug
        assert ref_aggregate(attrs, batch.slice(0, 0)).schema.field("si").dtype == np.float64

    def test_mean_is_float64_as_declared(self):
        batch = RecordBatch.from_arrays(
            {"g": np.array([0, 0, 1]), "f32": np.array([1.0, 2.0, 4.0], dtype=np.float32)}
        )
        for keys in (["g"], []):
            got = k_aggregate({"keys": keys, "aggs": [("a", "mean", "f32"), ("s", "sum", "f32")]}, batch)
            assert got.schema.field("a").dtype == np.float64
            assert got.schema.field("s").dtype == np.float32
        assert got.column("a").tolist() == [7.0 / 3.0]

    @pytest.mark.parametrize("fn", ["min", "max", "mean"])
    def test_keyless_min_max_mean_of_nothing_stay_a_typed_error(self, fn):
        empty = agg_batch(np.random.default_rng(0), 0, groups=1)
        with pytest.raises(ValueError, match=f"aggregate '{fn}' of an empty frame is undefined"):
            k_aggregate({"keys": [], "aggs": [("out", fn, "i")]}, empty)
        # with keys there is no group to be undefined for
        assert k_aggregate({"keys": ["g"], "aggs": [("out", fn, "i")]}, empty).num_rows == 0


# -- fast paths against the general path and the loop references ----------------


def ref_sort_rows(keys: List[np.ndarray], ascending: bool) -> List[int]:
    """Row positions in key order by Python's stable sort: NaN after every
    number, -0.0 equal to 0.0, and descending the ascending order reversed."""
    columns = [k.tolist() for k in keys]

    def key(i):  # NaN as (1, 0): equal to each other, so the next key decides
        return tuple((1, 0) if v != v else (0, v) for v in (c[i] for c in columns))

    rows = sorted(range(len(keys[0])), key=key)
    return rows[::-1] if not ascending else rows


def ref_distinct(batch: RecordBatch) -> RecordBatch:
    seen, first = set(), []
    columns = [batch.column(n).tolist() for n in batch.schema.names]
    for i, row in enumerate(zip(*columns)):
        if row not in seen:
            seen.add(row)
            first.append(i)
    return batch.take(np.asarray(first, dtype=np.intp))


def sort_batch(rng: np.random.Generator, rows: int, first: np.ndarray) -> RecordBatch:
    """A first sort key drawn from ``first`` (so ties are many), then two
    tie-breakers with ties of their own, and the row position."""
    return RecordBatch.from_arrays({
        "a": rng.choice(first, rows),
        "b": rng.integers(0, 3, rows).astype(np.int8),
        "c": rng.choice(np.array([0.5, -0.0, 0.0, np.nan]), rows),
        "row": np.arange(rows, dtype=np.int64),
    })


FIRST_KEYS = {
    "int": np.arange(-4, 5),
    "float": np.array([-1.5, -0.0, 0.0, 2.0, 2.0, 7.25]),
    "nan": np.array([np.nan, 1.0, -0.0, 0.0, np.nan, 3.0]),
    "bool": np.array([False, True]),
    "uint8": np.array([0, 1, 254, 255], dtype=np.uint8),
}


class TestTopN:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("first", sorted(FIRST_KEYS))
    @pytest.mark.parametrize("by", [("a",), ("a", "b"), ("a", "c", "b")])
    @pytest.mark.parametrize("ascending", [True, False])
    def test_is_the_full_sort_cut(self, seed, first, by, ascending):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 200))
        batch = sort_batch(rng, rows, FIRST_KEYS[first])
        keys = [batch.column(name) for name in by]
        full = k_sort({"by": by, "ascending": ascending}, batch)
        want_rows = ref_sort_rows(keys, ascending)
        assert full.column("row").tolist() == want_rows
        # 0, 1, a cut through a run of ties (few distinct first keys), all, more
        for n in sorted({0, 1, 2, rows // 3, rows // 2, rows - 1, rows, rows + 5}):
            got = k_sort({"by": by, "ascending": ascending, "limit": n}, batch)
            assert_same_rows(got, k_limit({"n": n}, full))
            assert got.column("row").tolist() == want_rows[:n]

    def test_a_nan_nth_value_takes_the_full_sort(self):
        keys = [np.array([np.nan, 1.0, np.nan, 0.0, np.nan])]
        # ascending the third value is NaN; descending NaN comes first
        assert _sort_order(keys, True, 3).tolist() == [3, 1, 0]
        assert _sort_order(keys, False, 2).tolist() == [4, 2]
        assert _sort_order(keys, False, 4).tolist() == [4, 2, 0, 1]

    def test_plus_and_minus_zero_tie_in_row_order(self):
        keys = [np.array([0.0, -0.0, 1.0, -0.0, 0.0])]
        assert _sort_order(keys, True, 3).tolist() == [0, 1, 3]
        assert _sort_order(keys, False, 3).tolist() == [2, 4, 3]

    def test_a_non_numeric_first_key_takes_the_full_sort(self):
        keys = [np.array(["b", "a", "c", "a"]), np.arange(4)]
        assert _sort_order(keys, True, 2).tolist() == [1, 3]
        assert _sort_order(keys, False, 2).tolist() == [2, 0]

    def test_handcrafted_top_k_is_the_descending_top_n(self):
        rng = np.random.default_rng(4)
        batch = sort_batch(rng, 120, FIRST_KEYS["int"])
        for k in (0, 1, 7, 120, 130):
            got = HANDCRAFTED["misc.top_k"](batch, "a", k)
            assert_same_rows(got, k_sort({"by": ("a",), "ascending": False, "limit": k}, batch))
        with pytest.raises(ValueError, match="k >= 0"):
            HANDCRAFTED["misc.top_k"](batch, "a", -1)


def general_group_order(key_arrays: List[np.ndarray]):
    """The general path on the same keys: as float64 no key has a group code."""
    as_float = [arr.astype(np.float64) for arr in key_arrays]
    assert _group_code(as_float) is None
    return _group_order(as_float)


class TestGroupOrder:
    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int64, np.uint64])
    def test_narrow_dtypes_at_their_bounds(self, dtype):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(int(info.bits))
        # the 256 values at the top and the bottom of the dtype's range
        values = np.concatenate([
            np.arange(int(info.min), int(info.min) + 128, dtype=object),
            np.arange(int(info.max) - 127, int(info.max) + 1, dtype=object),
        ]).astype(dtype)
        keys = [rng.choice(values, 900), rng.random(900) < 0.5]
        if info.bits > 8:  # the two ends are far apart: one key alone spans too much
            assert _group_code(keys) is None
            keys = [rng.choice(values[:128], 900), keys[1]]
        assert _group_code(keys) is not None
        order, starts = _group_order(keys)
        assert order.tolist() == np.lexsort(keys[::-1]).tolist()
        if info.bits <= 16:  # float64 holds every value exactly
            want_order, want_starts = general_group_order(keys)
            assert (order.tolist(), starts.tolist()) == (want_order.tolist(), want_starts.tolist())
        batch = RecordBatch.from_arrays({"g": keys[0], "h": keys[1], "i": rng.integers(0, 9, 900)})
        attrs = {"keys": ["g", "h"], "aggs": [("n", "count", None), ("s", "sum", "i")]}
        assert_same_aggregates(k_aggregate(attrs, batch), ref_aggregate(attrs, batch), 900)

    @pytest.mark.parametrize("spans,fast", [
        ((1 << 16,), True), (((1 << 16) + 1,), False),
        ((256, 256), True), ((256, 257), False), ((2, 2, 2), True),
    ])
    def test_the_sixteen_bit_cut_off(self, spans, fast):
        rng = np.random.default_rng(len(spans))
        keys = []
        for span in spans:
            column = rng.integers(0, span, 500)
            column[:2] = (0, span - 1)  # the span is exactly ``span``
            keys.append(column)
        assert (_group_code(keys) is not None) == fast
        order, starts = _group_order(keys)
        want_order, want_starts = general_group_order(keys)
        assert (order.tolist(), starts.tolist()) == (want_order.tolist(), want_starts.tolist())

    def test_bool_keys_and_empty_frames(self):
        rng = np.random.default_rng(8)
        batch = agg_batch(rng, 300, groups=5)
        attrs = {"keys": ["b", "g"], "aggs": AGGS}
        assert _group_code([batch.column("b"), batch.column("g")]) is not None
        assert_same_aggregates(k_aggregate(attrs, batch), ref_aggregate(attrs, batch), 300)
        empty = batch.slice(0, 0)
        assert _group_code([empty.column("b")]) is None
        assert k_aggregate(attrs, empty).schema == k_aggregate(attrs, batch).schema
        assert k_aggregate(attrs, empty).num_rows == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_distinct_keeps_first_occurrences(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(0, 300))
        ints = RecordBatch.from_arrays({
            "a": rng.integers(-128, 128, rows).astype(np.int8),
            "b": rng.random(rows) < 0.5,
            "c": rng.integers(0, 3, rows).astype(np.uint16),
        })
        assert rows == 0 or _group_code([ints.column(n) for n in ints.schema.names]) is not None
        assert_same_rows(k_distinct({}, ints), ref_distinct(ints))
        mixed = RecordBatch.from_arrays({**ints.columns(), "f": rng.choice([0.0, -0.0, 1.5], rows)})
        got = k_distinct({}, mixed)
        assert got.num_rows == ref_distinct(mixed).num_rows
        assert got.column("a").tobytes() == ref_distinct(mixed).column("a").tobytes()


def assert_same_heads(sorted_build: np.ndarray, probe: np.ndarray) -> None:
    starts = np.flatnonzero(np.r_[True, sorted_build[1:] != sorted_build[:-1]])
    got = _heads_by_address(sorted_build, starts, probe)
    assert got is not None
    assert got.tolist() == _heads_by_search(sorted_build, probe).tolist()


class TestDirectAddressJoin:
    @pytest.mark.parametrize("probe_dtype,build_dtype", [
        (np.int8, np.int8), (np.int8, np.int64), (np.int64, np.int8),
        (np.uint8, np.int8), (np.int8, np.uint8), (np.int16, np.int8),
    ])
    def test_narrow_dtypes_at_their_bounds(self, probe_dtype, build_dtype):
        rng = np.random.default_rng(1)

        def draw(dtype, rows):  # from -128...255, as far as the dtype holds them
            info = np.iinfo(dtype)
            pool = np.arange(max(-128, info.min), min(255, info.max) + 1)
            return rng.choice(pool, rows).astype(dtype)

        left, right = join_sides(rng, draw(probe_dtype, 500), draw(build_dtype, 300))
        assert_same_rows(k_join(ON, left, right), ref_join(ON, left, right))
        assert_same_heads(np.sort(right.column("rk"), kind="stable"), left.column("lk"))

    def test_uint64_above_int64_never_matches_a_negative_key(self):
        rng = np.random.default_rng(2)
        build = np.array([-3, -2, -1, 0, 1, 2, -1], dtype=np.int64)
        probe = np.array(
            [2**64 - 1, 2**64 - 2, 2**63, 2**63 + 1, 0, 1, 2, 3], dtype=np.uint64
        )  # as int64 the first two would be -1 and -2
        left, right = join_sides(rng, probe, build)
        got = k_join(ON, left, right)
        assert_same_rows(got, ref_join(ON, left, right))
        assert sorted(got.column("lk").tolist()) == [0, 1, 2]
        assert_same_heads(np.sort(build, kind="stable"), probe)
        # and the other way round: a uint64 build above 2**63, an int64 probe
        high = np.array([2**63 + 5, 2**63 + 1, 2**63 + 5], dtype=np.uint64)
        signed = np.array([-1, 1, 5, 2**62], dtype=np.int64)
        left, right = join_sides(rng, signed, high)
        assert k_join(ON, left, right).num_rows == 0 == ref_join(ON, left, right).num_rows
        assert_same_heads(np.sort(high, kind="stable"), signed)

    @pytest.mark.parametrize("extra,dense", [(0, True), (1, False)])
    def test_spans_at_the_cut_off(self, extra, dense):
        rng = np.random.default_rng(3)
        rows = 50
        build = rng.integers(0, 4 * rows + extra, rows)
        build[:2] = (0, 4 * rows - 1 + extra)  # spans 4 slots per row, or one more
        probe = rng.integers(-3, 4 * rows + 3, 400)
        left, right = join_sides(rng, probe, build)
        sorted_build = np.sort(build, kind="stable")
        starts = np.flatnonzero(np.r_[True, sorted_build[1:] != sorted_build[:-1]])
        assert (_heads_by_address(sorted_build, starts, probe) is not None) == dense
        assert_same_rows(k_join(ON, left, right), ref_join(ON, left, right))

    def test_bool_keys_and_empty_sides(self):
        rng = np.random.default_rng(4)
        flags = rng.random(40) < 0.5
        assert_same_heads(np.sort(rng.random(9) < 0.5), flags)
        assert_same_heads(np.array([0, 1, 1, 2]), flags)
        assert_same_heads(np.array([0, 1, 1, 2]), np.zeros(0, dtype=np.int64))
        assert _heads_by_address(np.zeros(0, dtype=np.int64), np.zeros(0, np.intp), flags) is None
        left, right = join_sides(rng, flags, np.array([True, True, False]))
        assert_same_rows(k_join(ON, left, right), ref_join(ON, left, right))

    def test_float_keys_take_the_search(self):
        build = np.array([0.0, 1.0, 2.0])
        starts = np.arange(3)
        assert _heads_by_address(build, starts, np.array([1, 2])) is None
        assert _heads_by_address(build.astype(np.int64), starts, np.array([1.0])) is None


# -- a dense aggregate, a unique-key join and a where-chain ---------------------

DENSE_AGGS = [("n", "count", None), ("s", "sum", "f"), ("a", "mean", "f"), ("s32", "sum", "f32")]


def dense_batch(rng: np.random.Generator, keys: Dict[str, np.ndarray]) -> RecordBatch:
    rows = len(next(iter(keys.values())))
    f = rng.random(rows) * 100  # same-signed: the float tolerance is relative
    return RecordBatch.from_arrays({**keys, "f": f, "f32": f.astype(np.float32), "i": rng.integers(-9, 9, rows)})


def is_dense(attrs: Dict[str, Any], batch: RecordBatch) -> bool:
    keys = list(attrs["keys"])
    dense = _dense_aggregate(keys, [batch.column(k) for k in keys], attrs["aggs"], False, batch)
    return dense is not None


class TestDenseAggregate:
    @pytest.mark.parametrize("spans,dense", [((256, 256), True), ((256, 257), False), ((1 << 16,), True)])
    def test_span_products_at_the_cut_off(self, spans, dense):
        rng = np.random.default_rng(len(spans))
        keys = {}
        for i, span in enumerate(spans):
            column = rng.integers(0, span, 3000)
            column[:2] = (0, span - 1)  # the span is exactly ``span``
            keys[f"k{i}"] = column
        batch = dense_batch(rng, keys)
        attrs = {"keys": list(keys), "aggs": DENSE_AGGS}
        assert is_dense(attrs, batch) == dense
        assert_same_aggregates(k_aggregate(attrs, batch), ref_aggregate(attrs, batch), 3000)

    @pytest.mark.parametrize("dtype", [np.bool_, np.int8, np.uint64])
    def test_keys_at_their_bounds(self, dtype):
        rng = np.random.default_rng(7)
        if dtype is np.bool_:
            pool = np.array([False, True])
        else:  # the lowest and the highest values the dtype holds, 128 of each
            info = np.iinfo(dtype)
            ends = (int(info.min), int(info.max) - 127) if info.bits == 8 else (int(info.max) - 255,) * 2
            pool = np.concatenate([np.arange(e, e + 128, dtype=object) for e in ends]).astype(dtype)
        batch = dense_batch(rng, {"g": rng.choice(pool, 900), "h": rng.random(900) < 0.5})
        for keys in (["g"], ["g", "h"], ["h", "g"]):
            attrs = {"keys": keys, "aggs": DENSE_AGGS}
            assert is_dense(attrs, batch)
            got = k_aggregate(attrs, batch)
            assert got.schema.field("g").dtype == np.dtype(dtype)
            assert_same_aggregates(got, ref_aggregate(attrs, batch), 900)
        assert set(got.column("g").tolist()) == set(batch.column("g").tolist())

    def test_float32_sums_and_partial_means(self):
        rng = np.random.default_rng(3)
        batch = dense_batch(rng, {"g": rng.integers(0, 7, 5000)})
        f64 = RecordBatch.from_arrays({**batch.columns(), "f32": batch.column("f32").astype(np.float64)})
        partial = {"keys": ["g"], "aggs": [("s32", "sum", "f32"), ("a32", "mean", "f32")], "partial": True}
        assert is_dense(partial, batch)
        got = k_aggregate(partial, batch)
        assert got.schema.field("s32").dtype == np.float32
        assert got.schema.field("a32").dtype == np.float64
        # a partial mean stops at the float64 sum of the float32 values
        want = ref_aggregate({"keys": ["g"], "aggs": [("a32", "sum", "f32")]}, f64)
        np.testing.assert_allclose(got.column("a32"), want.column("a32"), rtol=5000 * np.finfo(np.float64).eps)
        sums = ref_aggregate({"keys": ["g"], "aggs": [("s32", "sum", "f32")]}, batch)
        np.testing.assert_allclose(got.column("s32"), sums.column("s32"), rtol=5000 * np.finfo(np.float32).eps)

    def test_nan_and_negative_zero_values(self):
        g = np.array([0, 0, 1, 1, 2, 2, 3, 3, 3])
        f = np.array([1.0, np.nan, -0.0, -0.0, 0.0, -0.0, 2.5, -0.0, 4.0])
        batch = RecordBatch.from_arrays({"g": g, "f": f, "f32": f.astype(np.float32)})
        attrs = {"keys": ["g"], "aggs": DENSE_AGGS}
        assert is_dense(attrs, batch)
        got = k_aggregate(attrs, batch)
        assert_same_aggregates(got, ref_aggregate(attrs, batch), len(g))
        assert np.isnan(got.column("s")[0]) and np.isnan(got.column("a")[0])
        assert got.column("s").tolist()[1:] == [0.0, 0.0, 6.5]  # -0.0 == 0.0
        assert got.column("n").tolist() == [2, 2, 2, 3]

    @pytest.mark.parametrize("extra", [("m", "min", "f"), ("x", "max", "f"), ("si", "sum", "i"), ("ai", "mean", "i")])
    def test_anything_else_takes_the_general_path(self, extra):
        rng = np.random.default_rng(5)
        batch = dense_batch(rng, {"g": rng.integers(0, 30, 800)})
        attrs = {"keys": ["g"], "aggs": DENSE_AGGS + [extra]}
        assert not is_dense(attrs, batch)
        assert is_dense({"keys": ["g"], "aggs": DENSE_AGGS}, batch)
        assert_same_aggregates(k_aggregate(attrs, batch), ref_aggregate(attrs, batch), 800)

    def test_float_keys_and_no_rows_take_the_general_path(self):
        rng = np.random.default_rng(6)
        batch = dense_batch(rng, {"g": rng.integers(0, 5, 100).astype(np.float64)})
        attrs = {"keys": ["g"], "aggs": DENSE_AGGS}
        assert not is_dense(attrs, batch)
        assert not is_dense(attrs, dense_batch(rng, {"g": np.zeros(0, dtype=np.int64)}))


def count_repeats(monkeypatch) -> List[int]:
    """Count the calls of ``np.repeat``: the general join's expansion."""
    calls: List[int] = []
    repeat = np.repeat

    def spy(*args, **kwargs):
        calls.append(1)
        return repeat(*args, **kwargs)

    monkeypatch.setattr(np, "repeat", spy)
    return calls


class TestUniqueKeyJoin:
    @pytest.mark.parametrize("build_dtype", [np.int64, np.int8, np.float64])
    def test_unique_build_keys_and_one_duplicate(self, build_dtype, monkeypatch):
        rng = np.random.default_rng(2)
        build = rng.permutation(np.arange(-20, 40, 3)).astype(build_dtype)
        probe = rng.integers(-60, 80, 400)  # most fall outside the build range or between keys
        repeats = count_repeats(monkeypatch)
        left, right = join_sides(rng, probe, build)
        unique = k_join(ON, left, right)
        assert not repeats  # every build key distinct: no expansion
        assert_same_rows(unique, ref_join(ON, left, right))
        left, right = join_sides(rng, probe, np.concatenate([build, build[3:4]]))
        duplicated = k_join(ON, left, right)
        assert repeats  # one duplicate: the general expansion
        assert_same_rows(duplicated, ref_join(ON, left, right))
        assert duplicated.num_rows == unique.num_rows + (probe == build[3]).sum() > unique.num_rows

    def test_probe_keys_outside_the_build_range(self):
        rng = np.random.default_rng(4)
        build = np.array([5, 3, 9, 7], dtype=np.int16)
        for probe in (np.array([-(2**40), 2, 10, 2**40]), np.array([0, 1, 2**15 - 1], dtype=np.int16),
                      np.array([3, 9, 9, 4, 7, 5, 5]), np.zeros(0, dtype=np.int64)):
            left, right = join_sides(rng, probe, build)
            assert_same_rows(k_join(ON, left, right), ref_join(ON, left, right))

    def test_nan_build_keys_are_distinct_and_match_nothing(self):
        rng = np.random.default_rng(8)
        build = np.array([np.nan, 1.0, np.nan, -0.0, 2.0])
        left, right = join_sides(rng, np.array([np.nan, 0.0, 1.0, 2.0, 3.0, 0.0]), build)
        got = k_join(ON, left, right)
        assert_same_rows(got, ref_join(ON, left, right))
        assert got.column("lk").tolist() == [0.0, 1.0, 2.0, 0.0]


def where(ref: int, pred: Expr) -> FusedStep:
    return FusedStep("df", "where", (ref,), (("pred", pred),))


def select(ref: int, columns=(), derived=()) -> FusedStep:
    return FusedStep("df", "select", (ref,), (("columns", tuple(columns)), ("derived", tuple(derived))))


def ref_where_chain(batch: RecordBatch, preds: List[Expr]) -> RecordBatch:
    """One boolean-mask filter after another, each over the whole of what the
    one before it kept."""
    for pred in preds:
        batch = ref_filter(batch, np.asarray(pred.evaluate(batch.columns()), dtype=bool))
    return batch


def chain_batch(rng: np.random.Generator, rows: int) -> RecordBatch:
    return RecordBatch.from_arrays({
        "a": rng.integers(-5, 5, rows), "b": rng.random(rows), "c": rng.integers(0, 3, rows).astype(np.int8),
        "x": rng.random(rows), "y": rng.integers(0, 100, rows), "z": rng.random(rows) < 0.5,
    })


CHAIN_PREDS = [col("a") > -3, col("b") < 0.7, (col("c") != 1) | col("z"), col("a") * col("b") < 2.0]


class TestWhereChain:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_same_rows_and_order_as_one_filter_after_another(self, seed, length):
        rng = np.random.default_rng(seed)
        batch = chain_batch(rng, int(rng.integers(0, 600)))
        preds = [CHAIN_PREDS[i] for i in rng.permutation(len(CHAIN_PREDS))[:length]]
        steps = [where(0, preds[0])] + [where(-i, p) for i, p in enumerate(preds[1:], start=1)]
        want = ref_where_chain(batch, preds)
        assert_same_rows(_execute_fused(steps, [batch], None), want)
        tail = select(-length, ["y", "a"], [("xy", col("x") * col("y"), "float64")])
        got = _execute_fused(steps + [tail], [batch], None)
        assert got.schema.names == ["y", "a", "xy"]
        assert_same_rows(got, k_project(tail.attrs_dict(), want))

    def test_an_intermediate_read_twice_is_gathered(self):
        rng = np.random.default_rng(1)
        batch = chain_batch(rng, 300)
        steps = [
            where(0, col("a") > 0),
            where(-1, col("b") < 0.5),
            FusedStep("df", "hash_join", (-2, -1), (("left_on", "y"), ("right_on", "y"))),
        ]  # the join reads the first where's rows, and the second's
        first = ref_where_chain(batch, [col("a") > 0])
        second = ref_where_chain(first, [col("b") < 0.5])
        on = {"left_on": "y", "right_on": "y"}
        assert_same_rows(_execute_fused(steps, [batch], None), ref_join(on, second, first))

    def test_a_later_conjunct_never_sees_an_excluded_row(self):
        rng = np.random.default_rng(2)
        tables = {"t": RecordBatch.from_arrays({"n": rng.integers(-9, 9, 500), "d": rng.integers(-2, 3, 500)})}
        catalog = {"t": FrameType((("n", "int64"), ("d", "int64")))}
        func = optimize_and_lower(sql_to_ir("SELECT n FROM t WHERE d <> 0 AND n / d > 1", catalog))
        (fused,) = [op for op in func.ops if op.qualified == "kernel.fused"]
        assert [s.name for s in fused.attrs["steps"]] == ["where", "where", "select"]
        with np.errstate(all="raise"):
            (got,) = run_function(func, tables=tables)
            with pytest.raises(FloatingPointError):  # the division over every row
                (col("n") / col("d")).evaluate(tables["t"].columns())
        d, n = tables["t"].column("d"), tables["t"].column("n")
        keep = [i for i in range(500) if d[i] != 0 and n[i] / d[i] > 1]
        assert_same_rows(got, tables["t"].take(np.asarray(keep, dtype=np.intp)).select(["n"]))

    def test_three_wheres_and_a_select_gather_each_column_once(self, monkeypatch):
        """The guard: a where-chain gathers no column it does not read, and the
        trailing select's columns once, not once per where."""
        gathered: List[List[str]] = []
        take = RecordBatch.take

        def spy(self, indices):
            gathered.append(self.schema.names)
            return take(self, indices)

        monkeypatch.setattr(RecordBatch, "take", spy)
        batch = chain_batch(np.random.default_rng(3), 400)
        steps = [
            where(0, col("a") > -3), where(-1, col("b") < 0.7), where(-2, col("c") != 1),
            select(-3, ["y"], [("xy", col("x") * col("y"), "float64")]),
        ]
        got = _execute_fused(steps, [batch], None)
        assert gathered == [["b"], ["c"], ["y", "x"]]
        assert got.num_rows == ref_where_chain(batch, [s.attrs_dict()["pred"] for s in steps[:3]]).num_rows


# -- an aggregate has the dtype the IR declares ----------------------------------


@pytest.fixture(scope="module")
def tables() -> Dict[str, RecordBatch]:
    return {
        "lineitem": lineitem_like_table(3000, seed=11),
        "orders": orders_table(2000, num_customers=100, seed=12),
        "customers": customers_table(100, seed=13),
    }


def catalog_of(tables: Dict[str, RecordBatch]) -> Dict[str, FrameType]:
    return {
        name: FrameType(tuple((f.name, f.dtype.name) for f in batch.schema.fields))
        for name, batch in tables.items()
    }


DECLARED_DTYPE_QUERIES = [
    # 3 flags over 4 partitions: one partition of the keyed edge is always empty
    "SELECT l_returnflag, MAX(l_orderkey) AS m FROM lineitem GROUP BY l_returnflag "
    "ORDER BY l_returnflag",
    "SELECT l_returnflag, SUM(l_partkey) AS m FROM lineitem GROUP BY l_returnflag "
    "ORDER BY l_returnflag",
    # no row survives the filter
    "SELECT SUM(qty) AS q FROM orders WHERE amount > 100000000",
    "SELECT cust, SUM(qty) AS q FROM orders WHERE amount > 100000000 GROUP BY cust",
]


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize(
    "sql", DECLARED_DTYPE_QUERIES, ids=["grouped-max", "grouped-sum", "sum-of-nothing", "grouped-sum-of-nothing"]
)
def test_aggregate_result_has_the_declared_dtype(sql, shards, tables):
    func = sql_to_ir(sql, catalog_of(tables))
    declared = [(name, np.dtype(dtype)) for name, dtype in func.returns[0].type.columns]
    (oracle,) = run_function(func, tables=tables)
    out = Skadi(shards=shards).sql(sql, tables)
    for batch in (oracle, out):
        assert [(f.name, f.dtype) for f in batch.schema.fields] == declared
    assert_same_rows(out, oracle)  # integer columns only: exact


# -- cross-commit witness ---------------------------------------------------------

# (query, shards, broadcast_threshold) -> QueryReport.physical_tasks,
# sim_seconds (hex), bytes_moved, control_messages, result digest, under
# PYTHONHASHSEED 1 and 2.  The digest was recorded at f88dfd4 (the dict-of-lists
# join, per-group aggregate, build-all split): a change that only makes the
# kernels cheaper leaves it as it is.  Bytes were re-recorded on top of c352ce1,
# when a scan started to ship only the columns its query reads
# (``PruneScanColumns``).  Every column is 8 bytes wide: scan_agg ships 5 of
# lineitem's 8 columns, selective_filter 3 of 8, top_k 2 of orders' 4,
# join_group 2 of orders' 4 and 2 of customers' 3.  Tasks, seconds and control
# messages were re-recorded when a gathered aggregate started to run as a
# partial aggregate per shard, fused into the vertex before it, and a final one
# fused into the sort: scan_agg and join_group over 2 and 4 shards lost their
# m split tasks and their n-shard aggregate stage (2 messages per task), and
# every sharded aggregate's time moved with the smaller final; selective_filter's
# keyless aggregate kept its task count and moved in seconds only.  Bytes and
# digests did not move.  join_group's shuffle joins (1 shard, and 2 and 4 under
# ``broadcast_threshold=0``) were re-recorded when a keyed edge started to
# hash-partition inside its producer: each of the m source shards on each side
# lost its split task (2 messages each, and its share of the time); bytes and
# digests did not move.  top_k's seconds were re-recorded when its limit folded
# into the sort (``FoldLimitIntoSort``): the gathered vertex runs one op, not
# two, and is priced for one; tasks, bytes, messages and digests did not move.
# join_group over 4 shards with ``broadcast_threshold=0`` moved by one ulp when
# transfers became byte-fair flows: two of its shuffle transfers share a link,
# which now splits by bytes, not chunk by chunk.
# top_k and the broadcast joins (join_group over 2 and 4 shards at 5000) were
# re-recorded when the plan stopped launching pass-through tasks: top_k's
# select, narrowed by pruning to the columns its scan ships, folds away
# (``DropIdentityProject``), so over n > 1 shards its n select tasks go (2
# messages each) and over 1 shard the fused select+sort runs one op, not two;
# the customers side of a broadcast join is scanned as one shard, not m shards
# gathered by a coalesce (m tasks fewer); seconds move with the smaller plans.
# Bytes and digests did not move.
WITNESS = {
    ("join_group", 1, 0): (4, "0x1.c732fbfee97fap-12", 33600, 8, "8acbb804fb7ed424"),
    ("join_group", 1, 5000): (4, "0x1.c732fbfee97fap-12", 33600, 8, "8acbb804fb7ed424"),
    ("join_group", 2, 0): (9, "0x1.d53887ff73126p-12", 33600, 18, "8acbb804fb7ed424"),
    ("join_group", 2, 5000): (6, "0x1.07809d9bf2397p-11", 33600, 12, "8acbb804fb7ed424"),
    ("join_group", 4, 0): (17, "0x1.34f8e0332ba67p-11", 33600, 34, "8acbb804fb7ed424"),
    ("join_group", 4, 5000): (10, "0x1.365c5339ce57dp-11", 33600, 20, "8acbb804fb7ed424"),
    ("scan_agg", 1, 0): (2, "0x1.72ff19f93ae9ep-11", 120000, 4, "4785aabea1cba10d"),
    ("scan_agg", 1, 5000): (2, "0x1.72ff19f93ae9ep-11", 120000, 4, "4785aabea1cba10d"),
    ("scan_agg", 2, 0): (5, "0x1.1255e9f241d16p-11", 120000, 10, "4785aabea1cba10d"),
    ("scan_agg", 2, 5000): (5, "0x1.1255e9f241d16p-11", 120000, 10, "4785aabea1cba10d"),
    ("scan_agg", 4, 0): (9, "0x1.ff00ece612185p-12", 120000, 18, "4785aabea1cba10d"),
    ("scan_agg", 4, 5000): (9, "0x1.ff00ece612185p-12", 120000, 18, "4785aabea1cba10d"),
    ("selective_filter", 1, 0): (2, "0x1.e1f89ad6b07b8p-12", 72000, 4, "3f284819853302d1"),
    ("selective_filter", 1, 5000): (2, "0x1.e1f89ad6b07b8p-12", 72000, 4, "3f284819853302d1"),
    ("selective_filter", 2, 0): (5, "0x1.8b113b1ca120ap-12", 72000, 10, "3f284819853302d1"),
    ("selective_filter", 2, 5000): (5, "0x1.8b113b1ca120ap-12", 72000, 10, "3f284819853302d1"),
    ("selective_filter", 4, 0): (9, "0x1.9f323bfe12c01p-12", 72000, 18, "3f284819853302d1"),
    ("selective_filter", 4, 5000): (9, "0x1.9f323bfe12c01p-12", 72000, 18, "3f284819853302d1"),
    ("top_k", 1, 0): (2, "0x1.6f15e1c806949p-12", 32000, 4, "7d29d79fabd20b88"),
    ("top_k", 1, 5000): (2, "0x1.6f15e1c806949p-12", 32000, 4, "7d29d79fabd20b88"),
    ("top_k", 2, 0): (3, "0x1.38be1bf1ce0e3p-12", 32000, 6, "7d29d79fabd20b88"),
    ("top_k", 2, 5000): (3, "0x1.38be1bf1ce0e3p-12", 32000, 6, "7d29d79fabd20b88"),
    ("top_k", 4, 0): (5, "0x1.6c36e1c806947p-12", 32000, 10, "7d29d79fabd20b88"),
    ("top_k", 4, 5000): (5, "0x1.6c36e1c806947p-12", 32000, 10, "7d29d79fabd20b88"),
}


def result_digest(batch: RecordBatch) -> str:
    """Schema, integer columns exactly, float columns to 1e-9 relative."""
    h = hashlib.sha1(repr(batch.schema).encode())
    for name in batch.schema.names:
        col = batch.column(name)
        if col.dtype.kind == "f":
            h.update(",".join(f"{v:.9e}" for v in col.tolist()).encode())
        else:
            h.update(col.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("query,shards,threshold", sorted(WITNESS))
def test_same_plan_same_virtual_cost_same_rows_as_the_parent(query, shards, threshold, tables):
    skadi = Skadi(shards=shards, broadcast_threshold=threshold)
    out = skadi.sql(QUERIES[query], tables)
    report = skadi.last_report
    assert (
        report.physical_tasks,
        report.sim_seconds.hex(),
        report.bytes_moved,
        report.control_messages,
        result_digest(out),
    ) == WITNESS[(query, shards, threshold)]
