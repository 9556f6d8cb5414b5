"""The query path's kernels against the ones they replaced (DESIGN.md,
inventory lines of ``columnar.py`` and ``kernels.py``).

* **Differential.**  The parent commit's dict-of-lists join, boolean-mask
  filter, build-all-partitions split and group-by-group aggregate are kept
  here and are the reference: on seeded random batches the numpy kernels must
  give the same rows **in the same order** with the same dtypes — except where
  the old aggregate mistyped an empty result, which is the bug fixed.
* **An aggregate has the dtype the IR declares**, also over no rows, through
  the distributed path (where partitions outnumber groups) and the interpreter.
* **Cross-commit witness.**  Plan size, virtual cost and a digest of the rows
  of the four ledger queries: the plan size and rows recorded before the numpy
  kernels, the bytes and virtual cost since column pruning (see ``WITNESS``).
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
from repro.frontends.sql import sql_to_ir
from repro.ir import FrameType, hash_partition, run_function
from repro.ir.kernels import k_aggregate, k_join

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
    def test_matches_build_all_and_only_builds_what_is_asked(self, seed, column):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, int(rng.integers(0, 400)))
        for n in (1, 2, 3, 4, 7):
            want = ref_hash_partition(batch, column, n)
            got = hash_partition(batch, column, n)
            assert len(got) == n
            for i in range(n):
                assert_same_rows(got[i], want[i])
                (one,) = hash_partition(batch, column, n, only=(i,))
                assert_same_rows(one, want[i])
            assert sum(p.num_rows for p in got) == batch.num_rows

    def test_only_is_indexed_like_the_list(self, small_batch):
        parts = hash_partition(small_batch, "k", 3)
        picked = hash_partition(small_batch, "k", 3, only=(2, 0, -1))
        assert picked == [parts[2], parts[0], parts[-1]]
        assert hash_partition(small_batch, "k", 3, only=()) == []
        for bad in (3, -4):
            with pytest.raises(IndexError):
                hash_partition(small_batch, "k", 3, only=(bad,))

    def test_bad_arguments_still_raise(self, small_batch):
        with pytest.raises(ValueError, match=">= 1 partitions"):
            hash_partition(small_batch, "k", 0)
        with pytest.raises(ValueError, match=">= 1 partitions"):
            hash_partition(small_batch, "k", 0, only=(0,))
        with pytest.raises(KeyError, match="no column 'nope'"):
            hash_partition(small_batch, "nope", 2)


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
# PYTHONHASHSEED 1 and 2.  Physical tasks, control messages and the digest were
# recorded at f88dfd4 (the dict-of-lists join, per-group aggregate, build-all
# split): a change that only makes the kernels cheaper leaves them as they are.
# Bytes and seconds were re-recorded on top of c352ce1, when a scan started to
# ship only the columns its query reads (``PruneScanColumns``).  Every column is
# 8 bytes wide: scan_agg ships 5 of lineitem's 8 columns, selective_filter 3 of
# 8, top_k 2 of orders' 4, join_group 2 of orders' 4 and 2 of customers' 3.
WITNESS = {
    ("scan_agg", 1, 0): (2, "0x1.72ff19f93ae9ep-11", 120000, 4, "4785aabea1cba10d"),
    ("scan_agg", 1, 5000): (2, "0x1.72ff19f93ae9ep-11", 120000, 4, "4785aabea1cba10d"),
    ("scan_agg", 2, 0): (9, "0x1.2814237f03156p-11", 120000, 18, "4785aabea1cba10d"),
    ("scan_agg", 2, 5000): (9, "0x1.2814237f03156p-11", 120000, 18, "4785aabea1cba10d"),
    ("scan_agg", 4, 0): (25, "0x1.2e213542012c5p-10", 120000, 50, "4785aabea1cba10d"),
    ("scan_agg", 4, 5000): (25, "0x1.2e213542012c5p-10", 120000, 50, "4785aabea1cba10d"),
    ("selective_filter", 1, 0): (2, "0x1.e1f89ad6b07b8p-12", 72000, 4, "3f284819853302d1"),
    ("selective_filter", 1, 5000): (2, "0x1.e1f89ad6b07b8p-12", 72000, 4, "3f284819853302d1"),
    ("selective_filter", 2, 0): (5, "0x1.8d2a1a10b7de5p-12", 72000, 10, "3f284819853302d1"),
    ("selective_filter", 2, 5000): (5, "0x1.8d2a1a10b7de5p-12", 72000, 10, "3f284819853302d1"),
    ("selective_filter", 4, 0): (9, "0x1.a29aa64ab7b45p-12", 72000, 18, "3f284819853302d1"),
    ("selective_filter", 4, 5000): (9, "0x1.a29aa64ab7b45p-12", 72000, 18, "3f284819853302d1"),
    ("join_group", 1, 0): (6, "0x1.fcad314f2d64dp-12", 33600, 12, "8acbb804fb7ed424"),
    ("join_group", 1, 5000): (6, "0x1.fcad314f2d64dp-12", 33600, 12, "8acbb804fb7ed424"),
    ("join_group", 2, 0): (23, "0x1.3c60013e73d91p-11", 33600, 46, "8acbb804fb7ed424"),
    ("join_group", 2, 5000): (14, "0x1.2461c940bbb1fp-11", 33600, 28, "8acbb804fb7ed424"),
    ("join_group", 4, 0): (69, "0x1.6dc3a10d53a58p-10", 33600, 138, "8acbb804fb7ed424"),
    ("join_group", 4, 5000): (34, "0x1.8cf383120337bp-11", 33600, 68, "8acbb804fb7ed424"),
    ("top_k", 1, 0): (2, "0x1.840e9750e9fd8p-12", 32000, 4, "7d29d79fabd20b88"),
    ("top_k", 1, 5000): (2, "0x1.840e9750e9fd8p-12", 32000, 4, "7d29d79fabd20b88"),
    ("top_k", 2, 0): (5, "0x1.66125c6129e6ap-12", 32000, 10, "7d29d79fabd20b88"),
    ("top_k", 2, 5000): (5, "0x1.66125c6129e6ap-12", 32000, 10, "7d29d79fabd20b88"),
    ("top_k", 4, 0): (9, "0x1.96ec0b8645ffdp-12", 32000, 18, "7d29d79fabd20b88"),
    ("top_k", 4, 5000): (9, "0x1.96ec0b8645ffdp-12", 32000, 18, "7d29d79fabd20b88"),
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
