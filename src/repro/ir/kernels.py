"""Reference numpy kernels for every IR op, plus the handcrafted-op registry.

These are the "predefined operators" of §1 (cudf ops, arrow ops, ...) and
the execution bodies the interpreter dispatches to.  All frame kernels are
vectorized column-at-a-time — the execution style the shared columnar
format exists to support.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..caching.columnar import RecordBatch
from .dialects.relational import join_output
from .expr import Expr

__all__ = ["KERNELS", "HANDCRAFTED", "register_handcrafted", "hash_partition"]


def _columns(batch: RecordBatch) -> Dict[str, np.ndarray]:
    return batch.columns()


# -- frame kernels -------------------------------------------------------------


def k_scan(attrs: Dict[str, Any], *, tables: Mapping[str, RecordBatch]) -> RecordBatch:
    """The columns the scan's schema declares, never the table's others (a
    zero-copy projection)."""
    table = attrs["table"]
    if table not in tables:
        raise KeyError(f"scan of unknown table {table!r}; have {sorted(tables)}")
    return tables[table].select(attrs["schema"].names)


def k_filter(attrs: Dict[str, Any], batch: RecordBatch) -> RecordBatch:
    pred: Expr = attrs["pred"]
    mask = np.asarray(pred.evaluate(_columns(batch)), dtype=bool)
    return batch.filter(mask)


def k_project(attrs: Dict[str, Any], batch: RecordBatch) -> RecordBatch:
    names = list(attrs.get("columns", ()))
    derived = list(attrs.get("derived", ()))
    cols: Dict[str, np.ndarray] = {}
    for name in names:
        cols[name] = batch.column(name)
    env = _columns(batch)
    for name, expr, dtype in derived:
        value = np.asarray(expr.evaluate(env))
        if value.ndim == 0:  # broadcast scalar expressions
            value = np.full(batch.num_rows, value[()])
        cols[name] = value.astype(np.dtype(dtype), copy=False)
    return RecordBatch.from_arrays(cols)


def k_join(attrs: Dict[str, Any], left: RecordBatch, right: RecordBatch) -> RecordBatch:
    """Inner equi-join: rows in probe (left) order, then build (right) order
    within a key.  Keys compare as numpy compares them (mixed widths and
    int/float after promotion); a NaN key matches nothing."""
    left_on, right_on = attrs["left_on"], attrs["right_on"]
    build, probe = right.column(right_on), left.column(left_on)
    order = np.argsort(build, kind="stable")  # equal keys stay in build order
    sorted_build = build[order]
    head = np.ones(len(build), dtype=bool)  # first row of each run of equal keys
    head[1:] = sorted_build[1:] != sorted_build[:-1]
    starts = np.flatnonzero(head)
    run_len = np.zeros(len(build) + 1, dtype=np.intp)  # by sorted position; 0 past the end
    run_len[starts] = np.diff(starts, append=len(build))
    lo = np.searchsorted(sorted_build, probe)
    counts = run_len[lo]
    # the search lands on a run's head: its own key's, or the next larger one's
    landed = np.flatnonzero(counts)
    counts[landed[sorted_build[lo[landed]] != probe[landed]]] = 0
    li = np.repeat(np.arange(len(probe)), counts)
    first_out = np.cumsum(counts) - counts  # where each probe row's matches start
    ri = order[np.arange(len(li)) + np.repeat(lo - first_out, counts)]
    sides = ((left, li), (right, ri))
    cols: Dict[str, np.ndarray] = {}
    for out_name, (side, name) in join_output(
        left.schema.names, right.schema.names, right_on
    ).items():
        batch, rows = sides[side]
        cols[out_name] = batch.column(name)[rows]
    return RecordBatch.from_arrays(cols)


_REDUCE: Dict[str, np.ufunc] = {"sum": np.add, "min": np.minimum, "max": np.maximum}


def k_aggregate(attrs: Dict[str, Any], batch: RecordBatch) -> RecordBatch:
    """Grouped (or, without keys, whole-frame) aggregates, groups in key
    order.  ``count`` is int64, ``mean`` float64, ``min``/``max`` the source
    column's dtype and ``sum`` what numpy's add-reduction makes of it (the
    column's own for int64 and floats; bools count) — also for no rows."""
    keys = list(attrs.get("keys", ()))
    n = batch.num_rows
    cols: Dict[str, np.ndarray] = {}
    if keys:
        key_arrays = [batch.column(k) for k in keys]
        # lexicographic group identification
        order = np.lexsort(key_arrays[::-1])
        sorted_keys = [arr[order] for arr in key_arrays]
        changed = np.zeros(n, dtype=bool)
        changed[:1] = True
        for arr in sorted_keys:
            changed[1:] |= arr[1:] != arr[:-1]
        starts = np.flatnonzero(changed)
        for key_name, arr in zip(keys, sorted_keys, strict=False):
            cols[key_name] = arr[starts]
    else:  # one group, the whole frame as it stands, even when that is no row
        order = slice(None)
        starts = np.zeros(1, dtype=np.intp)
    counts = np.diff(starts, append=n)
    for out_name, fn, colname in attrs["aggs"]:
        if fn == "count":
            cols[out_name] = counts.astype(np.int64, copy=False)
            continue
        source = batch.column(colname)[order]
        if n == 0 and not keys:  # reduceat cannot name an empty group
            if fn != "sum":
                raise ValueError(f"aggregate {fn!r} of an empty frame is undefined")
            cols[out_name] = np.add.reduce(source, keepdims=True)
        elif fn == "mean":
            cols[out_name] = np.add.reduceat(source, starts, dtype=np.float64) / counts
        else:
            cols[out_name] = _REDUCE[fn].reduceat(source, starts)
    return RecordBatch.from_arrays(cols)


def k_sort(attrs: Dict[str, Any], batch: RecordBatch) -> RecordBatch:
    by = list(attrs["by"])
    ascending = attrs.get("ascending", True)
    keys = [batch.column(name) for name in by]
    order = np.lexsort(keys[::-1])
    if not ascending:
        order = order[::-1]
    return batch.take(order)


def k_limit(attrs: Dict[str, Any], batch: RecordBatch) -> RecordBatch:
    return batch.slice(0, attrs["n"])


def k_distinct(attrs: Dict[str, Any], batch: RecordBatch) -> RecordBatch:
    """Row-level dedup, keeping first occurrences in row order."""
    if batch.num_rows == 0:
        return batch
    columns = [batch.column(name) for name in batch.schema.names]
    order = np.lexsort(columns[::-1])  # stable: ties keep original order
    changed = np.zeros(batch.num_rows, dtype=bool)
    changed[0] = True
    for col_arr in columns:
        sorted_col = col_arr[order]
        changed[1:] |= sorted_col[1:] != sorted_col[:-1]
    first_indices = np.sort(order[changed])
    return batch.take(first_indices)


# -- tensor kernels -----------------------------------------------------------------


def k_constant(attrs: Dict[str, Any]) -> np.ndarray:
    return np.asarray(attrs["value"])


def k_frame_to_tensor(attrs: Dict[str, Any], batch: RecordBatch) -> np.ndarray:
    columns = list(attrs["columns"])
    return np.column_stack(
        [batch.column(c).astype(np.float64) for c in columns]
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


KERNELS: Dict[Tuple[str, str], Callable[..., Any]] = {
    ("relational", "scan"): k_scan,
    ("relational", "filter"): k_filter,
    ("relational", "project"): k_project,
    ("relational", "join"): k_join,
    ("relational", "aggregate"): k_aggregate,
    ("relational", "sort"): k_sort,
    ("relational", "limit"): k_limit,
    ("relational", "distinct"): k_distinct,
    ("df", "source"): k_scan,
    ("df", "where"): k_filter,
    ("df", "select"): k_project,
    ("df", "hash_join"): k_join,
    ("df", "hash_aggregate"): k_aggregate,
    ("df", "sort"): k_sort,
    ("df", "limit"): k_limit,
    ("df", "distinct"): k_distinct,
    ("linalg", "constant"): lambda attrs: k_constant(attrs),
    ("linalg", "add"): lambda attrs, a, b: a + b,
    ("linalg", "sub"): lambda attrs, a, b: a - b,
    ("linalg", "mul"): lambda attrs, a, b: a * b,
    ("linalg", "div"): lambda attrs, a, b: a / b,
    ("linalg", "relu"): lambda attrs, a: np.maximum(a, 0.0),
    ("linalg", "sigmoid"): lambda attrs, a: _sigmoid(a),
    ("linalg", "exp"): lambda attrs, a: np.exp(a),
    ("linalg", "neg"): lambda attrs, a: -a,
    ("linalg", "matmul"): lambda attrs, a, b: a @ b,
    ("linalg", "transpose"): lambda attrs, a: a.T,
    ("linalg", "reduce_sum"): lambda attrs, a: np.sum(a, axis=attrs.get("axis")),
    ("linalg", "reduce_mean"): lambda attrs, a: np.mean(a, axis=attrs.get("axis")),
    ("linalg", "frame_to_tensor"): k_frame_to_tensor,
}


# -- handcrafted operator registry (the "cudf ops / misc ops" of Figure 2) -----

HANDCRAFTED: Dict[str, Callable[..., Any]] = {}


def register_handcrafted(name: str):
    """Decorator: register a predefined operator usable via kernel.call."""

    def wrap(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in HANDCRAFTED:
            raise ValueError(f"handcrafted kernel {name!r} already registered")
        HANDCRAFTED[name] = fn
        return fn

    return wrap


@register_handcrafted("misc.top_k")
def hk_top_k(batch: RecordBatch, column: str, k: int) -> RecordBatch:
    values = batch.column(column)
    order = np.argsort(values)[::-1][:k]
    return batch.take(order)


@register_handcrafted("misc.distinct")
def hk_distinct(batch: RecordBatch, column: str) -> np.ndarray:
    return np.unique(batch.column(column))


@register_handcrafted("cudf.normalize")
def hk_normalize(tensor: np.ndarray) -> np.ndarray:
    std = tensor.std(axis=0)
    std[std == 0] = 1.0
    return (tensor - tensor.mean(axis=0)) / std


def hash_partition(
    batch: RecordBatch,
    column: str,
    num_partitions: int,
    only: Optional[Sequence[int]] = None,
) -> List[RecordBatch]:
    """Split a batch by hash of a key column (keyed-edge semantics), rows in
    input order.  ``only`` names the partitions to build (indexed as the
    full list would be); the default is all of them, in order."""
    if num_partitions < 1:
        raise ValueError(f"need >= 1 partitions, got {num_partitions}")
    wanted = range(num_partitions)
    if only is not None:
        wanted = [wanted[p] for p in only]
    keys = batch.column(column)
    # deterministic integer hash (avoid PYTHONHASHSEED nondeterminism)
    buckets = (keys.astype(np.int64, copy=False) * np.int64(2654435761)) % num_partitions
    buckets = np.abs(buckets)
    return [batch.filter(buckets == p) for p in wanted]
