"""Reference numpy kernels for every IR op, plus the handcrafted-op registry.

These are the "predefined operators" of §1 (cudf ops, arrow ops, ...) and
the execution bodies the interpreter dispatches to.  All frame kernels are
vectorized column-at-a-time — the execution style the shared columnar
format exists to support.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

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
    heads = _heads_by_address(sorted_build, starts, probe)
    if heads is None:
        heads = _heads_by_search(sorted_build, probe)
    counts = run_len[heads]
    li = np.repeat(np.arange(len(probe)), counts)
    first_out = np.cumsum(counts) - counts  # where each probe row's matches start
    ri = order[np.arange(len(li)) + np.repeat(heads - first_out, counts)]
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
    column's own for int64 and floats; bools count) — also for no rows.

    ``partial`` makes this the first phase of a two-phase aggregate (see
    ``core.planner``): a ``mean`` stops at its float64 sum, which the final
    phase divides, and a keyless aggregate of no rows yields no group, so a
    shard with no rows adds nothing to the merge."""
    keys = list(attrs.get("keys", ()))
    partial = attrs.get("partial", False)
    n = batch.num_rows
    cols: Dict[str, np.ndarray] = {}
    if keys:
        key_arrays = [batch.column(k) for k in keys]
        order, starts = _group_order(key_arrays)
        first_rows = order[starts]
        for key_name, arr in zip(keys, key_arrays, strict=True):
            cols[key_name] = arr[first_rows]
    else:  # one group, the whole frame as it stands, even when that is no row
        order = slice(None)
        starts = np.zeros(0 if partial and n == 0 else 1, dtype=np.intp)
    counts = np.diff(starts, append=n)
    for out_name, fn, colname in attrs["aggs"]:
        if fn == "count":
            cols[out_name] = counts.astype(np.int64, copy=False)
            continue
        source = batch.column(colname)[order]
        if n == 0 and len(starts):  # reduceat cannot name an empty group
            if fn != "sum":
                raise ValueError(f"aggregate {fn!r} of an empty frame is undefined")
            cols[out_name] = np.add.reduce(source, keepdims=True)
        elif fn == "mean":
            sums = np.add.reduceat(source, starts, dtype=np.float64)
            cols[out_name] = sums if partial else sums / counts
        else:
            cols[out_name] = _REDUCE[fn].reduceat(source, starts)
    return RecordBatch.from_arrays(cols)


def k_sort(attrs: Dict[str, Any], batch: RecordBatch) -> RecordBatch:
    """Rows in key order; with a ``limit`` (a ``limit`` folded into its sort
    by ``FoldLimitIntoSort``), only the first ``limit`` of them."""
    keys = [batch.column(name) for name in attrs["by"]]
    return batch.take(_sort_order(keys, attrs.get("ascending", True), attrs.get("limit")))


def k_limit(attrs: Dict[str, Any], batch: RecordBatch) -> RecordBatch:
    return batch.slice(0, attrs["n"])


def k_distinct(attrs: Dict[str, Any], batch: RecordBatch) -> RecordBatch:
    """Row-level dedup, keeping first occurrences in row order."""
    if batch.num_rows == 0:
        return batch
    order, starts = _group_order([batch.column(name) for name in batch.schema.names])
    return batch.take(np.sort(order[starts]))


# -- ordering, grouping and lookup ---------------------------------------------
#
# Each routine below gives exactly what its general form gives (np.lexsort's
# permutation, np.searchsorted's match): a faster form serves the inputs whose
# dtypes and spans allow it, and the general form every other input.

_RADIX_CODES = 1 << 16  # numpy's stable argsort is a one-pass radix sort up to 16 bits
_SLOTS_PER_BUILD_ROW = 4  # the largest direct-address table a join builds, per build row


def _int_bounds(dtype: np.dtype) -> Tuple[int, int]:
    """The values an integer or bool dtype can hold."""
    if dtype.kind == "b":
        return 0, 1
    info = np.iinfo(dtype)
    return int(info.min), int(info.max)


def _offsets(arr: np.ndarray, low: int) -> np.ndarray:
    """``arr - low`` as intp, for integer or bool values from ``low`` (which the
    dtype holds) up a small span: widened before it subtracts, so int8 127
    minus -128 is 255, and uint64 above 2**63 never passes through int64."""
    if arr.dtype.kind == "u":
        return (arr - arr.dtype.type(low)).astype(np.intp)
    return arr.astype(np.intp) - low


def _sort_order(keys: List[np.ndarray], ascending: bool, limit: Optional[int]) -> np.ndarray:
    """The rows in key order, first key first: ``np.lexsort``'s stable
    permutation, reversed for ``ascending=False`` (so equal keys come in row
    order ascending and in reverse row order descending; NaN sorts last
    ascending).  With a ``limit``, only its first ``limit`` positions."""
    if limit is not None and limit < len(keys[0]):
        top = _top_n(keys, ascending, limit)
        if top is not None:
            return top
    order = np.lexsort(keys[::-1])
    if not ascending:
        order = order[::-1]
    return order if limit is None else order[:limit]


def _top_n(keys: List[np.ndarray], ascending: bool, n: int) -> Optional[np.ndarray]:
    """``_sort_order(keys, ascending)[:n]`` for ``n`` below the row count,
    sorting only the rows that can be among the first ``n``: a partition of
    the first key finds the n-th value, and the rows that reach it, ties
    included, are the candidates, which take the same places among
    themselves as in the full sort.  None when the first key is not numeric
    or the n-th value is NaN (the full sort serves those)."""
    first = keys[0]
    if first.dtype.kind not in "biuf":
        return None
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    if ascending:
        nth = np.partition(first, n - 1)[n - 1]
        reach = first <= nth
    else:
        nth = np.partition(first, len(first) - n)[len(first) - n]
        reach = ~(first < nth)  # and every NaN: last ascending, so first descending
    if nth != nth:
        return None
    candidates = np.flatnonzero(reach)
    order = candidates[np.lexsort([key[candidates] for key in keys[::-1]])]
    return order[:n] if ascending else order[::-1][:n]


def _group_order(key_arrays: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """The rows in key order (``np.lexsort``'s permutation: ties in row
    order) and where each group of equal keys starts in it.  A NaN key is a
    group of its own."""
    n = len(key_arrays[0])
    changed = np.zeros(n, dtype=bool)
    changed[:1] = True
    code = _group_code(key_arrays)
    if code is not None:
        order = np.argsort(code, kind="stable")
        sorted_code = code[order]
        changed[1:] = sorted_code[1:] != sorted_code[:-1]
    else:
        order = np.lexsort(key_arrays[::-1])
        for arr in key_arrays:
            sorted_arr = arr[order]
            changed[1:] |= sorted_arr[1:] != sorted_arr[:-1]
    return order, np.flatnonzero(changed)


def _group_code(key_arrays: List[np.ndarray]) -> Optional[np.ndarray]:
    """One uint16 per row that orders the rows as their keys do, first key
    most significant, so a stable argsort of it (a radix sort) is lexsort's
    permutation; None unless every key is an integer or bool column and the
    product of the keys' spans fits 16 bits."""
    if not len(key_arrays[0]) or any(arr.dtype.kind not in "biu" for arr in key_arrays):
        return None
    lows, spans = [], []
    for arr in key_arrays:
        low = int(arr.min())
        lows.append(low)
        spans.append(int(arr.max()) - low + 1)
    if math.prod(spans) > _RADIX_CODES:
        return None
    code = _offsets(key_arrays[0], lows[0])
    for arr, low, span in zip(key_arrays[1:], lows[1:], spans[1:], strict=True):
        code *= span
        code += _offsets(arr, low)
    return code.astype(np.uint16)


def _heads_by_search(sorted_build: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """For each probe key, the sorted build position where its run of equal
    keys starts, or ``len(sorted_build)`` when no build key equals it."""
    heads = np.searchsorted(sorted_build, probe)
    # the search lands on a run's head: its own key's, or the next larger one's
    landed = np.flatnonzero(heads < len(sorted_build))
    heads[landed[sorted_build[heads[landed]] != probe[landed]]] = len(sorted_build)
    return heads


def _heads_by_address(
    sorted_build: np.ndarray, starts: np.ndarray, probe: np.ndarray
) -> Optional[np.ndarray]:
    """``_heads_by_search``'s answer read from a direct-address table
    (``head_at[probe - low]``); None unless both key columns are integer or
    bool and the build keys span at most ``_SLOTS_PER_BUILD_ROW`` slots per
    build row.  Keys compare exactly (a probe key no build key's dtype holds
    matches nothing)."""
    kinds = sorted_build.dtype.kind + probe.dtype.kind
    if not len(sorted_build) or any(kind not in "biu" for kind in kinds):
        return None
    low, high = int(sorted_build[0]), int(sorted_build[-1])
    if high - low + 1 > _SLOTS_PER_BUILD_ROW * len(sorted_build):
        return None
    missing = len(sorted_build)
    head_at = np.full(high - low + 1, missing, dtype=np.intp)
    head_at[_offsets(sorted_build[starts], low)] = starts
    # only probe keys in the build's range can match, and only the part of it
    # the probe's dtype holds can be compared in that dtype
    min_probe, max_probe = _int_bounds(probe.dtype)
    low_p, high_p = max(low, min_probe), min(high, max_probe)
    if low_p > high_p:
        return np.full(len(probe), missing, dtype=np.intp)
    table = head_at[low_p - low :]
    as_probe = probe.dtype.type
    inside = (probe >= as_probe(low_p)) & (probe <= as_probe(high_p))
    if inside.all():
        return table[_offsets(probe, low_p)]
    heads = np.full(len(probe), missing, dtype=np.intp)
    rows = np.flatnonzero(inside)
    heads[rows] = table[_offsets(probe[rows], low_p)]
    return heads


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
    """The ``k`` rows with the largest ``column``, largest first: ``k_sort``'s
    descending top-n, so equal values come in reverse row order."""
    if k < 0:
        raise ValueError(f"misc.top_k needs k >= 0, got {k}")
    return batch.take(_sort_order([batch.column(column)], ascending=False, limit=k))


@register_handcrafted("misc.distinct")
def hk_distinct(batch: RecordBatch, column: str) -> np.ndarray:
    return np.unique(batch.column(column))


def hash_partition(batch: RecordBatch, column: str, num_partitions: int) -> List[RecordBatch]:
    """Split a batch by hash of a key column (keyed-edge semantics): every
    partition, in order, rows in input order."""
    if num_partitions < 1:
        raise ValueError(f"need >= 1 partitions, got {num_partitions}")
    keys = batch.column(column)
    # deterministic integer hash (avoid PYTHONHASHSEED nondeterminism)
    buckets = (keys.astype(np.int64, copy=False) * np.int64(2654435761)) % num_partitions
    buckets = np.abs(buckets)
    return [batch.filter(buckets == p) for p in range(num_partitions)]
