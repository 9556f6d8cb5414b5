"""The ``relational`` dialect: logical query-plan operations on frames.

This is the top of the multi-level IR — what the SQL frontend emits.  It is
lowered to the physical ``df`` dialect by
:func:`repro.ir.lowering.lower_relational_to_df`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..core import OpDef, Operation, register_op
from ..expr import Expr
from ..types import FrameType, IRType

__all__ = ["AGG_FUNCS", "join_output"]

AGG_FUNCS = ("sum", "count", "mean", "min", "max")


def _frame(types: Sequence[IRType], index: int = 0) -> FrameType:
    t = types[index]
    if not isinstance(t, FrameType):
        raise TypeError(f"expected frame operand, got {t!r}")
    return t


def _infer_scan(types: Sequence[IRType], attrs: Dict[str, Any]) -> List[IRType]:
    schema = attrs.get("schema")
    if not isinstance(schema, FrameType):
        raise TypeError("relational.scan needs a 'schema' FrameType attribute")
    if "table" not in attrs:
        raise KeyError("relational.scan needs a 'table' attribute")
    return [schema]


def _infer_filter(types: Sequence[IRType], attrs: Dict[str, Any]) -> List[IRType]:
    frame = _frame(types)
    pred = attrs.get("pred")
    if not isinstance(pred, Expr):
        raise TypeError("relational.filter needs a 'pred' Expr attribute")
    for name in pred.referenced_columns():
        if not frame.has_column(name):
            raise KeyError(f"filter predicate references unknown column {name!r}")
    # FrameType is immutable, so when the shape is unchanged the operand's
    # type object is shared rather than renormalized column by column
    return [frame if frame.num_rows is None else FrameType(frame.columns, None)]


def _infer_project(types: Sequence[IRType], attrs: Dict[str, Any]) -> List[IRType]:
    frame = _frame(types)
    columns = tuple(attrs.get("columns", ()))
    derived = tuple(attrs.get("derived", ()))  # (name, Expr, dtype)
    out = [(name, frame.dtype_of(name)) for name in columns]
    for name, expr, dtype in derived:
        if not isinstance(expr, Expr):
            raise TypeError(f"derived column {name!r} needs an Expr")
        for ref in expr.referenced_columns():
            if not frame.has_column(ref):
                raise KeyError(f"derived column {name!r} references unknown {ref!r}")
        out.append((name, np.dtype(dtype).name))
    if not out:
        raise ValueError("relational.project produces no columns")
    return [FrameType(tuple(out), frame.num_rows)]


def join_output(
    left: Sequence[str], right: Sequence[str], right_on: str
) -> Dict[str, Tuple[int, str]]:
    """A join's output columns in order: output name -> (side, source name),
    side 0 the left input and 1 the right.  Left columns keep their names; a
    right column keeps its name unless it is taken, in which case it becomes
    ``r_<name>``; ``right_on`` is dropped."""
    output = {name: (0, name) for name in left}
    for name in right:
        if name == right_on:
            continue
        out_name = name if name not in output else f"r_{name}"
        if out_name in output:
            raise ValueError(f"join output column {out_name!r} is duplicated")
        output[out_name] = (1, name)
    return output


def _infer_join(types: Sequence[IRType], attrs: Dict[str, Any]) -> List[IRType]:
    left, right = _frame(types, 0), _frame(types, 1)
    left_on, right_on = attrs.get("left_on"), attrs.get("right_on")
    if not left_on or not right_on:
        raise KeyError("relational.join needs 'left_on' and 'right_on'")
    if not left.has_column(left_on):
        raise KeyError(f"join key {left_on!r} missing from left frame")
    if not right.has_column(right_on):
        raise KeyError(f"join key {right_on!r} missing from right frame")
    dtypes = (dict(left.columns), dict(right.columns))
    columns = tuple(
        (out_name, dtypes[side][name])
        for out_name, (side, name) in join_output(left.names, right.names, right_on).items()
    )
    return [FrameType(columns, num_rows=None)]


def _infer_aggregate(types: Sequence[IRType], attrs: Dict[str, Any]) -> List[IRType]:
    frame = _frame(types)
    keys = tuple(attrs.get("keys", ()))
    aggs = tuple(attrs.get("aggs", ()))  # (out_name, fn, col)
    if not aggs:
        raise ValueError("relational.aggregate needs at least one agg")
    dtype_by_col = dict(frame.columns)
    columns = []
    for k in keys:
        if k not in dtype_by_col:
            raise KeyError(f"no column {k!r} in {frame!r}")
        columns.append((k, dtype_by_col[k]))
    for out_name, fn, colname in aggs:
        if fn not in AGG_FUNCS:
            raise ValueError(f"unknown agg fn {fn!r}; have {AGG_FUNCS}")
        if fn == "count":
            columns.append((out_name, "int64"))
        elif fn == "mean":
            columns.append((out_name, "float64"))
        else:
            if colname not in dtype_by_col:
                raise KeyError(f"no column {colname!r} in {frame!r}")
            dtype = dtype_by_col[colname]
            if fn == "sum":  # numpy's add-reduction: bools and narrower ints widen
                dtype = np.add.reduce(np.zeros(0, dtype)).dtype.name
            columns.append((out_name, dtype))
    return [FrameType(tuple(columns), num_rows=None)]


def _infer_sort(types: Sequence[IRType], attrs: Dict[str, Any]) -> List[IRType]:
    frame = _frame(types)
    by = tuple(attrs.get("by", ()))
    if not by:
        raise KeyError("relational.sort needs a 'by' attribute")
    for name in by:
        if not frame.has_column(name):
            raise KeyError(f"sort key {name!r} missing")
    if "limit" in attrs and frame.num_rows is not None:  # typed as the limit it folds
        return [FrameType(frame.columns, None)]
    return [frame]


def _infer_distinct(types: Sequence[IRType], attrs: Dict[str, Any]) -> List[IRType]:
    frame = _frame(types)
    return [frame if frame.num_rows is None else FrameType(frame.columns, None)]


def _infer_limit(types: Sequence[IRType], attrs: Dict[str, Any]) -> List[IRType]:
    frame = _frame(types)
    n = attrs.get("n")
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"relational.limit needs a non-negative int 'n', got {n!r}")
    return [frame if frame.num_rows is None else FrameType(frame.columns, None)]


# -- structural verify hooks (shared with the physical ``df`` dialect) -----------


def _verify_scan(op: Operation) -> "str | None":
    table = op.attrs.get("table")
    if not isinstance(table, str) or not table:
        return f"'table' attribute must be a non-empty table name, got {table!r}"
    return None


def _verify_aggregate(op: Operation) -> "str | None":
    for agg in op.attrs.get("aggs", ()):
        if not (
            isinstance(agg, tuple)
            and len(agg) == 3
            and isinstance(agg[0], str)
            and isinstance(agg[1], str)
            and isinstance(agg[2], str)
        ):
            return f"each agg must be an (out_name, fn, column) string triple, got {agg!r}"
    return None


def _verify_sort(op: Operation) -> "str | None":
    ascending = op.attrs.get("ascending", True)
    if not isinstance(ascending, bool):
        return f"'ascending' attribute must be a bool, got {ascending!r}"
    limit = op.attrs.get("limit", 0)
    if isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
        return f"'limit' attribute must be a non-negative int, got {limit!r}"
    return None


register_op(OpDef("relational", "scan", _infer_scan, num_operands=0, verify=_verify_scan))
register_op(OpDef("relational", "filter", _infer_filter, num_operands=1))
register_op(OpDef("relational", "project", _infer_project, num_operands=1))
register_op(OpDef("relational", "join", _infer_join, num_operands=2))
register_op(
    OpDef("relational", "aggregate", _infer_aggregate, num_operands=1, verify=_verify_aggregate)
)
register_op(OpDef("relational", "sort", _infer_sort, num_operands=1, verify=_verify_sort))
register_op(OpDef("relational", "limit", _infer_limit, num_operands=1))
register_op(OpDef("relational", "distinct", _infer_distinct, num_operands=1))
