"""A Daphne-like lazy dataframe API over the relational IR.

The paper plans to build its access layer on Daphne because it has "tiered
declarative APIs, an MLIR-based DSL, and abstractions like data frames"
(§2.2).  This module is that tier: a lazy builder whose plans lower onto
the same relational dialect the SQL frontend targets, so both frontends
share every optimization and backend below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Sequence, Tuple

from ..caching.columnar import RecordBatch
from ..ir.core import Builder, Function, op_def
from ..ir.expr import Expr
from ..ir.interpreter import run_function
from ..ir.types import FrameType

__all__ = ["DataFrame", "from_table", "from_batch"]


def _frame_type_of(batch: RecordBatch) -> FrameType:
    return FrameType(tuple((f.name, f.dtype.name) for f in batch.schema.fields))


@dataclass(frozen=True)
class _Plan:
    """One logical plan node; ``kind`` selects the relational op."""

    kind: str
    children: Tuple["_Plan", ...]
    attrs: Tuple[Tuple[str, Any], ...]

    def attr(self, key: str) -> Any:
        return dict(self.attrs)[key]


class DataFrame:
    """An immutable, lazy dataframe: operations build a plan tree."""

    def __init__(self, plan: _Plan, schema: FrameType):
        self._plan = plan
        self.schema = schema

    # -- constructors --------------------------------------------------------

    @staticmethod
    def table(name: str, schema: FrameType) -> "DataFrame":
        plan = _Plan("scan", (), (("table", name), ("schema", schema)))
        return DataFrame(plan, schema)

    # -- transformations ------------------------------------------------------

    def _derive(self, kind: str, attrs: Dict[str, Any], schema: FrameType) -> "DataFrame":
        plan = _Plan(kind, (self._plan,), tuple(sorted(attrs.items())))
        return DataFrame(plan, schema)

    def filter(self, pred: Expr) -> "DataFrame":
        for name in pred.referenced_columns():
            if not self.schema.has_column(name):
                raise KeyError(f"filter references unknown column {name!r}")
        return self._derive("filter", {"pred": pred}, FrameType(self.schema.columns))

    def select(self, *columns: str, **derived: Expr) -> "DataFrame":
        cols = tuple(columns)
        derived_specs = tuple(
            (name, expr, "float64") for name, expr in derived.items()
        )
        out_cols = [(c, self.schema.dtype_of(c)) for c in cols]
        out_cols += [(name, "float64") for name, _, _ in derived_specs]
        return self._derive(
            "project",
            {"columns": cols, "derived": derived_specs},
            FrameType(tuple(out_cols)),
        )

    def join(self, other: "DataFrame", left_on: str, right_on: str) -> "DataFrame":
        attrs = {"left_on": left_on, "right_on": right_on}
        (schema,) = op_def("relational", "join").infer([self.schema, other.schema], attrs)
        plan = _Plan("join", (self._plan, other._plan), tuple(attrs.items()))
        return DataFrame(plan, schema)

    def groupby(self, *keys: str) -> "GroupedFrame":
        for key in keys:
            if not self.schema.has_column(key):
                raise KeyError(f"groupby key {key!r} not in schema")
        return GroupedFrame(self, keys)

    def sort(self, *by: str, ascending: bool = True) -> "DataFrame":
        return self._derive(
            "sort", {"by": tuple(by), "ascending": ascending}, FrameType(self.schema.columns)
        )

    def limit(self, n: int) -> "DataFrame":
        return self._derive("limit", {"n": n}, FrameType(self.schema.columns))

    # -- lowering / execution ----------------------------------------------------

    def to_ir(self, name: str = "df_query") -> Function:
        """Lower the plan tree onto relational IR."""
        builder = Builder(name)

        def emit(plan: _Plan):
            operands = [emit(child).result() for child in plan.children]
            kind_map = {
                "scan": "scan",
                "filter": "filter",
                "project": "project",
                "join": "join",
                "aggregate": "aggregate",
                "sort": "sort",
                "limit": "limit",
            }
            return builder.emit(
                "relational", kind_map[plan.kind], operands, dict(plan.attrs)
            )

        func = builder.ret(emit(self._plan).result())
        func.verify()
        return func

    def collect(self, tables: Mapping[str, RecordBatch]) -> RecordBatch:
        """Execute eagerly with the reference interpreter."""
        (out,) = run_function(self.to_ir(), tables=tables)
        return out

    def __repr__(self) -> str:
        return f"DataFrame({self.schema!r})"


class GroupedFrame:
    """Intermediate for ``df.groupby(...).agg(...)``."""

    def __init__(self, frame: DataFrame, keys: Sequence[str]):
        self._frame = frame
        self._keys = tuple(keys)

    def agg(self, **aggs: Tuple[str, str]) -> DataFrame:
        """``agg(total=("sum", "amount"), n=("count", "oid"))``"""
        if not aggs:
            raise ValueError("agg() needs at least one aggregate")
        spec = tuple((out, fn, col) for out, (fn, col) in aggs.items())
        columns = [(k, self._frame.schema.dtype_of(k)) for k in self._keys]
        for out, fn, colname in spec:
            if fn == "count":
                columns.append((out, "int64"))
            elif fn == "mean":
                columns.append((out, "float64"))
            else:
                columns.append((out, self._frame.schema.dtype_of(colname)))
        return self._frame._derive(
            "aggregate",
            {"keys": self._keys, "aggs": spec},
            FrameType(tuple(columns)),
        )


def from_table(name: str, schema: FrameType) -> DataFrame:
    return DataFrame.table(name, schema)


def from_batch(name: str, batch: RecordBatch) -> DataFrame:
    """Convenience: derive the schema from a real batch."""
    return DataFrame.table(name, _frame_type_of(batch))
