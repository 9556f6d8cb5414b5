"""Relational-level rewrite rules: conjunction splitting, filter pushdown,
top-n folding, column pruning, identity projections.

§2.1 step (2): Skadi "optimizes the graph using predefined rules".  These
are the classic relational rules that matter most in a disaggregated
setting, because they shrink exactly the data that must move across the
fabric — the rows a shuffle carries, and the columns a scan ships:

* :class:`SplitConjunctiveFilter` — ``filter(x, a AND b)`` becomes
  ``filter(filter(x, a), b)`` so each conjunct can move independently;
* :class:`PushFilterThroughJoin` — a filter over a join whose predicate
  touches only one side's columns slides below the join (undoing the
  ``r_`` rename for right-side pushes);
* :class:`FoldLimitIntoSort` — ``limit(sort(x), n)`` becomes a sort that
  keeps only its first ``n`` rows, which its kernel finds without sorting
  the rest (this one saves compute, not traffic);
* :class:`PruneScanColumns` — every scan declares, and so ships, only the
  columns something downstream reads;
* :class:`DropIdentityProject` — a projection that passes its input's
  columns through unchanged, in order (often one that pruning narrowed to
  what the scan now ships), goes: it would be a stage of tasks that only
  copy rows.

All five operate on the ``relational`` and ``df`` dialects alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .core import Function, Operation, Value, def_use
from .dialects.relational import join_output
from .expr import BinOp, Col, Expr, FuncCall, Lit, UnaryOp
from .passes import Pass, PassStats, _replace_uses
from .types import FrameType

__all__ = [
    "SplitConjunctiveFilter",
    "PushFilterThroughJoin",
    "FoldLimitIntoSort",
    "PruneScanColumns",
    "DropIdentityProject",
    "relational_optimizer",
]

_SCAN_NAMES = {("relational", "scan"), ("df", "source")}
_FILTER_NAMES = {("relational", "filter"), ("df", "where")}
_PROJECT_NAMES = {("relational", "project"), ("df", "select")}
_JOIN_NAMES = {("relational", "join"), ("df", "hash_join")}
_AGGREGATE_NAMES = {("relational", "aggregate"), ("df", "hash_aggregate")}
_SORT_NAMES = {("relational", "sort"), ("df", "sort")}
_LIMIT_NAMES = {("relational", "limit"), ("df", "limit")}


def _join_output(join: Operation) -> Dict[str, Tuple[int, str]]:
    left, right = join.operands[0].type, join.operands[1].type
    assert isinstance(left, FrameType) and isinstance(right, FrameType)
    return join_output(left.names, right.names, join.attrs["right_on"])


def rename_cols(expr: Expr, mapping: Dict[str, str]) -> Expr:
    """Structurally rewrite column references through ``mapping``."""
    if isinstance(expr, Col):
        return Col(mapping.get(expr.name, expr.name))
    if isinstance(expr, Lit):
        return expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, rename_cols(expr.left, mapping), rename_cols(expr.right, mapping))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, rename_cols(expr.operand, mapping))
    if isinstance(expr, FuncCall):
        return FuncCall(expr.func, tuple(rename_cols(a, mapping) for a in expr.args))
    raise TypeError(f"unknown expr node {type(expr)}")


class SplitConjunctiveFilter(Pass):
    """filter(x, a AND b)  ->  filter(filter(x, a), b)."""

    name = "split-conjunctions"

    def run(self, func: Function, stats: PassStats) -> bool:
        for index, op in enumerate(func.ops):
            if (op.dialect, op.name) not in _FILTER_NAMES:
                continue
            pred = op.attrs.get("pred")
            if not (isinstance(pred, BinOp) and pred.op == "and"):
                continue
            inner = Operation(
                op.dialect, op.name, list(op.operands), {"pred": pred.left}
            )
            inner_type = op.operands[0].type
            assert isinstance(inner_type, FrameType)
            inner.results = [
                Value("v_split", FrameType(inner_type.columns, None), producer=inner)
            ]
            op.operands = [inner.results[0]]
            op.attrs = {"pred": pred.right}
            func.ops.insert(index, inner)
            return True
        return False


class PushFilterThroughJoin(Pass):
    """Slide one-sided filter predicates below the join they sit on."""

    name = "pushdown-filter-join"

    def run(self, func: Function, stats: PassStats) -> bool:
        use_sites = def_use(func).use_sites
        for index, op in enumerate(func.ops):
            if (op.dialect, op.name) not in _FILTER_NAMES:
                continue
            join = op.operands[0].producer
            if join is None or (join.dialect, join.name) not in _JOIN_NAMES:
                continue
            # the join result must feed only this filter
            if len(use_sites.get(id(op.operands[0]), ())) != 1:
                continue
            if op.operands[0] in func.returns:
                continue
            pred = op.attrs["pred"]
            side = self._sided(pred, join)
            if side is None:
                continue
            operand_index, pushed_pred = side
            self._push(func, op, join, operand_index, pushed_pred, index)
            stats.ops_removed += 0  # structural move, not a removal
            return True
        return False

    def _sided(self, pred: Expr, join: Operation) -> Optional[Tuple[int, Expr]]:
        """Which join input does ``pred`` exclusively reference, if any?"""
        output = _join_output(join)
        refs = set(pred.referenced_columns())
        if not refs or not refs <= output.keys():
            return None
        sides = {output[ref][0] for ref in refs}
        if len(sides) != 1:
            return None
        side = sides.pop()
        # right-side columns may have been renamed with the r_ prefix
        return side, rename_cols(pred, {ref: output[ref][1] for ref in refs})

    def _push(
        self,
        func: Function,
        filt: Operation,
        join: Operation,
        operand_index: int,
        pred: Expr,
        filter_pos: int,
    ) -> None:
        source = join.operands[operand_index]
        source_type = source.type
        assert isinstance(source_type, FrameType)
        pushed = Operation(
            filt.dialect, filt.name, [source], {"pred": pred}
        )
        pushed.results = [
            Value("v_push", FrameType(source_type.columns, None), producer=pushed)
        ]
        join.operands[operand_index] = pushed.results[0]
        # the filter disappears; its consumers read the join directly
        _replace_uses(func, filt.results[0], join.results[0], filter_pos)
        join_pos = func.ops.index(join)
        func.ops.insert(join_pos, pushed)
        func.ops.remove(filt)


class FoldLimitIntoSort(Pass):
    """limit(sort(x), n)  ->  sort(x){limit=n}, when the limit is the sort's
    only reader and the sort is not returned.  A sort that already carries a
    limit keeps the smaller one."""

    name = "fold-limit-into-sort"

    def run(self, func: Function, stats: PassStats) -> bool:
        chains = def_use(func)
        for index, op in enumerate(func.ops):
            if (op.dialect, op.name) not in _LIMIT_NAMES:
                continue
            sort = op.operands[0].producer
            if sort is None or (sort.dialect, sort.name) not in _SORT_NAMES:
                continue
            sorted_rows = id(sort.result())
            if len(chains.use_sites[sorted_rows]) != 1 or sorted_rows in chains.returned:
                continue
            n = op.attrs["n"]
            sort.attrs = {**sort.attrs, "limit": min(n, sort.attrs.get("limit", n))}
            _replace_uses(func, op.result(), sort.result(), index)
            del func.ops[index]
            stats.ops_removed += 1
            return True
        return False


class PruneScanColumns(Pass):
    """Narrow each scan to the columns its query reads.

    One backward walk computes the columns each frame value must carry
    (:meth:`_reads`), narrowing every scan's ``schema`` and every project's
    pass-through ``columns`` and ``derived`` on the way, in their own order.
    A scan keeps at least one column, so ``COUNT(*)`` still counts rows.
    Result types are then re-inferred forward."""

    name = "prune-scan-columns"

    def run(self, func: Function, stats: PassStats) -> bool:
        needs: Dict[int, Set[str]] = {
            id(v): set(v.type.names) for v in func.returns if isinstance(v.type, FrameType)
        }
        changed = False
        for op in reversed(func.ops):
            out: Set[str] = set()
            for result in op.results:
                out |= needs.get(id(result), set())
            key = (op.dialect, op.name)
            if key in _SCAN_NAMES:
                changed |= self._narrow_scan(op, out)
                continue
            if key in _PROJECT_NAMES:
                changed |= self._narrow_project(op, out)
            for operand, columns in zip(op.operands, self._reads(op, out), strict=True):
                needs.setdefault(id(operand), set()).update(columns)
        if changed:
            for op in func.ops:
                inferred = op.defn.infer([v.type for v in op.operands], op.attrs)
                for value, type_ in zip(op.results, inferred, strict=True):
                    value.type = type_
        return changed

    @staticmethod
    def _narrow_scan(op: Operation, out: Set[str]) -> bool:
        schema = op.attrs["schema"]
        kept = [name for name in schema.names if name in out] or list(schema.names[:1])
        if len(kept) == len(schema.names):
            return False
        op.attrs = {**op.attrs, "schema": schema.select(kept)}
        return True

    @staticmethod
    def _narrow_project(op: Operation, out: Set[str]) -> bool:
        columns = tuple(op.attrs.get("columns", ()))
        derived = tuple(op.attrs.get("derived", ()))
        kept_columns = tuple(name for name in columns if name in out)
        kept_derived = tuple(d for d in derived if d[0] in out)
        if not (kept_columns or kept_derived):  # a project produces a column
            kept_columns, kept_derived = columns[:1], (() if columns else derived[:1])
        if len(kept_columns) == len(columns) and len(kept_derived) == len(derived):
            return False
        op.attrs = {**op.attrs, "columns": kept_columns, "derived": kept_derived}
        return True

    @staticmethod
    def _reads(op: Operation, out: Set[str]) -> List[Set[str]]:
        """The columns ``op`` reads of each operand when ``out`` is what is
        read of its result.  An op not listed reads every column."""
        key, attrs = (op.dialect, op.name), op.attrs
        if key in _FILTER_NAMES:
            return [out | set(attrs["pred"].referenced_columns())]
        if key in _PROJECT_NAMES:
            reads = set(attrs.get("columns", ()))
            for _name, expr, _dtype in attrs.get("derived", ()):
                reads.update(expr.referenced_columns())
            return [reads]
        if key in _JOIN_NAMES:
            # a name both sides carry decides a right column's r_ rename
            shared = set(op.operands[0].type.names) & set(op.operands[1].type.names)
            reads = [{attrs["left_on"]} | shared, {attrs["right_on"]} | shared]
            output = _join_output(op)
            for name in out:
                side, source = output[name]
                reads[side].add(source)
            return reads
        if key in _AGGREGATE_NAMES:
            aggregated = {column for _out, fn, column in attrs["aggs"] if fn != "count"}
            return [set(attrs.get("keys", ())) | aggregated]
        if key in _SORT_NAMES:
            return [out | set(attrs["by"])]
        if key in _LIMIT_NAMES:
            return [out]
        return [
            set(v.type.names) if isinstance(v.type, FrameType) else set()
            for v in op.operands
        ]


class DropIdentityProject(Pass):
    """project(x){columns = x's columns, in order; no derived}  ->  x."""

    name = "drop-identity-project"

    def run(self, func: Function, stats: PassStats) -> bool:
        for index, op in enumerate(func.ops):
            if (op.dialect, op.name) not in _PROJECT_NAMES or op.attrs.get("derived"):
                continue
            source = op.operands[0]
            if tuple(op.attrs.get("columns", ())) != source.type.names:
                continue
            _replace_uses(func, op.result(), source, index)
            del func.ops[index]
            stats.ops_removed += 1
            return True
        return False


def relational_optimizer() -> List[Pass]:
    """The rule set Skadi applies before lowering relational plans."""
    return [
        SplitConjunctiveFilter(),
        PushFilterThroughJoin(),
        FoldLimitIntoSort(),
        PruneScanColumns(),
        DropIdentityProject(),
    ]
