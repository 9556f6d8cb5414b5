"""IR -> FlowGraph planning: one vertex per relational/df op, sharded.

This is the middle of Figure 2: the optimized logical function becomes a
FlowGraph whose vertices carry single-op IR functions, with parallelism
degrees and keyed edges chosen by operator kind:

* scans become sharded source-scan vertices (data-parallel);
* elementwise ops (filter/project) inherit their input's parallelism;
* joins hash-shuffle both inputs on the join keys (partition-wise join), or
  broadcast a small side, gathered by a ``coalesce`` vertex, to every shard
  of the big one;
* an aggregate whose result is gathered anyway (it is keyless, its only user
  is a sort or a limit, or it is the query's result) runs in two phases: a
  partial aggregate on every shard of its input and a final one at
  parallelism 1 that merges the partials (a ``mean`` travels as a sum and a
  count), so no row is shuffled for it; graph fusion then folds the partial
  into the elementwise or join vertex before it and the final into its sort;
* a keyed aggregate that feeds a sharded consumer hash-shuffles on the first
  group key, so each shard owns its keys entirely and local aggregation is
  exact;
* sorts, limits and aggregates over one shard gather to parallelism 1.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..flowgraph.launch import coalesce
from ..flowgraph.logical import FlowGraph, Vertex
from ..ir.backends import op_work_elements
from ..ir.core import Builder, Function, Operation
from ..ir.expr import Col
from ..ir.types import FrameType

__all__ = ["ir_to_flowgraph", "PlanningError"]

_ELEMENTWISE = {"filter", "project", "where", "select"}
_PROJECT = {"relational": "project", "df": "select"}  # by dialect
_SECONDS_PER_ELEMENT = 1e-9
# planning estimates when statistics are absent
_FILTER_SELECTIVITY = 0.5
_AGGREGATE_SELECTIVITY = 0.1  # groups per input row


class PlanningError(ValueError):
    pass


def _estimate_rows(op: Operation, est_rows: Dict[int, float], default_rows: int) -> float:
    """Textbook cardinality guesses (no statistics: shapes, not numbers)."""
    ins = [est_rows.get(id(v), float(default_rows)) for v in op.operands]
    base = ins[0] if ins else float(default_rows)
    if op.name in ("filter", "where"):
        return base * _FILTER_SELECTIVITY
    if op.name in ("join", "hash_join"):
        return max(ins) if ins else base
    if op.name in ("aggregate", "hash_aggregate"):
        return max(base * _AGGREGATE_SELECTIVITY, 1.0)
    if op.name in ("sort", "limit"):  # a sort may carry a folded limit
        n = op.attrs.get("n" if op.name == "limit" else "limit")
        return base if n is None else min(base, float(n))
    if op.name == "distinct":
        return max(base * 0.5, 1.0)
    return base


def _single_op_func(op: Operation, name: str) -> Function:
    """Wrap one op as a standalone IR function over its operands."""
    builder = Builder(name)
    params = [
        builder.add_param(f"in{i}", operand.type)
        for i, operand in enumerate(op.operands)
    ]
    emitted = builder.emit(op.dialect, op.name, params, dict(op.attrs))
    func = builder.ret(emitted.result())
    func.verify()
    return func


def _is_gathered(op: Operation, func: Function, users: Dict[int, List[Operation]]) -> bool:
    """Whether an aggregate's result ends up on one shard whatever the plan:
    it is keyless, its only user is a sort or a limit, or it is the result."""
    readers = [user.name for user in users.get(id(op.result()), ())]
    return (
        not op.attrs.get("keys")
        or readers in (["sort"], ["limit"])
        or op.result() is func.returns[0]
    )


def _two_phase(op: Operation, name: str) -> Tuple[Function, Function]:
    """The partial and the final function of an aggregate.

    The partial aggregates one shard (``partial``: a ``mean`` yields its
    float64 sum, beside a count); the final aggregates the partials: counts
    and sums add up, minima and maxima reduce again, and a mean is its
    partial sums' mean over its partial counts' mean, which is undefined,
    like the one-phase mean, exactly when no shard had a row.  A final with a
    mean ends in a projection that divides, giving the one-phase schema."""
    partial_aggs, final_aggs, means = [], [], {}
    for out, fn, column in op.attrs["aggs"]:
        if fn == "mean":
            means[out] = count = f"{out}.n"
            partial_aggs += [(out, fn, column), (count, "count", column)]
            final_aggs += [(out, fn, out), (count, fn, count)]
        else:
            partial_aggs.append((out, fn, column))
            final_aggs.append((out, "sum" if fn == "count" else fn, out))

    builder = Builder(f"{name}:partial")
    param = builder.add_param("in0", op.operands[0].type)
    attrs = dict(op.attrs, aggs=tuple(partial_aggs), partial=True)
    partial = builder.ret(builder.emit(op.dialect, op.name, [param], attrs).result())

    builder = Builder(f"{name}:final")
    param = builder.add_param("in0", partial.returns[0].type)
    attrs = dict(op.attrs, aggs=tuple(final_aggs))
    merged = builder.emit(op.dialect, op.name, [param], attrs).result()
    if means:
        dtypes = dict(merged.type.columns)
        finish = tuple(
            (out, Col(out) / Col(means[out]), "float64")
            if out in means
            else (out, Col(out), dtypes[out])
            for out, _fn, _column in op.attrs["aggs"]
        )
        merged = builder.emit(
            op.dialect,
            _PROJECT[op.dialect],
            [merged],
            {"columns": tuple(op.attrs.get("keys", ())), "derived": finish},
        ).result()
    final = builder.ret(merged)
    partial.verify()
    final.verify()
    return partial, final


def _work_seconds(func: Function, rows: float) -> float:
    """Modelled seconds to run ``func`` over frames of ``rows`` rows."""
    return sum(op_work_elements(op, round(rows)) for op in func.ops) * _SECONDS_PER_ELEMENT


def ir_to_flowgraph(
    func: Function,
    shards: int = 1,
    name: Optional[str] = None,
    default_rows: int = 100_000,
    table_rows: Optional[Dict[str, int]] = None,
    broadcast_threshold: int = 0,
) -> Tuple[FlowGraph, Vertex]:
    """Plan an IR function (relational or df dialect) into a FlowGraph.

    Returns (graph, sink vertex).  The function must take no parameters
    (scans are its only sources) and return one frame.

    ``table_rows`` supplies base-table cardinalities; when
    ``broadcast_threshold`` > 0, a join whose smaller input is estimated
    at or below the threshold becomes a *broadcast join*: the small side
    is replicated to every shard of the big side instead of hash-shuffling
    both (the standard distributed-SQL optimization).
    """
    if func.params:
        raise PlanningError(
            "ir_to_flowgraph expects a closed query (scans as sources); "
            f"{func.name!r} has parameters"
        )
    if len(func.returns) != 1:
        raise PlanningError("query functions must return exactly one value")
    if shards < 1:
        raise PlanningError(f"shards must be >= 1, got {shards}")

    table_rows = dict(table_rows or {})
    users: Dict[int, List[Operation]] = {}
    for op in func.ops:
        for operand in op.operands:
            users.setdefault(id(operand), []).append(op)
    graph = FlowGraph(name or func.name)
    produced: Dict[int, Tuple[Vertex, int]] = {}  # value id -> (vertex, parallelism)
    est_rows: Dict[int, float] = {}  # value id -> estimated cardinality

    for op in func.ops:
        cost = op_work_elements(op, default_rows) * _SECONDS_PER_ELEMENT
        if op.name in ("scan", "source"):
            vertex = graph.add_vertex(
                f"scan:{op.attrs['table']}",
                source_table=op.attrs["table"],
                source_columns=op.attrs["schema"].names,
                parallelism=shards,
                compute_cost=cost,
            )
            produced[id(op.result())] = (vertex, shards)
            est_rows[id(op.result())] = float(
                table_rows.get(op.attrs["table"], default_rows)
            )
            continue

        in_info = [produced[id(v)] for v in op.operands]
        wrapped = _single_op_func(op, f"{func.name}:{op.qualified}")

        if op.qualified == "kernel.fused" and len(op.operands) == 1:
            # fused elementwise chains stay row-parallel like their inputs
            parallelism = in_info[0][1]
            vertex = graph.add_vertex(
                op.qualified, ir_func=wrapped, parallelism=parallelism, compute_cost=cost
            )
            graph.add_edge(in_info[0][0], vertex, dst_port=0)
        elif op.name in _ELEMENTWISE:
            parallelism = in_info[0][1]
            vertex = graph.add_vertex(
                op.qualified, ir_func=wrapped, parallelism=parallelism, compute_cost=cost
            )
            graph.add_edge(in_info[0][0], vertex, dst_port=0)
        elif op.name in ("join", "hash_join"):
            ests = [est_rows.get(id(v), float(default_rows)) for v in op.operands]
            small = 0 if ests[0] <= ests[1] else 1
            big = 1 - small
            use_broadcast = (
                broadcast_threshold > 0
                and shards > 1
                and ests[small] <= broadcast_threshold
                and in_info[big][1] > 1
            )
            if use_broadcast:
                small_vertex, small_par = in_info[small]
                if small_par > 1:
                    gathered = graph.add_vertex(
                        f"coalesce:{op.qualified}",
                        py_func=coalesce,
                        parallelism=1,
                        compute_cost=ests[small] * _SECONDS_PER_ELEMENT,
                    )
                    graph.add_edge(small_vertex, gathered)
                    small_vertex = gathered
                big_vertex, big_par = in_info[big]
                vertex = graph.add_vertex(
                    f"{op.qualified}:broadcast",
                    ir_func=wrapped,
                    parallelism=big_par,
                    compute_cost=cost,
                )
                graph.add_edge(big_vertex, vertex, dst_port=big)
                graph.add_edge(small_vertex, vertex, dst_port=small)
            else:
                vertex = graph.add_vertex(
                    op.qualified, ir_func=wrapped, parallelism=shards, compute_cost=cost
                )
                graph.add_edge(
                    in_info[0][0], vertex, dst_port=0, key=op.attrs["left_on"]
                )
                graph.add_edge(
                    in_info[1][0], vertex, dst_port=1, key=op.attrs["right_on"]
                )
        elif op.name in ("aggregate", "hash_aggregate"):
            keys = tuple(op.attrs.get("keys", ()))
            in_vertex, in_par = in_info[0]
            if in_par > 1 and _is_gathered(op, func, users):
                partial_func, final_func = _two_phase(op, wrapped.name)
                partial = graph.add_vertex(
                    f"{op.qualified}:partial",
                    ir_func=partial_func,
                    parallelism=in_par,
                    compute_cost=_work_seconds(partial_func, default_rows),
                )
                graph.add_edge(in_vertex, partial, dst_port=0)
                # the final reads groups, not rows: priced at the same guess
                # of groups per row that the cardinality estimate makes
                vertex = graph.add_vertex(
                    f"{op.qualified}:final",
                    ir_func=final_func,
                    parallelism=1,
                    compute_cost=_work_seconds(
                        final_func, default_rows * _AGGREGATE_SELECTIVITY
                    ),
                )
                graph.add_edge(partial, vertex, dst_port=0)
            elif keys and in_par > 1:
                vertex = graph.add_vertex(
                    op.qualified, ir_func=wrapped, parallelism=shards, compute_cost=cost
                )
                graph.add_edge(in_vertex, vertex, dst_port=0, key=keys[0])
            else:
                vertex = graph.add_vertex(
                    op.qualified, ir_func=wrapped, parallelism=1, compute_cost=cost
                )
                graph.add_edge(in_vertex, vertex, dst_port=0)
        elif op.name == "distinct":
            in_vertex, in_par = in_info[0]
            frame = op.operands[0].type
            key = frame.names[0] if isinstance(frame, FrameType) else None
            if key is not None and shards > 1 and in_par > 1:
                # identical rows share every column, so hash-sharding on the
                # first column keeps duplicates together: local dedup is exact
                vertex = graph.add_vertex(
                    op.qualified, ir_func=wrapped, parallelism=shards, compute_cost=cost
                )
                graph.add_edge(in_vertex, vertex, dst_port=0, key=key)
            else:
                vertex = graph.add_vertex(
                    op.qualified, ir_func=wrapped, parallelism=1, compute_cost=cost
                )
                graph.add_edge(in_vertex, vertex, dst_port=0)
        elif op.name in ("sort", "limit"):
            vertex = graph.add_vertex(
                op.qualified, ir_func=wrapped, parallelism=1, compute_cost=cost
            )
            graph.add_edge(in_info[0][0], vertex, dst_port=0)
        else:
            # generic op: gather everything to one task
            vertex = graph.add_vertex(
                op.qualified, ir_func=wrapped, parallelism=1, compute_cost=cost
            )
            for port, (src_vertex, _) in enumerate(in_info):
                graph.add_edge(src_vertex, vertex, dst_port=port)
        produced[id(op.result())] = (vertex, vertex.parallelism)
        est_rows[id(op.result())] = _estimate_rows(op, est_rows, default_rows)

    sink, _ = produced[id(func.returns[0])]
    graph.validate()
    return graph, sink
