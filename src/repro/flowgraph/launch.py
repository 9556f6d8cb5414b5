"""Launching physical graphs on the stateful serverless runtime.

The bridge Figure 2 sketches as pseudo-code ("b = [B.remote() ...]"): walk
the physical graph in topological order and submit one runtime task per
physical task, passing futures between them.  Each table is ``put`` once per
set of columns its sources ship; source shards slice it; split tasks
hash-partition for keyed edges.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..caching.columnar import RecordBatch, concat_batches
from ..ir.interpreter import Interpreter
from ..ir.kernels import hash_partition
from ..ir.passes import OBSERVER
from ..runtime.object_ref import ObjectRef
from ..runtime.runtime import ServerlessRuntime
from .logical import GraphValidationError, Vertex
from .physical import GatherMode, PhysicalGraph, PhysicalTask

__all__ = ["launch_physical_graph", "collect_sink"]


def _gather(mode: GatherMode, values: List[Any]) -> Any:
    if mode == GatherMode.DIRECT:
        return values[0]
    if mode == GatherMode.LIST:
        return values
    if all(isinstance(v, RecordBatch) for v in values):
        return concat_batches(values)
    raise TypeError(
        "CONCAT gather over non-RecordBatch values; use a keyed edge or "
        "an explicit combiner vertex"
    )


def _make_source_fn(vertex: Vertex, shard: int, n: int):
    def run_source(table: Any) -> Any:
        if not isinstance(table, RecordBatch):
            if n != 1:
                raise GraphValidationError(
                    f"source {vertex.name!r}: only RecordBatch tables can be sharded"
                )
            return table
        rows = table.num_rows
        lo = rows * shard // n
        hi = rows * (shard + 1) // n
        return table.slice(lo, hi - lo)

    run_source.__name__ = f"source_{vertex.name}"
    return run_source


def _make_compute_fn(vertex: Vertex, task: PhysicalTask, tables: Mapping[str, Any]):
    modes = [mode for mode, _ in task.inputs]

    def run_compute(*port_values: Any) -> Any:
        values = [_gather(mode, list(v)) for mode, v in zip(modes, port_values, strict=False)]
        if vertex.ir_func is not None:
            inputs = {
                param.name: value
                for param, value in zip(vertex.ir_func.params, values, strict=False)
            }
            outs = Interpreter(tables).run(vertex.ir_func, inputs)
            return outs[0] if len(outs) == 1 else tuple(outs)
        assert vertex.py_func is not None
        return vertex.py_func(*values)

    run_compute.__name__ = vertex.name or "compute"
    return run_compute


def _make_split_fn(task: PhysicalTask):
    key, index, n = task.split_key, task.split_index, task.split_n

    def run_split(batch: Any) -> Any:
        batch = _gather(GatherMode.DIRECT, [batch])
        if not isinstance(batch, RecordBatch):
            raise TypeError(f"keyed edge over non-RecordBatch value ({type(batch)})")
        return hash_partition(batch, key, n, only=(index,))[0]

    run_split.__name__ = f"split_{key}_{index}"
    return run_split


def _sanitize_before_launch(
    runtime: ServerlessRuntime, pgraph: PhysicalGraph, strict: Optional[bool]
) -> None:
    """Static plan checks before any task is submitted.

    Strict mode (explicit, or ``RuntimeConfig.strict_plans``) refuses to
    launch a plan with errors; an active analysis session additionally
    collects every finding even when not strict."""
    if strict is None:
        strict = runtime.config.strict_plans
    session = OBSERVER.session
    if not strict and session is None:
        return
    diags = runtime.scheduler.sanitize_plan(pgraph)
    if session is not None:
        session.record_plan(pgraph, diags=diags)
    if strict and not diags.ok:
        from ..analysis.sanitizer import PlanSanitizerError

        raise PlanSanitizerError(diags)


def launch_physical_graph(
    runtime: ServerlessRuntime,
    pgraph: PhysicalGraph,
    tables: Optional[Mapping[str, Any]] = None,
    gang_group: Optional[str] = None,
    strict: Optional[bool] = None,
) -> Dict[str, List[ObjectRef]]:
    """Submit every physical task; returns vertex_id -> shard output refs.

    ``tables`` backs source vertices and IR ``scan`` ops.  When
    ``gang_group`` is given, all tasks are submitted as one gang (SPMD).
    ``strict`` sanitizes the plan first and refuses to launch on errors
    (defaults to the runtime's ``strict_plans`` config).
    """
    _sanitize_before_launch(runtime, pgraph, strict)
    tables = dict(tables or {})
    table_refs: Dict[Tuple[str, Optional[Tuple[str, ...]]], ObjectRef] = {}
    refs: Dict[str, ObjectRef] = {}

    for ptask_id in pgraph.order:
        task = pgraph.tasks[ptask_id]
        vertex = pgraph.logical.vertices[task.vertex_id]

        if task.kind == "source":
            table_name, columns = vertex.source_table, vertex.source_columns
            assert table_name is not None
            if table_name not in tables:
                raise KeyError(
                    f"source vertex {vertex.name!r} needs table {table_name!r}"
                )
            key = (table_name, columns)
            if key not in table_refs:
                table = tables[table_name]
                # a projection is a view: no copy, and only its columns count
                table_refs[key] = runtime.put(
                    table if columns is None else table.select(columns)
                )
            fn = _make_source_fn(vertex, task.shard, task.parallelism)
            args = (table_refs[key],)
        elif task.kind == "split":
            fn = _make_split_fn(task)
            args = (refs[task.inputs[0][1][0]],)
        else:
            fn = _make_compute_fn(vertex, task, tables)
            args = tuple([refs[pid] for pid in pids] for _, pids in task.inputs)

        refs[ptask_id] = runtime.submit(
            fn,
            args,
            compute_cost=task.compute_cost,
            output_nbytes=task.output_nbytes,
            supported_kinds=task.supported_kinds,
            pinned_device=task.pinned_device,
            name=task.name,
            gang_group=gang_group,
        )

    if gang_group is not None:
        runtime.launch_gang(gang_group)

    return {
        vertex_id: [refs[pid] for pid in ptask_ids]
        for vertex_id, ptask_ids in pgraph.shards_of.items()
    }


def collect_sink(
    runtime: ServerlessRuntime,
    outputs: Dict[str, List[ObjectRef]],
    vertex: Vertex,
) -> Any:
    """Fetch and merge one vertex's shard outputs (concat for frames)."""
    values = runtime.get(outputs[vertex.vertex_id])
    if len(values) == 1:
        return values[0]
    if all(isinstance(v, RecordBatch) for v in values):
        return concat_batches(values)
    return values
