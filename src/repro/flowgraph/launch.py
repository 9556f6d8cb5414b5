"""Launching physical graphs on the stateful serverless runtime.

The bridge Figure 2 sketches as pseudo-code ("b = [B.remote() ...]"): walk
the physical graph in topological order and submit one runtime task per
physical task, passing futures between them.  Each table is ``put`` once per
set of columns its sources ship; source shards slice it; a split task
hash-partitions one producer shard for a keyed edge in one pass, as one task
with ``split_n`` outputs (``submit(num_returns=...)``).  A task that reads
several shards of one input concatenates them (a sort, a limit, the final of a
two-phase aggregate, a ``coalesce``); anything else must travel a keyed edge.

A table's layout — those puts, its source shards, their hash partitions and
the ``coalesce`` of its shards that a broadcast join reads — is a fact about
the table, not the query, so ``TableLayouts`` keeps it across launches (Ray's
objects are immutable, which is what lets every later query share one copy).
A source task is keyed on ``(source columns, shard, parallelism)`` of its
table, a split task on ``(its source shard's key, split key, split count)``, a
coalesce on ``("coalesce", *its input shards' keys)``; a task downstream of a
compute vertex belongs to its query and is never reused.  On a hit the launch
hands out the kept refs and submits nothing; a lost copy comes back by lineage
replay from the kept put or the kept shards, like any other task output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..caching.columnar import RecordBatch, concat_batches
from ..ir.interpreter import Interpreter
from ..ir.kernels import hash_partition
from ..ir.passes import OBSERVER
from ..runtime.object_ref import ObjectRef
from ..runtime.runtime import ServerlessRuntime
from .logical import GraphValidationError, Vertex
from .physical import GatherMode, PhysicalGraph, PhysicalTask

__all__ = ["launch_physical_graph", "collect_sink", "TableLayouts", "coalesce"]


def coalesce(batch: Any) -> Any:
    """The payload of a one-shard vertex that gathers its input's shards (the
    broadcast side of a join): the gather concatenates, this passes it on."""
    return batch


@dataclass
class TableLayout:
    """One table as laid out on the cluster."""

    table: Any
    puts: Dict[Optional[Tuple[str, ...]], ObjectRef] = field(default_factory=dict)  # by columns
    # by memo key: a task's outputs (n for a split, one for any other)
    tasks: Dict[Tuple[Any, ...], List[ObjectRef]] = field(default_factory=dict)

    def refs(self) -> List[ObjectRef]:
        return [*self.puts.values(), *(ref for outs in self.tasks.values() for ref in outs)]


class TableLayouts:
    """The layouts kept across launches, by table name.

    ``keep`` admits a caller's ``RecordBatch`` tables before a launch.  A
    table is immutable from then on: its column arrays, and every ndarray
    ``.base`` under them, become read-only, so a later write raises
    ``ValueError`` instead of silently disagreeing with the kept copies.  A
    name bound to a different object frees the old layout and starts afresh,
    and so does a layout whose put lost its last copy: a put has no lineage,
    so nothing laid out from it could be rebuilt.
    """

    def __init__(self) -> None:
        self.kept: Dict[str, TableLayout] = {}
        self.reused = 0  # memo hits, over every launch

    def keep(self, runtime: ServerlessRuntime, tables: Mapping[str, Any]) -> None:
        for name, table in tables.items():
            if not isinstance(table, RecordBatch):
                continue
            old = self.kept.get(name)
            if old is not None:
                is_ready = runtime.ownership.is_ready
                if old.table is table and all(is_ready(r.object_id) for r in old.puts.values()):
                    continue
                runtime.free(old.refs())
            for array in table.columns().values():
                while isinstance(array, np.ndarray):
                    array.flags.writeable = False
                    array = array.base
            self.kept[name] = TableLayout(table)


def _gather(mode: GatherMode, values: List[Any]) -> Any:
    if mode == GatherMode.DIRECT:
        return values[0]
    if mode == GatherMode.LIST:
        return values
    if all(isinstance(v, RecordBatch) for v in values):
        return concat_batches(values)
    raise TypeError("CONCAT gather over non-RecordBatch values; use a keyed edge")


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
    key, n = task.split_key, task.split_n

    def run_split(batch: Any) -> Any:
        if not isinstance(batch, RecordBatch):
            raise TypeError(f"keyed edge over non-RecordBatch value ({type(batch)})")
        parts = hash_partition(batch, key, n)
        return parts if n > 1 else parts[0]

    run_split.__name__ = f"split_{key}"
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
    layouts: Optional[TableLayouts] = None,
) -> Dict[str, List[ObjectRef]]:
    """Submit every physical task; returns vertex_id -> shard output refs.

    ``tables`` backs source vertices and IR ``scan`` ops.  When
    ``gang_group`` is given, all tasks are submitted as one gang (SPMD).
    ``strict`` sanitizes the plan first and refuses to launch on errors
    (defaults to the runtime's ``strict_plans`` config).  ``layouts`` are the
    table layouts kept from earlier launches (a table it does not keep is
    laid out for this launch only).
    """
    _sanitize_before_launch(runtime, pgraph, strict)
    tables = dict(tables or {})
    layouts = TableLayouts() if layouts is None else layouts
    laid_out = dict(layouts.kept)
    memo_keys: Dict[str, Tuple[TableLayout, Tuple[Any, ...]]] = {}  # ptask -> its memo slot
    refs: Dict[str, List[ObjectRef]] = {}  # ptask -> its outputs

    def read(producer_id: str, shard: int) -> ObjectRef:
        return refs[producer_id][pgraph.tasks[producer_id].output_read_by(shard)]

    for ptask_id in pgraph.order:
        task = pgraph.tasks[ptask_id]
        vertex = pgraph.logical.vertices[task.vertex_id]
        layout, key = None, ()

        if task.kind == "source":
            table_name, columns = vertex.source_table, vertex.source_columns
            assert table_name is not None
            if table_name not in tables:
                raise KeyError(
                    f"source vertex {vertex.name!r} needs table {table_name!r}"
                )
            table = tables[table_name]
            layout = laid_out.get(table_name)
            if layout is None or layout.table is not table:
                layout = laid_out[table_name] = TableLayout(table)
            key = (columns, task.shard, task.parallelism)
            if columns not in layout.puts:
                # a projection is a view: no copy, and only its columns count
                layout.puts[columns] = runtime.put(
                    table if columns is None else table.select(columns)
                )
            fn = _make_source_fn(vertex, task.shard, task.parallelism)
            args = (layout.puts[columns],)
        elif task.kind == "split":
            input_id = task.inputs[0][1][0]
            if input_id in memo_keys:
                layout, input_key = memo_keys[input_id]
                key = (input_key, task.split_key, task.split_n)
            fn = _make_split_fn(task)
            args = (read(input_id, task.shard),)
        else:
            fn = _make_compute_fn(vertex, task, tables)
            args = tuple([read(pid, task.shard) for pid in pids] for _, pids in task.inputs)
            if vertex.py_func is coalesce:
                kept = [memo_keys.get(pid) for (_, pids) in task.inputs for pid in pids]
                if all(kept) and len({id(slot[0]) for slot in kept}) == 1:
                    layout, key = kept[0][0], ("coalesce", *(slot[1] for slot in kept))

        if layout is not None:
            memo_keys[ptask_id] = (layout, key)
            if key in layout.tasks:
                layouts.reused += 1
                refs[ptask_id] = layout.tasks[key]
                continue

        outputs = runtime.submit(
            fn,
            args,
            compute_cost=task.compute_cost,
            output_nbytes=task.output_nbytes,
            supported_kinds=task.supported_kinds,
            pinned_device=task.pinned_device,
            name=task.name,
            gang_group=gang_group,
            num_returns=task.num_outputs,
        )
        refs[ptask_id] = outputs if task.num_outputs > 1 else [outputs]
        if layout is not None:
            layout.tasks[key] = refs[ptask_id]

    if gang_group is not None:
        runtime.launch_gang(gang_group)

    return {
        vertex_id: [refs[pid][0] for pid in ptask_ids]
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
