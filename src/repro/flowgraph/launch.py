"""Launching physical graphs on the stateful serverless runtime.

The bridge Figure 2 sketches as pseudo-code ("b = [B.remote() ...]"): walk
the physical graph in topological order and submit one runtime task per
physical task, passing futures between them.  Each table is ``put`` once per
set of columns no kept shard holds; source shards slice it.  The producer of a
keyed edge hash-partitions its own slice or payload in the same task, one
output per consumer shard (``submit(num_returns=...)``).  A task that reads
several shards of one input concatenates them (a shuffle's partitions, a sort,
a limit, the final of a two-phase aggregate, a ``coalesce``).

A table's layout — those puts, its source shards (hash-partitioned or not) and
the ``coalesce`` of its shards that a broadcast join reads — is a fact about
the table, not the query, so ``TableLayouts`` keeps it across launches (Ray's
objects are immutable, which is what lets every later query share one copy).
A source task is keyed on ``(source columns, shard, parallelism, partition
key, partition count)`` of its table, a coalesce on ``("coalesce", *its input
shards' keys)``; a task downstream of a compute vertex belongs to its query and
is never reused.  A source is also answered by kept shards that hold more
columns (``TableLayout.answer``), and its readers take a view of its own, so a
table's column crosses to a device once, not once per column set.  On a hit
the launch hands out the kept refs and submits nothing; a lost copy comes back
by lineage replay from the kept put or the kept shards, like any task output.
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
from .physical import PhysicalGraph, PhysicalTask

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
    # by memo key: a task's outputs (n for a keyed edge's producer, else one)
    tasks: Dict[Tuple[Any, ...], List[ObjectRef]] = field(default_factory=dict)

    def refs(self) -> List[ObjectRef]:
        return [*self.puts.values(), *(ref for outs in self.tasks.values() for ref in outs)]

    def answer(self, key: Tuple[Any, ...]) -> Optional[Tuple[Any, ...]]:
        """The kept key that answers source ``key``: itself, else the narrowest
        that only adds columns (``None``: all; a tie goes to the first kept)."""
        if key in self.tasks:
            return key
        wider = [  # a coalesce key never matches key[1:]
            kept for kept in self.tasks if kept[1:] == key[1:]
            and (kept[0] is None or key[0] is not None and set(key[0]) <= set(kept[0]))
        ]
        return min(wider, key=lambda kept: len(kept[0] or self.table.schema.names), default=None)


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

    def layout(self, runtime: ServerlessRuntime, tables: Mapping[str, Any], name: str):
        """The kept layout of ``tables[name]``, if its puts still have a copy."""
        old, is_ready = self.kept.get(name), runtime.ownership.is_ready
        whole = old is not None and all(is_ready(r.object_id) for r in old.puts.values())
        return old if whole and old.table is tables[name] else None

    def keep(self, runtime: ServerlessRuntime, tables: Mapping[str, Any]) -> None:
        for name, table in tables.items():
            if not isinstance(table, RecordBatch) or self.layout(runtime, tables, name):
                continue
            if name in self.kept:
                runtime.free(self.kept[name].refs())
            for array in table.columns().values():
                while isinstance(array, np.ndarray):
                    array.flags.writeable = False
                    array = array.base
            self.kept[name] = TableLayout(table)


def _gather(values: List[Any], columns: Optional[Tuple[str, ...]] = None) -> Any:
    if columns is not None:  # read from wider kept shards: view the columns asked for
        values = [v.select(columns) for v in values]
    if len(values) == 1:
        return values[0]
    if all(isinstance(v, RecordBatch) for v in values):
        return concat_batches(values)
    raise TypeError("gather over non-RecordBatch values; use a keyed edge")


def _partitioned(task: PhysicalTask, value: Any) -> Any:
    """A keyed edge's producer hands out ``value``'s hash partitions, one per
    consumer shard; any other task hands out ``value``."""
    if task.partition_key is None:
        return value
    if not isinstance(value, RecordBatch):
        raise TypeError(f"keyed edge over non-RecordBatch value ({type(value)})")
    return hash_partition(value, task.partition_key, task.num_outputs)


def _make_source_fn(vertex: Vertex, task: PhysicalTask):
    shard, n = task.shard, task.parallelism

    def run_source(table: Any) -> Any:
        if not isinstance(table, RecordBatch):
            if n != 1:
                raise GraphValidationError(
                    f"source {vertex.name!r}: only RecordBatch tables can be sharded"
                )
            return _partitioned(task, table)
        rows = table.num_rows
        lo = rows * shard // n
        hi = rows * (shard + 1) // n
        return _partitioned(task, table.slice(lo, hi - lo))

    run_source.__name__ = f"source_{vertex.name}"
    return run_source


def source_key(vertex: Vertex, task: PhysicalTask) -> Tuple[Any, ...]:
    """A source task's memo key in its table's layout."""
    return (vertex.source_columns, task.shard, task.parallelism, task.partition_key,
            task.num_outputs)


def _make_compute_fn(vertex: Vertex, task: PhysicalTask, tables: Mapping[str, Any], views):
    def run_compute(*port_values: Any) -> Any:
        values = [_gather(list(v), c) for v, c in zip(port_values, views, strict=True)]
        if vertex.ir_func is not None:
            inputs = {
                param.name: value
                for param, value in zip(vertex.ir_func.params, values, strict=False)
            }
            outs = Interpreter(tables).run(vertex.ir_func, inputs)
            return _partitioned(task, outs[0] if len(outs) == 1 else tuple(outs))
        assert vertex.py_func is not None
        return _partitioned(task, vertex.py_func(*values))

    run_compute.__name__ = vertex.name or "compute"
    return run_compute


def _sanitize_before_launch(
    runtime: ServerlessRuntime, pgraph: PhysicalGraph, strict: bool
) -> None:
    """Static plan checks before any task is submitted.

    Strict mode refuses to launch a plan with errors; an active analysis
    session additionally collects every finding even when not strict."""
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
    strict: bool = False,
    layouts: Optional[TableLayouts] = None,
) -> Dict[str, List[ObjectRef]]:
    """Submit every physical task; returns sink vertex_id -> shard output refs
    (a keyed edge's producer shard has no single output to hand out).

    ``tables`` backs source vertices and IR ``scan`` ops.  When
    ``gang_group`` is given, all tasks are submitted as one gang (SPMD).
    ``strict`` sanitizes the plan first (cycles, orphan tasks, placement
    hazards, memory over-subscription) and refuses to launch on errors.
    ``layouts`` are the table layouts kept from earlier launches (a table it
    does not keep is laid out for this launch only).
    """
    _sanitize_before_launch(runtime, pgraph, strict)
    tables = dict(tables or {})
    layouts = TableLayouts() if layouts is None else layouts
    laid_out = dict(layouts.kept)
    memo_keys: Dict[str, Tuple[TableLayout, Tuple[Any, ...]]] = {}  # ptask -> its memo slot
    refs: Dict[str, List[ObjectRef]] = {}  # ptask -> its outputs
    # ptask -> its columns if its refs hold more; every shard of a vertex is answered alike
    views: Dict[str, Optional[Tuple[str, ...]]] = {}

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
            key = source_key(vertex, task)
            wider = layout.answer(key)
            if wider is not None and wider != key:
                key, views[ptask_id] = wider, columns
            elif wider is None and columns not in layout.puts:
                # a projection is a view: no copy, and only its columns count
                layout.puts[columns] = runtime.put(
                    table if columns is None else table.select(columns)
                )
            fn = _make_source_fn(vertex, task)
            args = (layout.puts.get(columns),)
        else:
            port_views = [views.get(pids[0]) for pids in task.inputs]
            args = tuple([read(pid, task.shard) for pid in pids] for pids in task.inputs)
            if vertex.py_func is coalesce:  # passes wider shards on whole: its readers view
                views[ptask_id], port_views = port_views[0], [None]
                kept = [memo_keys.get(pid) for pids in task.inputs for pid in pids]
                if all(kept) and len({id(slot[0]) for slot in kept}) == 1:
                    layout, key = kept[0][0], ("coalesce", *(slot[1] for slot in kept))
            fn = _make_compute_fn(vertex, task, tables, port_views)

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
        for vertex_id, ptask_ids in pgraph.sink_tasks().items()
    }


def collect_sink(
    runtime: ServerlessRuntime,
    outputs: Dict[str, List[ObjectRef]],
    vertex: Vertex,
) -> Any:
    """Fetch and merge one vertex's shard outputs (concat for frames)."""
    values = runtime.get(outputs[vertex.vertex_id])
    if vertex.source_columns is not None:  # a source sink may read wider kept shards
        values = [v.select(vertex.source_columns) for v in values]
    if len(values) == 1:
        return values[0]
    if all(isinstance(v, RecordBatch) for v in values):
        return concat_batches(values)
    return values
