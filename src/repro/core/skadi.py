"""The Skadi facade: one runtime for SQL, dataframes, graphs, streaming, ML.

"Skadi enables users to use only one runtime to express all of their
programs" (§2.1).  This class wires the whole stack: declarative input ->
relational IR -> optimization -> FlowGraph -> physical sharded graph ->
stateful serverless runtime over a simulated disaggregated cluster — and
returns real values.

The tables a query reads are immutable from its first launch on: Skadi lays
each one out once (its puts, source shards and hash partitions,
``flowgraph.launch.TableLayouts``) and every later query over the same table
object reuses that layout.  Writing into a queried table's columns raises
``ValueError``; to change a table, bind its name to a new ``RecordBatch``, and
the old layout is freed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from ..caching.columnar import RecordBatch
from ..cluster.cluster import Cluster, build_physical_disagg
from ..flowgraph.launch import TableLayouts, collect_sink, launch_physical_graph
from ..flowgraph.logical import FlowGraph, Vertex
from ..flowgraph.optimizer import GraphOptStats, optimize
from ..flowgraph.physical import to_physical
from ..frontends.dataframe import DataFrame
from ..frontends.sql.planner import sql_to_ir
from ..ir.core import Function
from ..ir.lowering import lower_relational_to_df, optimize_and_lower
from ..ir.passes import OBSERVER
from ..ir.types import FrameType
from ..runtime.config import RuntimeConfig
from ..runtime.object_ref import ObjectRef
from ..runtime.runtime import ServerlessRuntime
from .planner import ir_to_flowgraph

__all__ = ["Skadi", "QueryReport"]


def _catalog_of(tables: Mapping[str, RecordBatch]) -> Dict[str, FrameType]:
    return {
        name: FrameType(tuple((f.name, f.dtype.name) for f in batch.schema.fields))
        for name, batch in tables.items()
    }


@dataclass
class QueryReport:
    """What happened while answering one declarative query."""

    ir_text: str = ""
    lowered_text: str = ""
    graph_vertices: int = 0
    physical_tasks: int = 0  # the plan's size, reused tasks included
    reused_tasks: int = 0  # physical tasks a kept table layout answered
    sim_seconds: float = 0.0
    bytes_moved: int = 0
    control_messages: int = 0
    opt_stats: Optional[GraphOptStats] = None


class Skadi:
    """The distributed runtime, end to end."""

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        config: Optional[RuntimeConfig] = None,
        shards: int = 2,
        optimize_graph: bool = True,
        optimize_ir: bool = True,
        broadcast_threshold: int = 5_000,
    ):
        self.cluster = cluster or build_physical_disagg()
        self.runtime = ServerlessRuntime(self.cluster, config)
        self.shards = shards
        self.optimize_graph = optimize_graph
        self.optimize_ir = optimize_ir
        self.broadcast_threshold = broadcast_threshold
        self.last_report = QueryReport()
        self.layouts = TableLayouts()

    # -- declarative entry points -------------------------------------------------

    def sql(self, query: str, tables: Mapping[str, RecordBatch]) -> RecordBatch:
        """Run a SQL query distributed over the cluster."""
        func = sql_to_ir(query, _catalog_of(tables))
        return self._run_ir(func, tables)

    def dataframe(self, frame: DataFrame, tables: Mapping[str, RecordBatch]) -> RecordBatch:
        """Execute a lazy dataframe plan distributed over the cluster."""
        return self._run_ir(frame.to_ir(), tables)

    def explain(self, query: str, tables: Mapping[str, RecordBatch]) -> str:
        """Plan a SQL query without executing it; returns the plan report.

        Shows the logical relational IR, the optimized/lowered df IR, and
        the FlowGraph/physical shape — the tiers of Figure 2 as text.
        """
        func = sql_to_ir(query, _catalog_of(tables))
        lines = ["== logical (relational) IR ==", func.to_text()]
        lowered, graph, _sink, _stats = self._plan(func, tables)
        if self.optimize_ir:
            lines += ["", "== after relational rules ==", func.to_text()]
        lines += ["", "== lowered (df/kernel) IR ==", lowered.to_text()]
        lines += ["", "== flowgraph =="]
        lines.extend(
            f"  {vertex.vertex_id} {vertex.name} x{vertex.parallelism}"
            for vertex in graph.topological_order()
        )
        for edge in graph.edges:
            keyed = f" [shuffle on {edge.key!r}]" if edge.key else ""
            lines.append(f"  {edge.src} -> {edge.dst}:{edge.dst_port}{keyed}")
        lines.append(f"  physical tasks: {to_physical(graph).num_tasks}")
        return "\n".join(lines)

    def _plan(self, func: Function, tables: Mapping[str, RecordBatch]):
        """Relational IR -> optimized FlowGraph, spelled once: ``explain``
        describes the plan ``_run_ir`` executes.  Optimizes ``func`` in place
        (lowering builds a new function); returns ``(lowered, graph, sink,
        graph optimizer stats)``."""
        if self.optimize_ir:
            lowered = optimize_and_lower(func)
        else:
            lowered = lower_relational_to_df(func)
        graph, sink = ir_to_flowgraph(
            lowered,
            shards=self.shards,
            table_rows={name: batch.num_rows for name, batch in tables.items()},
            broadcast_threshold=self.broadcast_threshold,
        )
        opt_stats = None
        if self.optimize_graph:
            opt_stats = optimize(graph)
            # fusion may replace the sink vertex; re-locate it
            sink = self._sink_after_optimize(graph, sink)
        return lowered, graph, sink, opt_stats

    def _run_ir(self, func: Function, tables: Mapping[str, RecordBatch]) -> RecordBatch:
        report = QueryReport(ir_text=func.to_text())
        lowered, graph, sink, report.opt_stats = self._plan(func, tables)
        report.lowered_text = lowered.to_text()
        if OBSERVER.session is not None:  # under ``python -m repro.analysis``
            OBSERVER.session.record_function(lowered)
        report.graph_vertices = len(graph.vertices)
        result = self.run_flowgraph(graph, sink, tables, report=report)
        self.last_report = report
        return result

    @staticmethod
    def _sink_after_optimize(graph: FlowGraph, sink: Vertex) -> Vertex:
        if sink.vertex_id in graph.vertices:
            return sink
        sinks = graph.sinks()
        if len(sinks) != 1:
            raise RuntimeError(
                f"cannot identify query sink after optimization ({len(sinks)} sinks)"
            )
        return sinks[0]

    # -- graph execution ------------------------------------------------------------

    def run_flowgraph(
        self,
        graph: FlowGraph,
        sink: Vertex,
        tables: Mapping[str, Any],
        report: Optional[QueryReport] = None,
        strict: Optional[bool] = None,
    ) -> Any:
        pgraph = to_physical(graph)
        start_time = self.runtime.sim.now
        start_bytes = self.runtime.bytes_moved
        start_msgs = self.runtime.control_messages
        start_reused = self.layouts.reused
        self.layouts.keep(self.runtime, tables)
        outputs = launch_physical_graph(
            self.runtime, pgraph, tables=tables, strict=strict, layouts=self.layouts
        )
        result = collect_sink(self.runtime, outputs, sink)
        if report is not None:
            report.physical_tasks = pgraph.num_tasks
            report.reused_tasks = self.layouts.reused - start_reused
            report.sim_seconds = self.runtime.sim.now - start_time
            report.bytes_moved = self.runtime.bytes_moved - start_bytes
            report.control_messages = self.runtime.control_messages - start_msgs
        return result

    # -- task API passthrough ----------------------------------------------------------

    def submit(self, func, args=(), **kwargs) -> ObjectRef:
        return self.runtime.submit(func, args, **kwargs)

    def get(self, refs):
        return self.runtime.get(refs)

    def put(self, value) -> ObjectRef:
        return self.runtime.put(value)

    @property
    def sim_now(self) -> float:
        return self.runtime.sim.now
