"""FlowGraph: the logical graph tier of the access layer.

"FlowGraph is a classical data flow graph" (§2.2): vertices are ops —
either hardware-agnostic IR functions (the MLIR-based vertices) or
handcrafted Python/numpy operators — and directed edges dictate how data
flows between them.  Edges may be *keyed* (Figure 2's dashed edges): the
physical tier shards them with a hash scheme.

The graph says nothing about when or who executes a vertex — "a task
delegated to Skadi's stateful serverless runtime" (§1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..cluster.hardware import DeviceKind
from ..ir.core import Function
from ..runtime.task import ANY_COMPUTE_KIND

__all__ = ["Vertex", "Edge", "FlowGraph", "GraphValidationError"]


class GraphValidationError(ValueError):
    pass


@dataclass
class Vertex:
    """One operator in the logical graph.

    Exactly one of ``ir_func`` / ``py_func`` / ``source_table`` is set:

    * ``ir_func`` — a hardware-agnostic IR function (MLIR-based vertex);
      its params bind the vertex inputs in order.
    * ``py_func`` — a handcrafted operator ``fn(*inputs) -> output``.
    * ``source_table`` — a named input table (graph source); it ships only
      ``source_columns`` of it (``None``: every column).
    """

    vertex_id: str
    name: str
    ir_func: Optional[Function] = None
    py_func: Optional[Callable[..., Any]] = None
    source_table: Optional[str] = None
    source_columns: Optional[Tuple[str, ...]] = None
    compute_cost: float = 1e-4  # CPU-seconds for the whole (unsharded) vertex
    output_nbytes: Optional[int] = None
    supported_kinds: FrozenSet[DeviceKind] = frozenset({DeviceKind.CPU})
    parallelism: int = 1  # default degree, refined at physical lowering

    def __post_init__(self) -> None:
        payloads = [
            p for p in (self.ir_func, self.py_func, self.source_table) if p is not None
        ]
        if len(payloads) != 1:
            raise GraphValidationError(
                f"vertex {self.vertex_id!r} must have exactly one payload, got {len(payloads)}"
            )
        if self.parallelism < 1:
            raise GraphValidationError(
                f"vertex {self.vertex_id!r} has parallelism {self.parallelism}"
            )
        if self.compute_cost < 0:
            raise GraphValidationError(f"vertex {self.vertex_id!r} has negative cost")

    @property
    def is_source(self) -> bool:
        return self.source_table is not None

    @property
    def num_inputs(self) -> int:
        if self.is_source:
            return 0
        if self.ir_func is not None:
            return len(self.ir_func.params)
        return -1  # py_func: variadic, checked against edges at validation

    def __repr__(self) -> str:
        return f"Vertex({self.vertex_id}:{self.name})"


@dataclass(frozen=True)
class Edge:
    """Directed data flow from ``src`` into input slot ``dst_port`` of ``dst``.

    ``key`` names a column for hash sharding (a keyed edge).
    """

    src: str
    dst: str
    dst_port: int = 0
    key: Optional[str] = None


class FlowGraph:
    """A DAG of vertices and (possibly keyed) edges."""

    def __init__(self, name: str = "flow"):
        self.name = name
        self.vertices: Dict[str, Vertex] = {}
        self.edges: List[Edge] = []
        self._ids = itertools.count()

    # -- construction ------------------------------------------------------------

    def add_vertex(
        self,
        name: str,
        *,
        ir_func: Optional[Function] = None,
        py_func: Optional[Callable[..., Any]] = None,
        source_table: Optional[str] = None,
        source_columns: Optional[Tuple[str, ...]] = None,
        compute_cost: float = 1e-4,
        output_nbytes: Optional[int] = None,
        supported_kinds: Optional[FrozenSet[DeviceKind]] = None,
        parallelism: int = 1,
    ) -> Vertex:
        vertex_id = f"v{next(self._ids)}"
        if supported_kinds is None:
            # IR vertices are hardware-agnostic; handcrafted ops default to CPU
            supported_kinds = (
                ANY_COMPUTE_KIND if ir_func is not None else frozenset({DeviceKind.CPU})
            )
        vertex = Vertex(
            vertex_id=vertex_id,
            name=name,
            ir_func=ir_func,
            py_func=py_func,
            source_table=source_table,
            source_columns=source_columns,
            compute_cost=compute_cost,
            output_nbytes=output_nbytes,
            supported_kinds=supported_kinds,
            parallelism=parallelism,
        )
        self.vertices[vertex_id] = vertex
        return vertex

    def add_edge(
        self, src: Vertex, dst: Vertex, dst_port: int = 0, key: Optional[str] = None
    ) -> Edge:
        for vertex in (src, dst):
            if self.vertices.get(vertex.vertex_id) is not vertex:
                raise GraphValidationError(f"{vertex!r} is not in this graph")
        edge = Edge(src.vertex_id, dst.vertex_id, dst_port, key)
        self.edges.append(edge)
        return edge

    # -- structure queries ----------------------------------------------------------

    def in_edges(self, vertex_id: str) -> List[Edge]:
        return sorted(
            (e for e in self.edges if e.dst == vertex_id), key=lambda e: e.dst_port
        )

    def out_edges(self, vertex_id: str) -> List[Edge]:
        return [e for e in self.edges if e.src == vertex_id]

    def sources(self) -> List[Vertex]:
        has_in = {e.dst for e in self.edges}
        return [v for v in self.vertices.values() if v.vertex_id not in has_in]

    def sinks(self) -> List[Vertex]:
        has_out = {e.src for e in self.edges}
        return [v for v in self.vertices.values() if v.vertex_id not in has_out]

    def topological_order(self) -> List[Vertex]:
        in_degree = {vid: len(self.in_edges(vid)) for vid in self.vertices}
        ready = sorted(vid for vid, deg in in_degree.items() if deg == 0)
        order: List[Vertex] = []
        while ready:
            vid = ready.pop(0)
            order.append(self.vertices[vid])
            decremented = []
            for edge in self.out_edges(vid):
                in_degree[edge.dst] -= 1
                if in_degree[edge.dst] == 0:
                    decremented.append(edge.dst)
            ready.extend(sorted(set(decremented)))
        if len(order) != len(self.vertices):
            raise GraphValidationError(f"graph {self.name!r} has a cycle")
        return order

    # -- validation --------------------------------------------------------------------

    def validate(self) -> None:
        self.topological_order()  # raises on cycles
        for edge in self.edges:
            if edge.src not in self.vertices or edge.dst not in self.vertices:
                raise GraphValidationError(f"edge {edge} references unknown vertex")
        for vertex in self.vertices.values():
            in_edges = self.in_edges(vertex.vertex_id)
            ports = [e.dst_port for e in in_edges]
            if sorted(ports) != list(range(len(ports))):
                raise GraphValidationError(
                    f"{vertex!r}: input ports {sorted(ports)} are not dense from 0"
                )
            expected = vertex.num_inputs
            if expected >= 0 and len(in_edges) != expected:
                raise GraphValidationError(
                    f"{vertex!r} expects {expected} inputs, has {len(in_edges)} edges"
                )
            if vertex.is_source and in_edges:
                raise GraphValidationError(f"source {vertex!r} has incoming edges")

    def __repr__(self) -> str:
        return (
            f"FlowGraph({self.name}, {len(self.vertices)} vertices, "
            f"{len(self.edges)} edges)"
        )
