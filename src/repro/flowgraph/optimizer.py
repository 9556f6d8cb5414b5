"""Graph-level optimization rules over FlowGraphs.

§2.1 step (2): Skadi "optimizes the graph using predefined rules".  Rules
here operate across application domains because every vertex already
speaks the common IR:

* :func:`fuse_linear_chains` — merge producer->consumer pairs of IR
  vertices when the producer has exactly one consumer and parallelism
  matches; the merged vertex concatenates the two IR functions, so one
  task materializes one output instead of two.
* :func:`prune_dead_vertices` — drop vertices that cannot reach a sink the
  caller marked live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..ir.core import Builder, Function, Value
from .logical import Edge, FlowGraph, GraphValidationError, Vertex

__all__ = ["optimize", "fuse_linear_chains", "prune_dead_vertices", "GraphOptStats"]


@dataclass
class GraphOptStats:
    vertices_fused: int = 0
    vertices_pruned: int = 0


def _concat_ir(producer: Function, consumer: Function, port: int, name: str) -> Function:
    """Inline ``producer`` into ``consumer``'s param ``port``."""
    builder = Builder(name)
    mapping: Dict[int, Value] = {}
    for param in producer.params:
        mapping[id(param)] = builder.add_param(param.name, param.type)
    for op in producer.ops:
        new = builder.emit(
            op.dialect, op.name, [mapping[id(v)] for v in op.operands], dict(op.attrs)
        )
        for old_v, new_v in zip(op.results, new.results, strict=False):
            mapping[id(old_v)] = new_v
    if len(producer.returns) != 1:
        raise GraphValidationError("can only fuse single-output producer vertices")
    produced = mapping[id(producer.returns[0])]
    for i, param in enumerate(consumer.params):
        if i == port:
            mapping[id(param)] = produced
        else:
            mapping[id(param)] = builder.add_param(f"c_{param.name}", param.type)
    for op in consumer.ops:
        new = builder.emit(
            op.dialect, op.name, [mapping[id(v)] for v in op.operands], dict(op.attrs)
        )
        for old_v, new_v in zip(op.results, new.results, strict=False):
            mapping[id(old_v)] = new_v
    fused = builder.ret(*[mapping[id(v)] for v in consumer.returns])
    fused.verify()
    return fused


def fuse_linear_chains(graph: FlowGraph, stats: Optional[GraphOptStats] = None) -> int:
    """Repeatedly merge single-consumer IR vertex pairs; returns #fusions."""
    stats = stats or GraphOptStats()
    fused_total = 0
    changed = True
    while changed:
        changed = False
        for edge in list(graph.edges):
            src = graph.vertices.get(edge.src)
            dst = graph.vertices.get(edge.dst)
            if src is None or dst is None:
                continue
            if src.ir_func is None or dst.ir_func is None:
                continue
            if edge.key is not None:
                continue  # keyed edges force a shuffle; cannot fuse across
            if len(graph.out_edges(src.vertex_id)) != 1:
                continue
            if src.parallelism != dst.parallelism:
                continue
            fused_func = _concat_ir(
                src.ir_func, dst.ir_func, edge.dst_port, f"{src.name}+{dst.name}"
            )
            fused_vertex = graph.add_vertex(
                f"{src.name}+{dst.name}",
                ir_func=fused_func,
                compute_cost=src.compute_cost + dst.compute_cost,
                output_nbytes=dst.output_nbytes,
                supported_kinds=src.supported_kinds & dst.supported_kinds
                or src.supported_kinds,
                parallelism=dst.parallelism,
            )
            _rewire_after_fusion(graph, src, dst, edge, fused_vertex)
            fused_total += 1
            stats.vertices_fused += 1
            changed = True
            break
    graph.validate()
    return fused_total


def _rewire_after_fusion(
    graph: FlowGraph, src: Vertex, dst: Vertex, via: Edge, fused: Vertex
) -> None:
    """Producer inputs come first in the fused param list, then consumer's
    remaining inputs (consumer port ``via.dst_port`` was inlined)."""
    new_edges: List[Edge] = []
    n_src_inputs = len(graph.in_edges(src.vertex_id))
    for edge in graph.edges:
        if edge is via:
            continue
        if edge.dst == src.vertex_id:
            new_edges.append(Edge(edge.src, fused.vertex_id, edge.dst_port, edge.key))
        elif edge.dst == dst.vertex_id:
            port = edge.dst_port
            new_port = n_src_inputs + (port if port < via.dst_port else port - 1)
            new_edges.append(Edge(edge.src, fused.vertex_id, new_port, edge.key))
        elif edge.src == dst.vertex_id:
            new_edges.append(Edge(fused.vertex_id, edge.dst, edge.dst_port, edge.key))
        elif edge.src == src.vertex_id:
            raise GraphValidationError("producer had multiple consumers")  # guarded above
        else:
            new_edges.append(edge)
    graph.edges = new_edges
    del graph.vertices[src.vertex_id]
    del graph.vertices[dst.vertex_id]


def prune_dead_vertices(
    graph: FlowGraph,
    live_sinks: Optional[Sequence[Vertex]] = None,
    stats: Optional[GraphOptStats] = None,
) -> int:
    """Remove vertices from which no live sink is reachable."""
    stats = stats or GraphOptStats()
    live: Set[str] = {
        v.vertex_id for v in (live_sinks if live_sinks is not None else graph.sinks())
    }
    changed = True
    while changed:
        changed = False
        for edge in graph.edges:
            if edge.dst in live and edge.src not in live:
                live.add(edge.src)
                changed = True
    dead = [vid for vid in graph.vertices if vid not in live]
    for vid in dead:
        del graph.vertices[vid]
        stats.vertices_pruned += 1
    graph.edges = [e for e in graph.edges if e.src in live and e.dst in live]
    graph.validate()
    return len(dead)


def optimize(graph: FlowGraph) -> GraphOptStats:
    """The default rule set: prune, then fuse."""
    stats = GraphOptStats()
    prune_dead_vertices(graph, stats=stats)
    fuse_linear_chains(graph, stats=stats)
    return stats
