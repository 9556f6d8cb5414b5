"""FlowGraph: logical and physical graph tiers of the access layer."""

from .launch import collect_sink, launch_physical_graph
from .logical import Edge, FlowGraph, GraphValidationError, Vertex
from .optimizer import (
    GraphOptStats,
    fuse_linear_chains,
    optimize,
    prune_dead_vertices,
)
from .physical import PhysicalGraph, PhysicalTask, to_physical

__all__ = [
    "FlowGraph",
    "Vertex",
    "Edge",
    "GraphValidationError",
    "optimize",
    "fuse_linear_chains",
    "prune_dead_vertices",
    "GraphOptStats",
    "PhysicalGraph",
    "PhysicalTask",
    "to_physical",
    "launch_physical_graph",
    "collect_sink",
]
