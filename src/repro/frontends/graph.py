"""Graph-processing frontend: Pregel-style vertex programs.

Covers the "graph" execution model of §1 (PowerGraph/GraphX lineage).
Provides exact single-process algorithms (PageRank, SSSP, connected
components, used as oracles) plus :func:`pagerank_flowgraph`, which unrolls
P-way sharded supersteps into a FlowGraph whose message exchange rides the
keyed-edge shuffle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..caching.columnar import RecordBatch
from ..flowgraph.logical import FlowGraph, Vertex

__all__ = [
    "EdgeList",
    "pagerank",
    "sssp",
    "connected_components",
    "pagerank_flowgraph",
]


@dataclass(frozen=True)
class EdgeList:
    """A directed graph as src/dst arrays over vertices 0..n-1."""

    num_vertices: int
    src: np.ndarray
    dst: np.ndarray
    weight: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if len(self.src) != len(self.dst):
            raise ValueError("src/dst length mismatch")
        if self.weight is not None and len(self.weight) != len(self.src):
            raise ValueError("weight length mismatch")
        for arr in (self.src, self.dst):
            if len(arr) and (arr.min() < 0 or arr.max() >= self.num_vertices):
                raise ValueError("edge endpoint out of range")

    @property
    def num_edges(self) -> int:
        return len(self.src)

    @staticmethod
    def random(num_vertices: int, num_edges: int, seed: int = 0) -> "EdgeList":
        rng = np.random.default_rng(seed)
        return EdgeList(
            num_vertices,
            rng.integers(0, num_vertices, num_edges),
            rng.integers(0, num_vertices, num_edges),
            weight=rng.random(num_edges),
        )

    def out_degree(self) -> np.ndarray:
        deg = np.zeros(self.num_vertices, dtype=np.int64)
        np.add.at(deg, self.src, 1)
        return deg


def pagerank(
    edges: EdgeList, iterations: int = 20, damping: float = 0.85
) -> np.ndarray:
    """Power iteration with dangling-mass redistribution."""
    n = edges.num_vertices
    rank = np.full(n, 1.0 / n)
    deg = edges.out_degree().astype(np.float64)
    dangling = deg == 0
    for _ in range(iterations):
        contrib = np.zeros(n)
        share = np.where(dangling, 0.0, rank / np.maximum(deg, 1.0))
        np.add.at(contrib, edges.dst, share[edges.src])
        dangling_mass = rank[dangling].sum() / n
        rank = (1 - damping) / n + damping * (contrib + dangling_mass)
    return rank


def sssp(edges: EdgeList, source: int, max_iterations: Optional[int] = None) -> np.ndarray:
    """Bellman-Ford single-source shortest paths (weights required)."""
    if edges.weight is None:
        raise ValueError("sssp needs edge weights")
    if not (0 <= source < edges.num_vertices):
        raise ValueError(f"source {source} out of range")
    dist = np.full(edges.num_vertices, np.inf)
    dist[source] = 0.0
    limit = max_iterations or edges.num_vertices - 1
    for _ in range(max(limit, 1)):
        candidate = dist[edges.src] + edges.weight
        new = dist.copy()
        np.minimum.at(new, edges.dst, candidate)
        if np.array_equal(
            new, dist, equal_nan=True
        ):
            break
        dist = new
    return dist


def connected_components(edges: EdgeList, max_iterations: Optional[int] = None) -> np.ndarray:
    """Label propagation over the undirected closure (min label wins)."""
    labels = np.arange(edges.num_vertices, dtype=np.int64)
    limit = max_iterations or edges.num_vertices
    for _ in range(max(limit, 1)):
        new = labels.copy()
        np.minimum.at(new, edges.dst, labels[edges.src])
        np.minimum.at(new, edges.src, labels[edges.dst])
        if np.array_equal(new, labels):
            break
        labels = new
    # compress chains: propagate each label to its root
    for _ in range(edges.num_vertices):
        root = labels[labels]
        if np.array_equal(root, labels):
            break
        labels = root
    return labels


def pagerank_flowgraph(
    edges: EdgeList,
    iterations: int = 5,
    partitions: int = 4,
    damping: float = 0.85,
) -> Tuple[FlowGraph, Vertex, Dict[str, RecordBatch]]:
    """Pregel PageRank unrolled into P-way sharded supersteps.

    The state is a (vid, rank) table in ``partitions`` shards.  Per
    superstep, each *scatter* shard emits (dst, contrib) messages for the
    edges out of its vertices (plus zero-rows for its own vertices so every
    vertex reappears downstream); the keyed edge hash-shuffles messages to
    the *apply* shard owning each destination; a one-task reduction
    computes the global dangling mass, broadcast to every apply shard.
    That is ``partitions + iterations * (2 * partitions + 1)`` tasks.
    Returns (graph, final sink vertex, source tables); the result matches
    :func:`pagerank` to float tolerance (the shuffle reorders the sums).
    """
    if partitions < 1:
        raise ValueError(f"partitions must be >= 1, got {partitions}")
    n = edges.num_vertices
    deg = edges.out_degree().astype(np.float64)
    dangling = deg == 0
    src_arr = edges.src.astype(np.int64)
    dst_arr = edges.dst.astype(np.int64)

    tables = {
        "rank0": RecordBatch.from_arrays(
            {"vid": np.arange(n, dtype=np.int64), "rank": np.full(n, 1.0 / n)}
        )
    }
    graph = FlowGraph(f"pagerank[{iterations}x{partitions}]")
    current = graph.add_vertex("rank0", source_table="rank0", parallelism=partitions)

    def scatter(state: RecordBatch) -> RecordBatch:
        vids = state.column("vid")
        ranks = state.column("rank")
        # contributions along out-edges of the vertices this shard owns
        mask = np.isin(src_arr, vids)
        rank_of = np.zeros(n)
        rank_of[vids] = ranks
        srcs = src_arr[mask]
        contribs = np.where(
            dangling[srcs], 0.0, rank_of[srcs] / np.maximum(deg[srcs], 1.0)
        )
        # zero-rows keep every owned vertex alive through the shuffle
        return RecordBatch.from_arrays(
            {
                "dst": np.concatenate([dst_arr[mask], vids]),
                "contrib": np.concatenate([contribs, np.zeros(len(vids))]),
            }
        )

    def dangling_mass(state: RecordBatch) -> RecordBatch:
        vids = state.column("vid")
        ranks = state.column("rank")
        mass = float(ranks[dangling[vids]].sum()) / n
        return RecordBatch.from_arrays({"mass": np.asarray([mass])})

    def apply_step(messages: RecordBatch, mass_batch: RecordBatch) -> RecordBatch:
        mass = float(mass_batch.column("mass").sum())
        order = np.argsort(messages.column("dst"), kind="stable")
        vids = messages.column("dst")[order]
        contribs = messages.column("contrib")[order]
        boundaries = np.flatnonzero(
            np.concatenate([[True], vids[1:] != vids[:-1]])
        )
        unique_vids = vids[boundaries]
        sums = np.add.reduceat(contribs, boundaries)
        new_rank = (1 - damping) / n + damping * (sums + mass)
        return RecordBatch.from_arrays({"vid": unique_vids, "rank": new_rank})

    edge_work = max(edges.num_edges, 1) * 2e-9
    for step in range(iterations):
        scatter_v = graph.add_vertex(
            f"scatter{step}", py_func=scatter, parallelism=partitions,
            compute_cost=edge_work,
        )
        graph.add_edge(current, scatter_v)
        mass_v = graph.add_vertex(
            f"dangling{step}", py_func=dangling_mass, parallelism=1,
            compute_cost=n * 1e-9,
        )
        # the dangling reduction gathers the shards of the current state
        graph.add_edge(current, mass_v)
        apply_v = graph.add_vertex(
            f"apply{step}", py_func=apply_step, parallelism=partitions,
            compute_cost=edge_work,
        )
        graph.add_edge(scatter_v, apply_v, dst_port=0, key="dst")
        graph.add_edge(mass_v, apply_v, dst_port=1)  # broadcast
        current = apply_v
    graph.validate()
    return graph, current, tables
