#!/usr/bin/env python3
"""Graph processing on the distributed runtime: PageRank as a FlowGraph.

One of the execution models the runtime must host (§1): graph systems.
PageRank supersteps unroll into P-way sharded FlowGraph vertices whose
messages ride a keyed scatter -> apply edge; the runtime executes them over
the simulated disaggregated cluster and the result matches the
single-process oracle to float tolerance.

Run:  python examples/graph_processing.py
"""

from __future__ import annotations

import numpy as np

from repro.bench import fmt_bytes, fmt_seconds
from repro.cluster import build_physical_disagg
from repro.flowgraph import collect_sink, launch_physical_graph, to_physical
from repro.frontends.graph import (
    EdgeList,
    connected_components,
    pagerank,
    pagerank_flowgraph,
    sssp,
)
from repro.runtime import ServerlessRuntime


def main() -> None:
    edges = EdgeList.random(num_vertices=2_000, num_edges=12_000, seed=3)
    print(f"graph: {edges.num_vertices} vertices, {edges.num_edges} edges")

    # --- distributed PageRank ---------------------------------------------
    iterations = 8
    graph, sink, tables = pagerank_flowgraph(edges, iterations=iterations, partitions=4)
    cluster = build_physical_disagg()
    rt = ServerlessRuntime(cluster)
    outputs = launch_physical_graph(rt, to_physical(graph), tables=tables)
    result = collect_sink(rt, outputs, sink)

    ranks = np.zeros(edges.num_vertices)
    ranks[result.column("vid")] = result.column("rank")
    oracle = pagerank(edges, iterations=iterations)
    assert np.allclose(ranks, oracle), "distributed PageRank diverged"

    top = np.argsort(ranks)[::-1][:5]
    print(f"\nPageRank ({iterations} supersteps, distributed):")
    for v in top:
        print(f"  vertex {v:>4}: rank {ranks[v]:.6f}")
    print(
        f"  {rt.tasks_finished} tasks, {fmt_seconds(rt.sim.now)} virtual, "
        f"{fmt_bytes(rt.bytes_moved)} moved"
    )

    # --- companions: SSSP and connected components -------------------------
    dist = sssp(edges, source=int(top[0]))
    reachable = np.isfinite(dist).sum()
    print(f"\nSSSP from vertex {top[0]}: {reachable} reachable, "
          f"median distance {np.median(dist[np.isfinite(dist)]):.3f}")

    labels = connected_components(edges)
    sizes = np.bincount(labels)
    sizes = sizes[sizes > 0]
    print(f"connected components: {len(sizes)} "
          f"(largest {sizes.max()} vertices)")


if __name__ == "__main__":
    main()
