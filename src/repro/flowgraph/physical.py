"""The physical sharded graph tier.

Lowering a logical FlowGraph means "possibly creating sharded vertices
along keyed edges and then mapping vertices to hardware operators" (§1).
Concretely:

* every logical vertex becomes ``parallelism`` physical tasks (Figure 2's
  subscripts);
* a keyed edge from an m-way producer to an n-way consumer (n > 1) becomes
  a shuffle: each of the m producer shards hash-partitions its own output
  into n outputs (``partition_key``, ``num_outputs``), and consumer shard i
  reads output i of every producer shard, so only the partitions cross the
  network; a keyed edge into one shard partitions nothing;
* an unkeyed edge from m shards into one is a gather: the consumer
  concatenates every producer shard (how the planner's sorts, limits,
  broadcast sides and the final phase of a gathered aggregate read);
* hardware mapping is carried as ``supported_kinds`` plus optional
  per-shard device pins (how Figure 2's D becomes D1-gpu and D2-fpga).

An input port is the list of producer ids it reads: one value passes
through, several are concatenated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from ..cluster.hardware import DeviceKind
from .logical import FlowGraph, GraphValidationError, Vertex

__all__ = ["PhysicalTask", "PhysicalGraph", "to_physical"]


@dataclass
class PhysicalTask:
    ptask_id: str
    kind: str  # "source" | "compute"
    vertex_id: str
    name: str
    shard: int
    parallelism: int
    inputs: List[List[str]] = field(default_factory=list)  # per port: producer ids
    compute_cost: float = 1e-5
    output_nbytes: Optional[int] = None  # per output
    supported_kinds: FrozenSet[DeviceKind] = frozenset({DeviceKind.CPU})
    pinned_device: Optional[str] = None
    # a keyed edge's producer: hash on ``partition_key`` into ``num_outputs``
    partition_key: Optional[str] = None
    num_outputs: int = 1

    def output_read_by(self, shard: int) -> int:
        """Which of this task's outputs consumer shard ``shard`` reads: its
        partition ``shard`` of a keyed edge, else the only output."""
        return shard if self.num_outputs > 1 else 0

    def __repr__(self) -> str:
        return f"PhysicalTask({self.ptask_id}:{self.name})"


class PhysicalGraph:
    def __init__(self, logical: FlowGraph):
        self.logical = logical
        self.tasks: Dict[str, PhysicalTask] = {}
        self.order: List[str] = []  # topological
        self.shards_of: Dict[str, List[str]] = {}  # vertex_id -> ptask ids
        self._sink_cache: Optional[Dict[str, List[str]]] = None

    def add(self, task: PhysicalTask) -> PhysicalTask:
        if task.ptask_id in self.tasks:
            raise GraphValidationError(f"duplicate physical task {task.ptask_id!r}")
        self.tasks[task.ptask_id] = task
        self.order.append(task.ptask_id)
        self._sink_cache = None
        return task

    def sink_tasks(self) -> Dict[str, List[str]]:
        if self._sink_cache is None:
            self._sink_cache = {
                v.vertex_id: self.shards_of[v.vertex_id]
                for v in self.logical.sinks()
            }
        return self._sink_cache

    def consumers(self) -> Dict[str, List[str]]:
        """ptask id -> the tasks that read its output (dangling producer
        ids are kept under their own key so callers can spot them)."""
        table: Dict[str, List[str]] = {pid: [] for pid in self.tasks}
        for pid, task in self.tasks.items():
            for producer_ids in task.inputs:
                for producer in producer_ids:
                    table.setdefault(producer, []).append(pid)
        return table

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:
        return f"PhysicalGraph({self.logical.name}, {self.num_tasks} tasks)"


def to_physical(
    graph: FlowGraph,
    parallelism_overrides: Optional[Dict[str, int]] = None,
    device_pins: Optional[Dict[str, Sequence[str]]] = None,
) -> PhysicalGraph:
    """Lower a validated FlowGraph to its physical sharded form.

    ``parallelism_overrides`` maps vertex_id -> degree (else the vertex's
    default); ``device_pins`` maps vertex_id -> one device id per shard.
    """
    graph.validate()
    parallelism_overrides = parallelism_overrides or {}
    device_pins = device_pins or {}
    pgraph = PhysicalGraph(graph)

    def degree(vertex: Vertex) -> int:
        return parallelism_overrides.get(vertex.vertex_id, vertex.parallelism)

    for vertex in graph.topological_order():
        n = degree(vertex)
        pins = device_pins.get(vertex.vertex_id)
        if pins is not None and len(pins) != n:
            raise GraphValidationError(
                f"{vertex!r}: {len(pins)} device pins for {n} shards"
            )
        # a keyed out-edge must be the only one: its producer partitions
        out_edges = graph.out_edges(vertex.vertex_id)
        partition_key, num_outputs = None, 1
        if any(e.key is not None for e in out_edges):
            if len(out_edges) > 1:
                raise GraphValidationError(
                    f"{vertex!r} has a keyed out-edge and multiple consumers; "
                    "materialize an explicit copy vertex first"
                )
            consumer_degree = degree(graph.vertices[out_edges[0].dst])
            if consumer_degree > 1:
                partition_key, num_outputs = out_edges[0].key, consumer_degree

        shard_ids: List[str] = []
        for shard in range(n):
            ptask_id = f"{vertex.vertex_id}.{shard}"
            task = PhysicalTask(
                ptask_id=ptask_id,
                kind="source" if vertex.is_source else "compute",
                vertex_id=vertex.vertex_id,
                name=f"{vertex.name}[{shard}/{n}]",
                shard=shard,
                parallelism=n,
                inputs=_shard_inputs(graph, pgraph, vertex, shard, n, degree),
                compute_cost=vertex.compute_cost / n,
                output_nbytes=(
                    None
                    if vertex.output_nbytes is None
                    else max(1, max(1, vertex.output_nbytes // n) // num_outputs)
                ),
                supported_kinds=vertex.supported_kinds,
                pinned_device=pins[shard] if pins is not None else None,
                partition_key=partition_key,
                num_outputs=num_outputs,
            )
            pgraph.add(task)
            shard_ids.append(ptask_id)
        pgraph.shards_of[vertex.vertex_id] = shard_ids
    return pgraph


def _shard_inputs(
    graph: FlowGraph,
    pgraph: PhysicalGraph,
    vertex: Vertex,
    shard: int,
    n: int,
    degree,
) -> List[List[str]]:
    inputs: List[List[str]] = []
    for edge in graph.in_edges(vertex.vertex_id):
        m = degree(graph.vertices[edge.src])
        src_shards = pgraph.shards_of[edge.src]
        if edge.key is not None or n == 1:
            inputs.append(list(src_shards))  # shuffle (output ``shard`` of each) or gather
        elif m == n:
            inputs.append([src_shards[shard]])
        elif m == 1:
            inputs.append([src_shards[0]])  # broadcast
        else:
            raise GraphValidationError(
                f"edge {edge.src}->{edge.dst}: resharding {m}->{n} requires a keyed edge"
            )
    return inputs
