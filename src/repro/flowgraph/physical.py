"""The physical sharded graph tier.

Lowering a logical FlowGraph means "possibly creating sharded vertices
along keyed edges and then mapping vertices to hardware operators" (§1).
Concretely:

* every logical vertex becomes ``parallelism`` physical tasks (Figure 2's
  subscripts);
* a keyed edge from an m-way producer to an n-way consumer becomes a
  shuffle: m *split* tasks, one per producer shard, each hash-partition
  their shard once into n outputs, and consumer shard i gathers output i
  of every split task (split tasks co-locate with their producer under
  data-centric scheduling, so only the partitions cross the network);
* an unkeyed edge from m shards into one is a gather: the consumer
  concatenates every producer shard (how the planner's sorts, limits,
  broadcast sides and the final phase of a gathered aggregate read);
* hardware mapping is carried as ``supported_kinds`` plus optional
  per-shard device pins (how Figure 2's D becomes D1-gpu and D2-fpga).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..cluster.hardware import DeviceKind
from .logical import FlowGraph, GraphValidationError, Vertex

__all__ = ["PhysicalTask", "PhysicalGraph", "GatherMode", "to_physical"]


class GatherMode(enum.Enum):
    DIRECT = "direct"  # exactly one producer: pass its value through
    CONCAT = "concat"  # many producers: concatenate record batches
    LIST = "list"  # many producers: pass the list as-is


@dataclass
class PhysicalTask:
    ptask_id: str
    kind: str  # "source" | "compute" | "split"
    vertex_id: str
    name: str
    shard: int
    parallelism: int
    inputs: List[Tuple[GatherMode, List[str]]] = field(default_factory=list)
    compute_cost: float = 1e-5
    output_nbytes: Optional[int] = None  # per output
    supported_kinds: FrozenSet[DeviceKind] = frozenset({DeviceKind.CPU})
    pinned_device: Optional[str] = None
    # split-task parameters: hash on ``split_key`` into ``split_n`` outputs
    split_key: Optional[str] = None
    split_n: int = 1

    @property
    def num_outputs(self) -> int:
        return self.split_n if self.kind == "split" else 1

    def output_read_by(self, shard: int) -> int:
        """Which of this task's outputs consumer shard ``shard`` reads: a
        split's partition ``shard``, any other task's only output."""
        return shard if self.kind == "split" else 0

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
            for _, producer_ids in task.inputs:
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
        shard_ids: List[str] = []
        # Keyed out-edges force the single-consumer restriction (see split logic).
        keyed_out = [e for e in graph.out_edges(vertex.vertex_id) if e.key is not None]
        if keyed_out and len(graph.out_edges(vertex.vertex_id)) > 1:
            raise GraphValidationError(
                f"{vertex!r} has a keyed out-edge and multiple consumers; "
                "materialize an explicit copy vertex first"
            )

        for shard in range(n):
            ptask_id = f"{vertex.vertex_id}.{shard}"
            inputs = _shard_inputs(graph, pgraph, vertex, shard, n, degree)
            task = PhysicalTask(
                ptask_id=ptask_id,
                kind="source" if vertex.is_source else "compute",
                vertex_id=vertex.vertex_id,
                name=f"{vertex.name}[{shard}/{n}]",
                shard=shard,
                parallelism=n,
                inputs=inputs,
                compute_cost=vertex.compute_cost / n,
                output_nbytes=(
                    None
                    if vertex.output_nbytes is None
                    else max(1, vertex.output_nbytes // n)
                ),
                supported_kinds=vertex.supported_kinds,
                pinned_device=pins[shard] if pins is not None else None,
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
) -> List[Tuple[GatherMode, List[str]]]:
    inputs: List[Tuple[GatherMode, List[str]]] = []
    for edge in graph.in_edges(vertex.vertex_id):
        src_vertex = graph.vertices[edge.src]
        m = degree(src_vertex)
        src_shards = pgraph.shards_of[edge.src]
        if edge.key is not None:
            # shuffle: one split task per producer shard, consumer gathers
            # output ``shard`` of each
            split_ids = [
                _split_task(pgraph, src_vertex, src_ptask, edge.key, n, j)
                for j, src_ptask in enumerate(src_shards)
            ]
            mode = GatherMode.CONCAT if len(split_ids) > 1 else GatherMode.DIRECT
            inputs.append((mode, split_ids))
        elif m == n:
            inputs.append((GatherMode.DIRECT, [src_shards[shard]]))
        elif m == 1:
            inputs.append((GatherMode.DIRECT, [src_shards[0]]))  # broadcast
        elif n == 1:
            inputs.append((GatherMode.CONCAT, list(src_shards)))  # gather
        else:
            raise GraphValidationError(
                f"edge {edge.src}->{edge.dst}: resharding {m}->{n} requires a keyed edge"
            )
    return inputs


def _split_task(
    pgraph: PhysicalGraph,
    src_vertex: Vertex,
    src_ptask: str,
    key: str,
    num_parts: int,
    src_shard: int,
) -> str:
    ptask_id = f"{src_ptask}.split"
    if ptask_id in pgraph.tasks:
        return ptask_id
    src = pgraph.tasks[src_ptask]
    task = PhysicalTask(
        ptask_id=ptask_id,
        kind="split",
        vertex_id=src_vertex.vertex_id,
        name=f"split:{src_vertex.name}[{src_shard}]",
        shard=src_shard,
        parallelism=src.parallelism,
        inputs=[(GatherMode.DIRECT, [src_ptask])],
        compute_cost=1e-6,
        output_nbytes=(
            None
            if src.output_nbytes is None
            else max(1, src.output_nbytes // num_parts)
        ),
        supported_kinds=src_vertex.supported_kinds,
        split_key=key,
        split_n=num_parts,
    )
    pgraph.add(task)
    return ptask_id
