"""Lineage: recover lost objects by re-executing the tasks that made them.

§2.1: "Skadi handles failures in two ways: (1) re-executes the graph using
lineage, or (2) uses a reliable caching layer with data replication or EC."
This module is way (1): a record of which task produced which object, and a
planner that, given a lost object, walks the lineage backwards to emit the
minimal re-execution plan in dependency order.

The same record holds the edge the other way — which tasks *read* an object
(:meth:`LineageGraph.consumers`) — so the cancellation cascade, the free
decision, a missed push and the pull-mode waiting room look it up instead of
walking the task table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .ownership import OwnershipTable, ValueState
from .task import TaskSpec

__all__ = ["LineageGraph", "UnrecoverableObjectError"]


class UnrecoverableObjectError(RuntimeError):
    """No lineage and no live copy — the object cannot come back."""


@dataclass
class _LineageRecord:
    task: TaskSpec
    output_ids: List[str]


class LineageGraph:
    """Task table + object->producer and object->consumer edges."""

    def __init__(self) -> None:
        self._by_task: Dict[str, _LineageRecord] = {}
        self._producer_of: Dict[str, str] = {}  # object_id -> task_id
        # object_id -> the task ids reading it; a bare id while there is one
        # reader (most objects), so those cost the cyclic GC no container
        self._consumers_of: Dict[str, Union[str, List[str]]] = {}
        self.replays = 0

    def record(self, task: TaskSpec, output_ids: List[str]) -> None:
        """Record ``task`` as the producer of ``output_ids``; the list is kept,
        not copied, so the caller must not change it."""
        task_id = task.task_id
        self._by_task[task_id] = _LineageRecord(task, output_ids)
        for oid in output_ids:
            self._producer_of[oid] = task_id
        consumers_of = self._consumers_of
        for ref in task.dependencies:
            readers = consumers_of.get(ref.object_id)
            if readers is None:
                consumers_of[ref.object_id] = task_id
            elif type(readers) is str:
                if readers != task_id:  # else: the argument was passed twice
                    consumers_of[ref.object_id] = [readers, task_id]
            elif readers[-1] != task_id:
                readers.append(task_id)

    def consumers(self, object_id: str) -> Sequence[str]:
        """The tasks that list ``object_id`` as a dependency, each once, in
        submission order (a replay reuses its spec, so it keeps its place)."""
        readers = self._consumers_of.get(object_id, ())
        return (readers,) if type(readers) is str else readers

    def producer(self, object_id: str) -> Optional[TaskSpec]:
        task_id = self._producer_of.get(object_id)
        if task_id is None:
            return None
        return self._by_task[task_id].task

    def outputs_of(self, task_id: str) -> List[str]:
        record = self._by_task.get(task_id)
        return list(record.output_ids) if record else []

    def plan_recovery(
        self, object_id: str, ownership: OwnershipTable
    ) -> List[TaskSpec]:
        """Tasks to re-execute (dependencies first) to rematerialize
        ``object_id``.  Objects still READY are treated as available and not
        recomputed; the depth of this plan is what experiment E5 charts."""
        plan: List[TaskSpec] = []
        planned: Set[str] = set()
        # depth first with an explicit stack: each frame is a task and the
        # ids of the dependencies it has yet to visit (the bottom frame's one
        # id is the root); ``path`` holds the ids of the frames' tasks, the
        # chain a dependency must not lead back into
        stack: List[Tuple[Optional[TaskSpec], Iterator[str]]] = [(None, iter((object_id,)))]
        path: Set[str] = set()
        while stack:
            task, oids = stack[-1]
            oid = next(oids, None)
            if oid is None:
                stack.pop()
                if task is not None:
                    path.discard(task.task_id)
                    planned.add(task.task_id)
                    plan.append(task)
                continue
            if ownership.contains(oid) and ownership.entry(oid).state == ValueState.READY:
                continue
            producer = self.producer(oid)
            if producer is None:
                raise UnrecoverableObjectError(
                    f"object {oid!r} is lost and has no recorded lineage"
                )
            if producer.task_id in path:
                raise UnrecoverableObjectError(
                    f"lineage cycle detected at task {producer.task_id!r}"
                )
            if producer.task_id not in planned:
                path.add(producer.task_id)
                stack.append((producer, (ref.object_id for ref in producer.dependencies)))
        return plan

    def __len__(self) -> int:
        return len(self._by_task)
