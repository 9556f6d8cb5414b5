"""Deterministic id generation for tasks, objects, actors, and workers.

Ids are readable strings with a per-runtime monotonically increasing
counter; determinism matters because the simulator's event order (and thus
every benchmark number) must be reproducible run-to-run.
"""

from __future__ import annotations

import itertools
from typing import Iterator

__all__ = ["IdGenerator"]


class IdGenerator:
    """Per-runtime id factory (never share across runtimes)."""

    def __init__(self) -> None:
        self._counters: dict[str, Iterator[int]] = {}

    def next(self, kind: str) -> str:
        counter = self._counters.get(kind)
        if counter is None:
            counter = itertools.count()
            self._counters[kind] = counter
        return f"{kind}-{next(counter):06d}"

    def task_id(self) -> str:
        return self.next("task")

    def object_id(self) -> str:
        return self.next("obj")

    def actor_id(self) -> str:
        return self.next("actor")
