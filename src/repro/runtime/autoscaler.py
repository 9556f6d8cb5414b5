"""Serverless autoscaling vs. reservation (experiment E6's machinery).

§1's serverless principle: "lower cost by offering a pay-as-you-go cost
model over a reservation-based one", and its critique: "the auto-scaling of
DSAs is almost non-existent".  This module models both provisioning styles
for any device kind (CPU pools and DSA pools alike):

* :class:`ReservedPool` — a fixed fleet billed for the whole run.
* :class:`AutoscalingPool` — grows on queue pressure after a cold-start
  delay and shrinks when idle, billed per provisioned second.

Jobs are (arrival_time, duration, kind) tuples from a workload trace; the
pools share the same DES so wait times and costs are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..cluster.simtime import Signal, Simulator

__all__ = ["Job", "PoolStats", "ReservedPool", "AutoscalingPool", "run_trace"]


@dataclass(frozen=True)
class Job:
    job_id: int
    arrival: float
    duration: float
    kind: str = "cpu"  # "cpu", "gpu", ... — pools are per-kind


@dataclass
class PoolStats:
    completed: int = 0
    total_wait: float = 0.0
    max_wait: float = 0.0
    busy_seconds: float = 0.0
    provisioned_seconds: float = 0.0
    peak_workers: int = 0
    cold_starts: int = 0

    @property
    def mean_wait(self) -> float:
        return self.total_wait / self.completed if self.completed else 0.0

    @property
    def utilization(self) -> float:
        if self.provisioned_seconds == 0:
            return 0.0
        return self.busy_seconds / self.provisioned_seconds

    def cost(self, dollars_per_worker_second: float) -> float:
        return self.provisioned_seconds * dollars_per_worker_second


class _Worker:
    __slots__ = ("sim", "provisioned_at", "retired_at", "busy_until")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.provisioned_at = sim.now
        self.retired_at: Optional[float] = None
        self.busy_until = sim.now


class _BasePool:
    """Shared queueing machinery: jobs queue FIFO, idle workers serve them."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.stats = PoolStats()
        self._workers: List[_Worker] = []
        self._queue: List[Tuple[Job, Signal]] = []

    @property
    def active_workers(self) -> List[_Worker]:
        return [w for w in self._workers if w.retired_at is None]

    def _idle_worker(self) -> Optional[_Worker]:
        for worker in self.active_workers:
            if worker.busy_until <= self.sim.now:
                return worker
        return None

    def submit(self, job: Job) -> Signal:
        """Enqueue a job; returns a signal fired at completion."""
        done = Signal(self.sim)
        self._queue.append((job, done))
        self.sim.schedule(0.0, self._drain)
        return done

    def _drain(self) -> None:
        while self._queue:
            worker = self._idle_worker()
            if worker is None:
                self._on_pressure(len(self._queue))
                return
            job, done = self._queue.pop(0)
            wait = self.sim.now - job.arrival
            self.stats.total_wait += wait
            self.stats.max_wait = max(self.stats.max_wait, wait)
            worker.busy_until = self.sim.now + job.duration
            self.stats.busy_seconds += job.duration

            def _finish(d=done, w=worker):
                self.stats.completed += 1
                d.succeed()
                self._drain()

            self.sim.schedule(job.duration, _finish)

    def _on_pressure(self, backlog: int) -> None:
        """Hook: called when jobs queue with no idle worker."""

    def finalize(self, end_time: float) -> None:
        """Close the books at ``end_time`` (bill provisioned time)."""
        for worker in self._workers:
            retired = worker.retired_at if worker.retired_at is not None else end_time
            self.stats.provisioned_seconds += retired - worker.provisioned_at
        self.stats.peak_workers = max(self.stats.peak_workers, len(self.active_workers))


class ReservedPool(_BasePool):
    """A fixed fleet, provisioned for the entire run."""

    def __init__(self, sim: Simulator, size: int):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        super().__init__(sim)
        for _ in range(size):
            self._workers.append(_Worker(sim))
        self.stats.peak_workers = size


class AutoscalingPool(_BasePool):
    """Scale out on backlog (after a cold start), scale in when idle."""

    def __init__(
        self,
        sim: Simulator,
        min_workers: int = 0,
        max_workers: int = 64,
        cold_start: float = 0.5,
        idle_timeout: float = 5.0,
    ):
        if min_workers < 0 or max_workers < max(min_workers, 1):
            raise ValueError("invalid autoscaling bounds")
        super().__init__(sim)
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.cold_start = cold_start
        self.idle_timeout = idle_timeout
        self._starting = 0
        for _ in range(min_workers):
            self._workers.append(_Worker(sim))

    def _on_pressure(self, backlog: int) -> None:
        capacity_incoming = self._starting
        needed = backlog - capacity_incoming
        room = self.max_workers - len(self.active_workers) - self._starting
        to_start = max(0, min(needed, room))
        for _ in range(to_start):
            self._starting += 1
            self.stats.cold_starts += 1
            self.sim.schedule(self.cold_start, self._worker_ready)

    def _worker_ready(self) -> None:
        self._starting -= 1
        worker = _Worker(self.sim)
        self._workers.append(worker)
        self.stats.peak_workers = max(self.stats.peak_workers, len(self.active_workers))
        self._drain()
        self._schedule_reap(worker)

    def _schedule_reap(self, worker: _Worker) -> None:
        def _reap():
            if worker.retired_at is not None:
                return
            if (
                worker.busy_until <= self.sim.now
                and not self._queue
                and len(self.active_workers) > self.min_workers
            ):
                worker.retired_at = self.sim.now
            else:
                self._schedule_reap(worker)

        self.sim.schedule(self.idle_timeout, _reap)


def run_trace(sim: Simulator, pool: _BasePool, jobs: List[Job]) -> PoolStats:
    """Feed a trace to a pool, run to completion, return closed stats."""
    done_signals = []
    for job in sorted(jobs, key=lambda j: (j.arrival, j.job_id)):
        sim.schedule(
            max(0.0, job.arrival - sim.now),
            lambda j=job: done_signals.append(pool.submit(j)),
        )
    sim.run()
    if any(not s.triggered for s in done_signals):
        raise RuntimeError("trace did not drain: jobs stuck in queue")
    pool.finalize(sim.now)
    return pool.stats
