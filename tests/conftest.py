"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import customers_table, orders_table
from repro.caching.columnar import RecordBatch
from repro.cluster.cluster import build_physical_disagg, build_serverful
from repro.cluster.simtime import Simulator
from repro.ir.types import FrameType
from repro.runtime.task import TERMINAL_STATES


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def small_batch() -> RecordBatch:
    return RecordBatch.from_pydict(
        {
            "k": [0, 1, 0, 1, 2],
            "x": [1.0, 2.0, 3.0, 4.0, 5.0],
        }
    )


@pytest.fixture
def orders() -> RecordBatch:
    return orders_table(1000, num_customers=50, seed=7)


@pytest.fixture
def customers() -> RecordBatch:
    return customers_table(50, num_regions=4, seed=8)


@pytest.fixture
def catalog() -> dict:
    return {
        "orders": FrameType(
            (
                ("oid", "int64"),
                ("cust", "int64"),
                ("amount", "float64"),
                ("qty", "int64"),
            )
        ),
        "customers": FrameType(
            (("cid", "int64"), ("region", "int64"), ("credit", "float64"))
        ),
    }


@pytest.fixture
def phys_cluster():
    return build_physical_disagg()


@pytest.fixture
def server_cluster():
    return build_serverful(n_servers=3)


def assert_batches_close(a: RecordBatch, b: RecordBatch, rtol: float = 1e-9) -> None:
    """Schema-equal and numerically close (float sums are order-sensitive)."""
    assert a.schema == b.schema, f"{a.schema!r} != {b.schema!r}"
    assert a.num_rows == b.num_rows
    for name in a.schema.names:
        ca, cb = a.column(name), b.column(name)
        if ca.dtype.kind == "f":
            np.testing.assert_allclose(ca, cb, rtol=rtol)
        else:
            np.testing.assert_array_equal(ca, cb)


def assert_recovery_drained(rt) -> None:
    """Drain the simulation, then: recovery and object lifetime hold nothing
    back (the fourth brick of the quiescence invariant, ROADMAP item 4) — no
    free is still deferred, every checkpoint belongs to a live directory
    entry, every task, replays included, concluded, and no actor's turn is
    held or waited for."""
    rt.sim.run()
    assert all(turn.in_use == 0 and turn.queued == 0 for turn in rt.actors.turns.values())
    assert not rt.recovery.deferred_frees
    assert all(rt.ownership.contains(oid) for oid in rt.recovery.checkpoints)
    assert rt._open_tasks == 0
    open_tasks = [c.spec.task_id for c in rt._ctxs.values() if c.state not in TERMINAL_STATES]
    assert not open_tasks, f"tasks never concluded: {open_tasks}"
