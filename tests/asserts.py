"""Assertions the test modules share.

They live here, not in ``conftest.py``: a test run that also collects
``benchmarks/`` imports that directory's ``conftest.py`` under the same
module name, so ``from conftest import ...`` would find the wrong one.
"""

from __future__ import annotations

import numpy as np

from repro.caching.columnar import RecordBatch
from repro.runtime.task import TERMINAL_STATES


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
