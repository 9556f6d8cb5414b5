"""What a concluded task leaves behind.

A FINISHED task keeps what lineage and the driver read of it: its spec,
timeline and span, by output, in ``_ctx_of_object`` (a ``FinishedTask``), and
the lineage record.  Its ``_TaskCtx``, its done signal and its attempts'
processes go once the signal has fired.  A FAILED or CANCELLED task keeps
its ctx, which carries the error ``get`` raises; its process goes too.
"""

from __future__ import annotations

import gc
import hashlib
import io
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.cluster.cluster import build_serverful
from repro.cluster.simtime import Process
from repro.runtime import ResolutionMode, RuntimeConfig, ServerlessRuntime
from repro.runtime.runtime import TaskCancelledError, TaskError, _TaskCtx
from repro.runtime.task import FinishedTask, TaskState
from repro.runtime.trace import write_chrome_trace

BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")


def ledger_workloads():
    if BENCHMARKS not in sys.path:
        sys.path.insert(0, BENCHMARKS)
    from ledger import workloads

    return workloads


def serving_episode():
    W = ledger_workloads()
    wl = W.ServingWorkload()
    (ep,) = wl.generate(0, 0.05)
    state = wl.build(ep)
    return wl, ep, state, state.rt


def push_episode():
    W = ledger_workloads()
    wl = W.TaskGraphWorkload("graph", 300, ResolutionMode.PUSH)
    (ep,) = wl.generate(0, 1.0)
    rt = wl.build(ep)
    return wl, ep, rt, rt


EPISODES = {"serving": serving_episode, "taskgraph_push": push_episode}


def census(rt):
    """The runtime's task records and attempt processes still alive."""
    gc.collect()
    ctxs, procs = [], []
    for obj in gc.get_objects():
        if type(obj) is _TaskCtx and obj.done.sim is rt.sim:
            ctxs.append(obj)
        elif type(obj) is Process and obj.sim is rt.sim and obj.name.startswith("task:"):
            procs.append(obj)
    return ctxs, procs


class TestNothingFinishedStays:
    @pytest.mark.parametrize("episode", sorted(EPISODES))
    def test_a_finished_task_keeps_no_ctx_and_no_attempt(self, episode):
        wl, ep, state, rt = EPISODES[episode]()
        assert wl.check(ep, state, wl.run(ep, state)) > 0
        assert rt.tasks_finished > 0
        assert [t for t, c in rt._ctxs.items() if c.state is TaskState.FINISHED] == []
        ctxs, procs = census(rt)
        assert [c.spec.task_id for c in ctxs if c.state is TaskState.FINISHED] == []
        # every ctx still alive is a task that did not finish, and holds no process
        assert all(c.state in (TaskState.FAILED, TaskState.CANCELLED) for c in ctxs)
        assert all(c.proc is None for c in ctxs)
        assert [p.name for p in procs if p.triggered] == []
        # one record per finished task, shared by its outputs
        kept = {id(r) for r in rt._ctx_of_object.values() if type(r) is FinishedTask}
        assert rt.lineage.replays == 0 and len(kept) == rt.tasks_finished

    # the whole Chrome trace (spans, their links and phases, incidents,
    # counters), recorded before finished tasks were released
    TRACE_SHA256 = {
        "serving": "939b0e932d0006f1e79863e838decfaaf9820315fe6784c6844fc407a38bf9d8",
        "taskgraph_push": "23b924919f904e0089b76db0039684dca33b79dcad45d9da0b3f9c313ea0bbb8",
    }

    @pytest.mark.parametrize("episode", sorted(EPISODES))
    def test_the_trace_is_unchanged(self, episode):
        wl, ep, state, rt = EPISODES[episode]()
        assert wl.check(ep, state, wl.run(ep, state)) > 0
        out = io.StringIO()
        write_chrome_trace(rt, out)
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == self.TRACE_SHA256[episode]

    # retained bytes per op after the run, measured when the change was made
    # (at the parent: 4.85 KB serving, 3.40 KB taskgraph_push)
    BOUND_KB = {"serving": 3.5, "taskgraph_push": 2.8}

    @pytest.mark.parametrize("episode", sorted(EPISODES))
    def test_retained_bytes_per_op(self, episode):
        wl, ep, state, rt = EPISODES[episode]()
        ops = wl.ops(ep, state)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = wl.run(ep, state)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert wl.check(ep, state, out) > 0
        assert retained / ops < self.BOUND_KB[episode] * 1e3, retained / ops


def finished_failed_cancelled():
    rt = ServerlessRuntime(build_serverful(n_servers=2), RuntimeConfig())
    finished = rt.submit(lambda: 7, name="finished")
    failed = rt.submit(lambda: 1 / 0, name="failed")
    cancelled = rt.submit(lambda: 3, compute_cost=1.0, name="cancelled")
    rt.run(until=1e-3)
    assert rt.cancel(cancelled)
    rt.run()
    return rt, finished, failed, cancelled


class TestTheDriversView:
    """``task_state``, ``when_done``, ``cancel`` and ``get`` answer for a
    finished task as they did while it kept its ctx."""

    def test_the_ctxs_that_stay(self):
        rt, finished, failed, cancelled = finished_failed_cancelled()
        assert finished.task_id not in rt._ctxs
        assert type(rt._ctx_of_object[finished.object_id]) is FinishedTask
        for ref in (failed, cancelled):
            ctx = rt._ctxs[ref.task_id]
            assert rt._ctx_of_object[ref.object_id] is ctx
            assert ctx.error is not None and ctx.proc is None

    def test_task_state(self):
        rt, finished, failed, cancelled = finished_failed_cancelled()
        assert rt.task_state(finished) is TaskState.FINISHED
        assert rt.task_state(failed) is TaskState.FAILED
        assert rt.task_state(cancelled) is TaskState.CANCELLED
        with pytest.raises(KeyError, match="no task produces"):
            rt.task_state(rt.put(1))

    def test_when_done_fires_on_the_loop(self):
        rt, finished, failed, cancelled = finished_failed_cancelled()
        fired = []
        for ref in (finished, failed, cancelled, finished):
            rt.when_done(ref, lambda r: fired.append((r.task_id, rt.sim.now)))
        assert fired == []  # never inside the call
        now = rt.sim.now
        rt.run()
        ids = [finished.task_id, failed.task_id, cancelled.task_id, finished.task_id]
        assert fired == [(task_id, now) for task_id in ids]
        with pytest.raises(KeyError, match="no task produces"):
            rt.when_done(rt.put(1), fired.append)

    def test_cancel_refuses_every_concluded_task(self):
        rt, finished, failed, cancelled = finished_failed_cancelled()
        cancellations = rt.tasks_cancelled
        assert not rt.cancel(finished) and not rt.cancel(failed) and not rt.cancel(cancelled)
        assert rt.tasks_cancelled == cancellations
        assert rt.task_state(finished) is TaskState.FINISHED

    def test_get(self):
        rt, finished, failed, cancelled = finished_failed_cancelled()
        assert rt.get(finished) == 7
        with pytest.raises(TaskError, match="ZeroDivisionError"):
            rt.get(failed)
        with pytest.raises(TaskCancelledError, match="cancelled: user"):
            rt.get(cancelled)

    def test_timeline_and_span(self):
        rt, finished, _failed, _cancelled = finished_failed_cancelled()
        timeline = rt.timeline_of(finished)
        assert timeline.name == "finished" and timeline.finished > timeline.submitted
        assert timeline in rt.timelines
        span = rt.span_of(finished)
        assert span.attrs["task_id"] == finished.task_id and not span.is_open
        consumer = rt.submit(lambda x: x, (finished,))
        assert rt.get(consumer) == 7
        assert rt.span_of(consumer).links == (span.span_id,)
        assert rt.span_of(consumer).trace_id == span.trace_id


class TestReplayOfAReleasedTask:
    def test_lineage_brings_the_object_back(self):
        rt = ServerlessRuntime(build_serverful(n_servers=2), RuntimeConfig())
        ref = rt.submit(lambda: 1, compute_cost=1e-3, name="head")
        for i in range(3):
            ref = rt.submit(lambda x: x + 1, (ref,), compute_cost=1e-3, name=f"step{i}")
        assert rt.get(ref) == 4
        first = rt.timeline_of(ref)
        assert ref.task_id not in rt._ctxs
        rt.fail_device(first.device_id)
        assert rt.get(ref) == 4
        assert rt.lineage.replays > 0
        # the replay re-registered a ctx, finished, and was released in turn
        assert ref.task_id not in rt._ctxs
        assert rt.task_state(ref) is TaskState.FINISHED
        assert rt.timeline_of(ref) is not first
        assert rt.span_of(ref).attrs["replayed"]
        ctxs, procs = census(rt)
        assert [c for c in ctxs if c.state is TaskState.FINISHED] == []
        assert [p for p in procs if p.triggered] == []

    def test_a_partial_replay_keeps_the_siblings_first_life(self):
        rt = ServerlessRuntime(build_serverful(n_servers=2), RuntimeConfig())
        lost, kept = rt.submit(lambda: (1, 2), num_returns=2, pinned_device="server1/cpu")
        assert rt.get([lost, kept]) == [1, 2]
        first = rt._ctx_of_object[kept.object_id]
        assert rt._ctx_of_object[lost.object_id] is first  # one record per task
        copy = rt.submit(lambda x: x, (kept,), pinned_device="server0/cpu")
        assert rt.get(copy) == 2  # a copy of ``kept`` survives on server0
        rt.fail_device("server1/cpu")
        rt.restore_device("server1/cpu")
        assert rt.get([lost, kept]) == [1, 2]
        assert rt.lineage.replays == 1
        assert rt._ctx_of_object[kept.object_id] is first
        replayed = rt._ctx_of_object[lost.object_id]
        assert type(replayed) is FinishedTask and replayed is not first
        assert rt.span_of(lost).attrs["replayed"] and not rt.span_of(kept).attrs["replayed"]

    def test_a_fault_interrupts_a_replay_in_submission_order(self):
        """A replay re-registers its ctx at the end of ``_ctxs``; a fault that
        strikes by device still interrupts in submission order."""
        rt = ServerlessRuntime(build_serverful(n_servers=2), RuntimeConfig())
        a = rt.submit(lambda: 1, compute_cost=0.1, pinned_device="server1/cpu", name="a")
        assert rt.get(a) == 1
        rt.fail_device("server1/cpu")  # a's only copy goes
        rt.restore_device("server1/cpu")
        b = rt.submit(lambda: 2, compute_cost=0.1, pinned_device="server1/cpu", name="b")
        rt.recovery.recover(a.object_id)  # a's replay registers after b
        assert list(rt._ctxs) == [b.task_id, a.task_id]
        rt.run(until=rt.sim.now + 0.05)
        assert {c.state for c in rt._ctxs.values()} == {TaskState.RUNNING}
        rt.fail_device("server1/cpu")
        rt.restore_device("server1/cpu")
        assert rt.get([a, b]) == [1, 2]
        retried = [e["task"] for e in rt.log.of_kind("task_retry")]
        assert retried == [a.task_id, b.task_id]
