"""What a concluded task leaves behind.

A FINISHED task keeps what lineage and the driver read of it: its spec and
span (the one record of its milestones), by output, in ``_ctx_of_object`` (a
``FinishedTask``), and the lineage record.  Its ``_TaskCtx``, its done signal
and its attempts' processes go once the signal has fired.  A FAILED or CANCELLED task keeps
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
from repro.runtime.task import NO_KWARGS, FinishedTask, TaskState
from repro.runtime.trace import write_chrome_trace

from test_supervision import straggler_pair

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

    @pytest.mark.parametrize("episode", sorted(EPISODES))
    def test_no_arrival_stays_and_empty_kwargs_are_shared(self, episode):
        wl, ep, state, rt = EPISODES[episode]()
        assert wl.check(ep, state, wl.run(ep, state)) > 0
        # an arrival is kept only while an attempt on its device has yet to
        # take it: at the end of the run, none
        assert rt.data.arrivals == {}
        specs = {id(r.spec): r.spec for r in rt._ctx_of_object.values() if type(r) is FinishedTask}
        assert specs and all(spec.kwargs is NO_KWARGS for spec in specs.values())

    # the whole Chrome trace (spans, their links and phases, incidents,
    # counters), recorded before finished tasks were released; re-recorded
    # when the scheduler's running-task gauge was deleted (its counter track
    # was all that moved)
    TRACE_SHA256 = {
        "serving": "14012404bd5af8fcc43f082bae93eb8b256c6c61d52002be88723d5b12db536f",
        "taskgraph_push": "2d56a58435e4236de6cbe12837f9dab0db10248fe7c3b8026d321fb840b17f03",
    }

    @pytest.mark.parametrize("episode", sorted(EPISODES))
    def test_the_trace_is_unchanged(self, episode):
        wl, ep, state, rt = EPISODES[episode]()
        assert wl.check(ep, state, wl.run(ep, state)) > 0
        out = io.StringIO()
        write_chrome_trace(rt, out)
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == self.TRACE_SHA256[episode]

    # retained bytes per op after the run, measured when the task span became
    # the task's one record of its milestones: 2.80 KB serving, 2.10 KB
    # taskgraph_push (with the copy in a TaskTimeline: 2.98 KB and 2.27 KB;
    # before finished tasks were released: 4.85 KB and 3.40 KB)
    BOUND_KB = {"serving": 3.1, "taskgraph_push": 2.4}

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
        assert timeline.name == "finished" and timeline.end > timeline.start
        assert timeline in rt.timelines
        span = rt.span_of(finished)
        assert span.attrs["task_id"] == finished.task_id and not span.is_open
        assert span is timeline
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
        rt.fail_device(first.device)
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


def replayed_chain():
    rt = ServerlessRuntime(build_serverful(n_servers=2), RuntimeConfig())
    ref = rt.submit(lambda: 1, compute_cost=1e-3, pinned_device="server1/cpu", name="head")
    ref = rt.submit(lambda x: x + 1, (ref,), compute_cost=1e-3, name="tail")
    assert rt.get(ref) == 2
    rt.fail_device(rt.timeline_of(ref).device)
    assert rt.get(ref) == 2 and rt.lineage.replays > 0
    assert rt.span_of(ref).attrs["replayed"]
    return rt, ref


def speculative_win(mode):
    rt, _data, victim = straggler_pair(mode)
    assert rt.get(victim) == 8 and rt.log.count("speculate") == 1
    assert rt.timeline_of(victim).device == "server1/cpu"  # the backup's device
    return rt, victim


ONE_RECORD = {
    "plain": lambda: finished_failed_cancelled()[:2],
    "speculative_win_push": lambda: speculative_win(ResolutionMode.PUSH),
    "speculative_win_pull": lambda: speculative_win(ResolutionMode.PULL),
    "replay": replayed_chain,
}


class TestOneRecordPerTask:
    """A task's span is its timeline: ``timeline_of`` and ``span_of`` return
    the one object ``rt.timelines`` records, whoever won."""

    @pytest.mark.parametrize("scenario", sorted(ONE_RECORD))
    def test_timeline_of_is_span_of(self, scenario):
        rt, ref = ONE_RECORD[scenario]()
        span = rt.timeline_of(ref)
        assert span is rt.span_of(ref) and not span.is_open
        assert [t for t in rt.timelines if t is span] == [span]
        assert span.start <= span.dispatched <= span.inputs_ready <= span.started < span.end
        assert span.latency == span.end - span.start
        # the milestones live in the span's fields, not in a copy in its attrs
        assert set(span.attrs) == {"task_id", "replayed", "retries"}

    def test_a_task_no_attempt_won_ends_where_it_concluded(self):
        """A failed or cancelled task's record is its span, closed when the
        task concluded: a positive latency and no milestones.  (A separate
        timeline record kept ``finished=0.0`` for such a task, so its latency
        read zero or negative while its span ended where it concluded.)"""
        rt, _finished, failed, cancelled = finished_failed_cancelled()
        for ref, kind in ((failed, "task_failed"), (cancelled, "task_cancelled")):
            span = rt.timeline_of(ref)
            assert span is rt.span_of(ref) and all(t is not span for t in rt.timelines)
            (concluded,) = [e for e in rt.log.of_kind(kind) if e["task"] == ref.task_id]
            assert span.end == concluded.time and span.latency > 0
            assert (span.dispatched, span.inputs_ready, span.started) == (None, None, None)
            assert span.attrs["error"] == rt._ctxs[ref.task_id].error
