"""Overload control: admission, retry budgets, deadlines, breakers.

Four mechanism families, each behind a :class:`RuntimeConfig` switch whose
all-off default reproduces legacy traces bit-for-bit (the equivalence
tests at the bottom pin that on the E17 and E21 scenarios).  The
deterministic retry-backoff jitter contract is pinned here too, so seeded
chaos traces cannot drift through an innocent-looking refactor.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.chaos import ChaosMonkey, ChaosSchedule, LoadBurst
from repro.cluster import build_serverful
from repro.cluster.hardware import MB
from repro.runtime import (
    AdmissionPolicy,
    AdmissionRejectedError,
    BreakerState,
    CircuitBreaker,
    GetTimeoutError,
    ResolutionMode,
    RetryBudget,
    RuntimeConfig,
    ServerlessRuntime,
    TaskCancelledError,
    TaskState,
    backoff_jitter_fraction,
    retry_backoff_delay,
)

OFF_SWITCHES = dict(
    admission_control=False,
    retry_budget=False,
    deadline_propagation=False,
    device_circuit_breakers=False,
)


def make_rt(n_servers=2, **overrides):
    overrides.setdefault("resolution", ResolutionMode.PULL)
    return ServerlessRuntime(
        build_serverful(n_servers=n_servers), RuntimeConfig(**overrides)
    )


def load_bench(name):
    """Import a benchmark scenario module by file path (benchmarks/ is not
    a package; the equivalence tests reuse its workload builders)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_equiv_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # classes defined there must stay picklable
    spec.loader.exec_module(mod)
    return mod


# -- the pinned backoff-jitter contract (regression for seeded traces) --------


class TestBackoffJitterPin:
    def test_jitter_fraction_exact_values(self):
        # md5(f"{task_id}:{retries}")[:8] as a fraction of 0xFFFFFFFF —
        # these constants ARE the contract; see runtime/config.py
        assert backoff_jitter_fraction("task1", 1) == pytest.approx(
            0.6272752903465357, abs=0
        )
        assert backoff_jitter_fraction("task1", 2) == pytest.approx(
            0.17971498104271363, abs=0
        )
        assert backoff_jitter_fraction("task1", 3) == pytest.approx(
            0.8276541300182357, abs=0
        )
        assert backoff_jitter_fraction("task7", 1) == pytest.approx(
            0.03867743118635319, abs=0
        )
        assert backoff_jitter_fraction("task7", 2) == pytest.approx(
            0.00860333233340721, abs=0
        )

    def test_fraction_bounds_and_determinism(self):
        for tid in ("task1", "task99", "actorcall3"):
            for retries in range(1, 6):
                frac = backoff_jitter_fraction(tid, retries)
                assert 0.0 <= frac <= 1.0
                assert frac == backoff_jitter_fraction(tid, retries)

    def test_delay_sequence_exact_values(self):
        cfg = RuntimeConfig(retry_backoff_base=1e-3, retry_jitter=0.5)
        delays = [retry_backoff_delay(cfg, "task1", r) for r in (1, 2, 3, 4)]
        assert delays == [
            0.001313637645173268,
            0.0021797149810427133,
            0.005655308260036471,
            0.009675217714550722,
        ]

    def test_runtime_uses_the_pinned_delay(self):
        """Pinned through what the runtime does: one refused lease, and the
        re-dispatch comes exactly the pinned delay after the ``task_retry``."""
        rt = make_rt(n_servers=1, retry_jitter=0.5)
        refusals, dispatched = iter(["refused once"]), []
        rt.lease_gates.append(lambda ctx, raylet: next(refusals, None))
        rt.on_dispatch.append(lambda ctx: dispatched.append(rt.sim.now))
        ref = rt.submit(lambda: 1, name="probe")
        assert rt.get(ref) == 1
        (retry,) = rt.log.of_kind("task_retry")
        assert retry["cause"] == "refused once" and retry["retry"] == 1
        delay = retry_backoff_delay(rt.config, retry["task"], 1)
        assert dispatched == [0.0, retry.time + delay]


# -- mechanism units ----------------------------------------------------------


class TestRetryBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(-0.1, 10.0)
        with pytest.raises(ValueError):
            RetryBudget(0.2, 0.0)

    def test_drain_refill_and_cap(self):
        b = RetryBudget(ratio=0.5, cap=2.0)
        assert b.tokens("n") == 2.0
        assert b.try_consume("n") and b.try_consume("n")
        assert not b.try_consume("n")  # dry
        assert b.exhausted == 1 and b.consumed == 2
        b.refill("n")
        assert b.tokens("n") == 0.5
        assert not b.try_consume("n")  # half a token is not a retry
        b.refill("n")
        assert b.try_consume("n")
        for _ in range(10):
            b.refill("n")
        assert b.tokens("n") == 2.0  # clamped at cap

    def test_per_node_isolation(self):
        b = RetryBudget(ratio=0.1, cap=1.0)
        assert b.try_consume("a")
        assert not b.try_consume("a")
        assert b.try_consume("b")  # node b has its own bucket


class TestCircuitBreaker:
    def make(self, **kw):
        kw.setdefault("threshold", 3)
        kw.setdefault("reset_after", 1.0)
        kw.setdefault("probe_successes", 2)
        transitions = []
        br = CircuitBreaker(
            "dev0", on_transition=lambda d, a, b: transitions.append((a, b)), **kw
        )
        return br, transitions

    def test_trip_after_threshold(self):
        br, transitions = self.make()
        br.record_failure(0.0)
        br.record_failure(0.0)
        assert br.state is BreakerState.CLOSED
        br.record_failure(0.0)
        assert br.state is BreakerState.OPEN
        assert transitions == [(BreakerState.CLOSED, BreakerState.OPEN)]
        assert not br.allow(0.5, inflight=0)

    def test_success_resets_the_failure_streak(self):
        br, _ = self.make()
        br.record_failure(0.0)
        br.record_failure(0.0)
        br.record_success(0.0)
        br.record_failure(0.0)
        br.record_failure(0.0)
        assert br.state is BreakerState.CLOSED  # streak broken, never 3 in a row

    def test_half_open_probe_and_close(self):
        br, transitions = self.make()
        for _ in range(3):
            br.record_failure(0.0)
        # the reset timer elapses: the next allow() flips to HALF_OPEN
        assert br.allow(1.5, inflight=0)
        assert br.state is BreakerState.HALF_OPEN
        # single probe at a time: in-flight work blocks a second one
        assert not br.allow(1.5, inflight=1)
        br.record_success(1.6)
        assert br.state is BreakerState.HALF_OPEN  # needs 2 consecutive
        br.record_success(1.7)
        assert br.state is BreakerState.CLOSED
        assert transitions[-1] == (BreakerState.HALF_OPEN, BreakerState.CLOSED)

    def test_probe_failure_reopens(self):
        br, _ = self.make()
        for _ in range(3):
            br.record_failure(0.0)
        assert br.allow(1.5, inflight=0)
        br.record_failure(1.6)
        assert br.state is BreakerState.OPEN
        assert not br.allow(1.7, inflight=0)  # timer restarted at 1.6
        assert br.allow(2.7, inflight=0)

    def test_force_open_and_recovered(self):
        br, _ = self.make()
        br.force_open(0.0)
        assert br.state is BreakerState.OPEN and br.trips == 1
        br.on_recovered()
        assert br.state is BreakerState.HALF_OPEN


# -- admission control --------------------------------------------------------


class TestAdmission:
    def test_reject_policy(self):
        rt = make_rt(admission_control=True, admission_queue_depth=2)
        refs = [rt.submit(lambda: 1, compute_cost=0.2) for _ in range(2)]
        with pytest.raises(AdmissionRejectedError) as exc:
            rt.submit(lambda: 2, compute_cost=0.2)
        assert exc.value.reason == "admission_reject"
        assert rt.tasks_shed == 1
        assert rt.log.count("admission_rejected") == 1
        assert rt.get(refs) == [1, 1]
        # slots freed: the same submission is cleanly retryable now
        assert rt.get(rt.submit(lambda: 3)) == 3

    def test_shed_lowest_priority(self):
        rt = make_rt(
            admission_control=True,
            admission_queue_depth=2,
            admission_policy=AdmissionPolicy.SHED_LOWEST_PRIORITY,
        )
        producer = rt.submit(lambda: 10, compute_cost=0.1)
        low = rt.submit(lambda x: x + 1, (producer,), priority=0, name="low")
        high = rt.submit(lambda: 99, priority=5, name="high")  # displaces low
        assert rt.get(high) == 99
        assert rt.get(producer) == 10
        with pytest.raises(TaskCancelledError, match="displaced_by_priority"):
            rt.get(low)
        events = rt.log.of_kind("task_cancelled")
        assert [e["reason"] for e in events] == ["displaced_by_priority"]

    def test_shed_needs_a_lower_priority_victim(self):
        rt = make_rt(
            admission_control=True,
            admission_queue_depth=1,
            admission_policy=AdmissionPolicy.SHED_LOWEST_PRIORITY,
        )
        rt.submit(lambda: 1, compute_cost=0.1, priority=5)
        # the only candidate victim outranks the newcomer: reject instead
        with pytest.raises(AdmissionRejectedError):
            rt.submit(lambda: 2, priority=0)

    def test_queue_with_deadline_parks_and_drains(self):
        rt = make_rt(
            admission_control=True,
            admission_queue_depth=1,
            admission_policy=AdmissionPolicy.QUEUE_WITH_DEADLINE,
            admission_overflow_depth=2,
        )
        first = rt.submit(lambda: 0, compute_cost=0.05)
        parked = [rt.submit(lambda i=i: i, name=f"parked{i}") for i in (1, 2)]
        assert rt.log.count("admission_queued") == 2
        with pytest.raises(AdmissionRejectedError):  # overflow is bounded too
            rt.submit(lambda: 3)
        assert rt.get([first, *parked]) == [0, 1, 2]

    def test_queue_sheds_past_deadline_entries(self):
        rt = make_rt(
            admission_control=True,
            admission_queue_depth=1,
            admission_policy=AdmissionPolicy.QUEUE_WITH_DEADLINE,
        )
        first = rt.submit(lambda: 0, compute_cost=0.5)
        stale = rt.submit(lambda: 1, deadline=0.1)  # slot opens at ~0.5
        assert rt.get(first) == 0
        with pytest.raises(TaskCancelledError, match="queue_deadline"):
            rt.get(stale)
        assert rt.tasks_shed == 1

    def test_raylet_admission_window(self):
        rt = make_rt(n_servers=1, raylet_admission_depth=2)
        refs = [rt.submit(lambda i=i: i * i, compute_cost=1e-3) for i in range(8)]
        assert rt.get(refs) == [i * i for i in range(8)]
        raylet = rt.raylet_for_device("server0/cpu")
        assert raylet.admission_inflight == 0  # every attempt concluded
        assert not rt.overload.deferred
        depth = rt.telemetry.registry.gauge(
            "skadi_admission_queue_depth",
            "task attempts admitted and not yet concluded, per scope",
            scope=raylet.raylet_id,
        )
        assert depth.value == 0.0
        assert max(v for _, v in depth.samples) <= 2.0  # the window held


# -- deadline propagation and cooperative cancellation ------------------------


class TestDeadlines:
    def test_expired_at_submit_is_cancelled(self):
        rt = make_rt(deadline_propagation=True)
        ref = rt.submit(lambda: 1, deadline=0.0)  # now == 0.0 already
        with pytest.raises(TaskCancelledError, match="deadline_exceeded"):
            rt.get(ref)
        assert rt.log.of_kind("task_cancelled")[0]["reason"] == "deadline_exceeded"

    def test_deadline_inherited_from_producers(self):
        rt = make_rt(deadline_propagation=True)
        a = rt.submit(lambda: 1, deadline=0.5)
        b = rt.submit(lambda: 2, deadline=0.3)
        c = rt.submit(lambda x, y: x + y, (a, b))  # no deadline of its own
        assert rt._ctx_of_object[c.object_id].spec.deadline == 0.3  # the min
        assert rt.get(c) == 3

    def test_fanin_consumer_inherits_min_across_two_producer_deadlines(self):
        """Two producers with *different* deadlines feed one consumer: the
        effective deadline is the min over all of them, even when the
        consumer brings its own (looser) deadline to the join."""
        rt = make_rt(deadline_propagation=True)
        tight = rt.submit(lambda: 1, deadline=0.2)
        loose = rt.submit(lambda: 2, deadline=0.7)
        joined = rt.submit(lambda x, y: x + y, (tight, loose), deadline=0.5)
        assert rt._ctx_of_object[joined.object_id].spec.deadline == 0.2
        assert rt.get(joined) == 3

    def test_fanin_consumer_keeps_own_deadline_when_tightest(self):
        rt = make_rt(deadline_propagation=True)
        a = rt.submit(lambda: 1, deadline=0.4)
        b = rt.submit(lambda: 2)  # deadline-free producer must not loosen it
        c = rt.submit(lambda x, y: x + y, (a, b), deadline=0.1)
        assert rt._ctx_of_object[c.object_id].spec.deadline == 0.1
        assert rt.get(c) == 3

    def test_consumer_skipped_when_inputs_arrive_too_late(self):
        rt = make_rt(deadline_propagation=True)
        slow = rt.submit(lambda: 1, compute_cost=0.2)
        doomed = rt.submit(lambda x: x, (slow,), deadline=0.05)
        grandchild = rt.submit(lambda x: x, (doomed,))
        assert rt.get(slow) == 1  # the producer itself had no deadline
        with pytest.raises(TaskCancelledError):
            rt.get(doomed)
        with pytest.raises(TaskCancelledError, match="upstream"):
            rt.get(grandchild)
        reasons = {e["reason"] for e in rt.log.of_kind("task_cancelled")}
        assert reasons == {"deadline_exceeded", "upstream_cancelled"}

    def test_deadlines_inert_without_the_switch(self):
        rt = make_rt(deadline_propagation=False)
        slow = rt.submit(lambda: 1, compute_cost=0.2)
        late = rt.submit(lambda x: x + 1, (slow,), deadline=0.05)
        assert rt.get(late) == 2  # legacy behavior: deadline is ignored
        assert rt.tasks_cancelled == 0


class TestCancellation:
    def test_timed_out_get_leaves_task_cancellable(self):
        rt = make_rt()
        ref = rt.submit(lambda: 42, compute_cost=1.0)
        with pytest.raises(GetTimeoutError):
            rt.get(ref, timeout=0.1)
        # not orphaned: still in flight, owner intact, cancellable
        ctx = rt._ctx_of_object[ref.object_id]
        assert ctx.state not in (TaskState.FAILED, TaskState.CANCELLED)
        assert rt.cancel(ref) is True
        with pytest.raises(TaskCancelledError):
            rt.get(ref)
        assert rt.tasks_cancelled == 1
        assert rt._open_tasks == 0
        events = rt.log.of_kind("task_cancelled")
        assert len(events) == 1 and events[0]["reason"] == "user"

    def test_cancel_after_finish_is_a_noop(self):
        rt = make_rt()
        ref = rt.submit(lambda: 7)
        assert rt.get(ref) == 7
        assert rt.cancel(ref) is False
        assert rt.tasks_cancelled == 0

    def test_cancel_cascades_to_downstream(self):
        rt = make_rt()
        a = rt.submit(lambda: 1, compute_cost=0.5)
        b = rt.submit(lambda x: x + 1, (a,))
        c = rt.submit(lambda x: x + 1, (b,))
        assert rt.cancel(a, reason="user") is True
        for ref in (a, b, c):
            assert rt._ctx_of_object[ref.object_id].state is TaskState.CANCELLED
        with pytest.raises(TaskCancelledError):
            rt.get(c)
        reasons = [e["reason"] for e in rt.log.of_kind("task_cancelled")]
        assert reasons == ["user", "upstream_cancelled", "upstream_cancelled"]

    def test_every_cancellation_event_carries_a_reason(self):
        rt = make_rt(deadline_propagation=True)
        rt.submit(lambda: 1, deadline=0.0)
        victim = rt.submit(lambda: 2, compute_cost=1.0)
        rt.sim.run(until=0.01)
        rt.cancel(victim, reason="user")
        rt.sim.run()
        for ev in rt.log.of_kind("task_cancelled"):
            assert ev["reason"]

    def test_cancelled_consumer_releases_fetch_registry(self):
        """Acceptance: a cancelled consumer neither blocks nor leaks its
        raylet's in-flight fetch-registry entry."""
        rt = make_rt()
        payload = rt.put(b"x" * 64, nbytes=64 * MB)
        out = rt.submit(
            lambda x: len(x), (payload,), pinned_device="server1/cpu", name="victim"
        )
        raylet = rt.raylet_for_device("server1/cpu")
        while not raylet._inflight_fetches:  # run up to mid-transfer
            nxt = rt.sim.peek()
            assert nxt is not None, "fetch never started"
            rt.sim.run(until=nxt)
        assert rt.cancel(out) is True
        rt.sim.run()
        assert raylet._inflight_fetches == {}  # leader's finally ran
        # the object is still fetchable by a fresh consumer afterwards
        again = rt.submit(lambda x: len(x), (payload,), pinned_device="server1/cpu")
        assert rt.get(again) == 64

    def test_cancelled_leader_unblocks_dedup_follower(self):
        rt = make_rt()
        payload = rt.put(b"x" * 64, nbytes=64 * MB)
        leader = rt.submit(
            lambda x: len(x), (payload,), pinned_device="server1/cpu", name="leader"
        )
        follower = rt.submit(
            lambda x: len(x), (payload,), pinned_device="server1/cpu", name="follower"
        )
        raylet = rt.raylet_for_device("server1/cpu")
        while raylet.fetches_deduped == 0:  # follower rides the leader's fetch
            nxt = rt.sim.peek()
            assert nxt is not None, "dedup never engaged"
            rt.sim.run(until=nxt)
        rt.cancel(leader)
        assert rt.get(follower) == 64  # released, refetched, finished
        assert raylet._inflight_fetches == {}


# -- retry budgets ------------------------------------------------------------


class TestRetryBudgetIntegration:
    def flaky_runtime(self, **overrides):
        """Tasks that always time out: without a budget they retry to the
        max; with one they are shed as soon as the node's bucket runs dry."""
        overrides.setdefault("task_timeout", 0.01)
        overrides.setdefault("max_retries", 10)
        overrides.setdefault("retry_backoff_base", 1e-3)
        return make_rt(n_servers=1, **overrides)

    def test_budget_caps_retry_volume(self):
        rt = self.flaky_runtime(
            retry_budget=True, retry_budget_ratio=0.0, retry_budget_cap=3.0
        )
        ref = rt.submit(lambda: 1, compute_cost=1.0, name="stuck")  # >> timeout
        with pytest.raises(TaskCancelledError, match="retry_budget_exhausted"):
            rt.get(ref)
        assert rt.tasks_retried == 3  # exactly the bucket, not max_retries
        assert rt.tasks_shed == 1
        ev = rt.log.of_kind("retry_budget_exhausted")
        assert len(ev) == 1 and ev[0]["node"] == "server0"

    def test_without_budget_retries_run_to_max(self):
        rt = self.flaky_runtime(retry_budget=False)
        ref = rt.submit(lambda: 1, compute_cost=1.0, name="stuck")
        with pytest.raises(Exception):
            rt.get(ref)
        assert rt.tasks_retried == 10

    def test_successes_refill_the_bucket(self):
        rt = self.flaky_runtime(
            retry_budget=True, retry_budget_ratio=1.0, retry_budget_cap=2.0
        )
        quick = [rt.submit(lambda i=i: i, compute_cost=1e-4) for i in range(4)]
        assert rt.get(quick) == [0, 1, 2, 3]
        # 4 first-attempt successes refilled ratio=1 each (clamped at cap)
        assert rt.overload.budget.tokens("server0") == 2.0


# -- circuit breakers ---------------------------------------------------------


class TestBreakerIntegration:
    def test_open_breaker_steers_placement(self):
        rt = make_rt(device_circuit_breakers=True)
        rt.overload.breakers.breaker("server0/cpu").force_open(rt.sim.now)
        assert rt.log.count("breaker_open") == 1
        refs = [rt.submit(lambda i=i: i) for i in range(3)]
        assert rt.get(refs) == [0, 1, 2]
        devices = {rt._ctx_of_object[r.object_id].device.device_id for r in refs}
        assert devices == {"server1/cpu"}  # routed around the tripped device

    def test_all_open_falls_back_to_placing_anyway(self):
        rt = make_rt(device_circuit_breakers=True, breaker_reset_after=100.0)
        for dev in ("server0/cpu", "server1/cpu"):
            rt.overload.breakers.breaker(dev).force_open(rt.sim.now)
        # a fully-tripped pool must not brick the scheduler
        assert rt.get(rt.submit(lambda: 5)) == 5

    def test_recovery_goes_through_half_open_probing(self):
        rt = make_rt(
            device_circuit_breakers=True,
            breaker_reset_after=1e-3,
            breaker_probe_successes=1,
        )
        br = rt.overload.breakers.breaker("server0/cpu")
        br.force_open(rt.sim.now)
        tripped = [rt.submit(lambda i=i: i, compute_cost=5e-3) for i in range(2)]
        assert rt.get(tripped) == [0, 1]  # placed elsewhere while OPEN
        assert rt.sim.now > 1e-3  # the reset window has elapsed...
        probe = rt.submit(lambda: 42)  # ...so this placement probes server0
        assert rt.get(probe) == 42
        assert br.state is BreakerState.CLOSED  # probe succeeded, re-closed
        kinds = [
            e.kind for e in rt.log.events if e.kind.startswith("breaker_")
        ]
        assert kinds[:1] == ["breaker_open"]
        assert "breaker_half_open" in kinds and "breaker_closed" in kinds

    def test_dead_device_forces_the_breaker_open(self):
        rt = make_rt(device_circuit_breakers=True)
        rt.failures.device_dead("server1/cpu", cause="test")
        assert rt.overload.breakers.breaker("server1/cpu").state is BreakerState.OPEN
        rt.failures.device_alive("server1/cpu")
        assert rt.overload.breakers.breaker("server1/cpu").state is BreakerState.HALF_OPEN


# -- the chaos-layer burst injector ------------------------------------------


class TestLoadBurst:
    def test_builder_validation(self):
        with pytest.raises(ValueError):
            ChaosSchedule().burst(0.0, n_tasks=0)
        with pytest.raises(ValueError):
            ChaosSchedule().burst(0.0, n_tasks=4, duration=-1.0)
        with pytest.raises(ValueError):
            ChaosSchedule().burst(0.0, n_tasks=4, jitter=1.0)

    def test_arm_requires_a_task_source(self):
        rt = make_rt()
        schedule = ChaosSchedule().burst(0.0, n_tasks=4, duration=1e-3)
        with pytest.raises(RuntimeError, match="task_source"):
            ChaosMonkey(rt, schedule).arm()

    def run_burst(self, n_tasks=12, **overrides):
        rt = make_rt(**overrides)
        refs = []

        def source(i):
            refs.append(rt.submit(lambda i=i: i, compute_cost=1e-3, name=f"b{i}"))

        schedule = ChaosSchedule().burst(
            1e-4, n_tasks=n_tasks, duration=5e-3, seed=7, jitter=0.25
        )
        monkey = ChaosMonkey(rt, schedule, task_source=source).arm()
        rt.sim.run()
        return rt, monkey, refs

    def test_burst_submits_open_loop(self):
        rt, monkey, refs = self.run_burst()
        assert monkey.load_submitted == 12 and monkey.load_rejected == 0
        assert isinstance(monkey.injected[0], LoadBurst)
        assert rt.log.count("chaos_load_burst") == 1
        assert rt.get(refs) == list(range(12))

    def test_burst_is_seed_deterministic(self):
        a = self.run_burst()[0]
        b = self.run_burst()[0]
        assert a.log.signature() == b.log.signature()
        assert a.sim.now == b.sim.now

    def test_burst_against_bounded_admission(self):
        rt, monkey, refs = self.run_burst(
            n_tasks=24,
            admission_control=True,
            admission_queue_depth=4,
        )
        assert monkey.load_rejected > 0  # the gate actually pushed back
        assert monkey.load_submitted + monkey.load_rejected == 24
        assert rt.get(refs) == sorted(rt.get(refs))  # admitted work all landed
        assert rt.tasks_shed == monkey.load_rejected


# -- all-off equivalence (the bit-for-bit contract) ---------------------------


class TestAllOffEquivalence:
    def test_e17_soak_trace_identical_with_switches_off(self):
        e17 = load_bench("test_e17_chaos_soak")
        legacy = e17.run_soak(e17.SEED, chaos=True)
        gated = e17.run_soak(e17.SEED, chaos=True, **OFF_SWITCHES)
        assert legacy["signature"] == gated["signature"]
        assert legacy["makespan"] == gated["makespan"]
        assert legacy["answer"] == gated["answer"]

    def test_e21_fanout_trace_identical_with_switches_off(self):
        e21 = load_bench("test_e21_fast_data_plane")
        legacy = e21.run_fanout(e21.fanout_runtime(), spread=False)
        gated = e21.run_fanout(
            e21.fanout_runtime(**OFF_SWITCHES), spread=False
        )
        assert legacy.log.signature() == gated.log.signature()
        assert legacy.net.stats.transfers == gated.net.stats.transfers
        assert legacy.sim.now == gated.sim.now

    def test_switches_on_are_inert_on_a_healthy_run(self):
        """With every mechanism enabled but never triggered (huge depths, no
        deadlines, no failures), the trace still matches legacy exactly."""

        def run(**overrides):
            rt = make_rt(**overrides)
            a = rt.submit(lambda: 2, compute_cost=1e-3)
            b = rt.submit(lambda x: x * 3, (a,), compute_cost=1e-3)
            fan = [rt.submit(lambda x, i=i: x + i, (b,)) for i in range(4)]
            total = rt.submit(lambda *xs: sum(xs), tuple(fan))
            assert rt.get(total) == 4 * 6 + 6
            return rt

        legacy = run()
        armed = run(
            admission_control=True,
            admission_queue_depth=10_000,
            retry_budget=True,
            deadline_propagation=True,
            device_circuit_breakers=True,
        )
        assert legacy.log.signature() == armed.log.signature()
        assert legacy.sim.now == armed.sim.now
