"""Overload control: admission and retry budgets.

Two mechanisms, each behind a :class:`RuntimeConfig` switch whose
all-off default reproduces legacy traces bit-for-bit (the equivalence
tests at the bottom pin that on the E17 and E21 scenarios).  The
deterministic retry-backoff jitter contract is pinned here too, so seeded
chaos traces cannot drift through an innocent-looking refactor.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.chaos import ChaosMonkey, ChaosSchedule, LoadBurst
from repro.cluster import build_serverful
from repro.cluster.hardware import GB, MB
from repro.runtime import (
    AdmissionRejectedError,
    GetTimeoutError,
    ResolutionMode,
    RetryBudget,
    RuntimeConfig,
    ServerlessRuntime,
    TaskCancelledError,
    TaskState,
    backoff_jitter_fraction,
    retry_backoff_delay,
    supervision,
)

OFF_SWITCHES = dict(
    admission_control=False,
    retry_budget=False,
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

    def test_delay_sequence_exact_values(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.supervision.RETRY_JITTER", 0.5)
        cfg = RuntimeConfig(retry_backoff_base=1e-3)
        delays = [retry_backoff_delay(cfg, "task1", r) for r in (1, 2, 3, 4)]
        assert delays == [
            0.001313637645173268,
            0.0021797149810427133,
            0.005655308260036471,
            0.009675217714550722,
        ]

    def test_default_delay_sequence_exact_values(self):
        """The default jitter (``supervision.RETRY_JITTER`` = 0.25), pinned:
        the values every seeded chaos replay has used."""
        assert supervision.RETRY_JITTER == 0.25
        cfg = RuntimeConfig(retry_backoff_base=1e-3)
        delays = [retry_backoff_delay(cfg, "task1", r) for r in (1, 2, 3, 4)]
        assert delays == [
            0.0011568188225866338,
            0.0020898574905213567,
            0.004827654130018236,
            0.008837608857275362,
        ]

    def test_runtime_uses_the_pinned_delay(self, monkeypatch):
        """Pinned through what the runtime does: one refused lease, and the
        re-dispatch comes exactly the pinned delay after the ``task_retry``."""
        monkeypatch.setattr("repro.runtime.supervision.RETRY_JITTER", 0.5)
        rt = make_rt(n_servers=1)
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


# -- which mechanisms a config installs ----------------------------------------


class TestInstall:
    """A switch that is off subscribes nothing: its seam lists stay empty."""

    def test_both_switches_off_install_no_component(self):
        rt = make_rt(**OFF_SWITCHES)
        assert rt.overload is None
        assert rt.submit_gates == [] and rt.retry_gates == []

    def test_admission_alone_gates_submits_only(self):
        rt = make_rt(admission_control=True)
        assert [g.__name__ for g in rt.submit_gates] == ["_admission_gate"]
        assert rt.retry_gates == [] and rt.on_task_finished == []
        assert not hasattr(rt.overload, "budget")

    def test_the_budget_alone_never_refuses_a_submit(self):
        rt = make_rt(retry_budget=True)
        assert rt.submit_gates == [] and rt.on_task_open == []
        refs = [rt.submit(lambda i=i: i, compute_cost=1e-2) for i in range(100)]
        assert rt.get(refs) == list(range(100))
        assert rt.tasks_shed == 0 and rt.overload.admitted_open == 0


# -- admission control --------------------------------------------------------


class TestAdmission:
    def test_reject_policy(self):
        rt = make_rt(admission_control=True, admission_queue_depth=2)
        refs = [rt.submit(lambda: 1, compute_cost=0.2) for _ in range(2)]
        with pytest.raises(AdmissionRejectedError, match="admission queue full"):
            rt.submit(lambda: 2, compute_cost=0.2)
        assert rt.tasks_shed == 1
        assert rt.log.count("admission_rejected") == 1
        assert rt.get(refs) == [1, 1]
        # slots freed: the same submission is cleanly retryable now
        assert rt.get(rt.submit(lambda: 3)) == 3

    def test_a_rejected_submission_leaves_no_state(self):
        rt = make_rt(admission_control=True, admission_queue_depth=1)
        rt.submit(lambda: 1, compute_cost=0.2)
        state = lambda: (
            len(rt._ctxs), len(rt._ctx_of_object), len(rt.lineage), rt._open_tasks
        )
        before = state()
        with pytest.raises(AdmissionRejectedError):
            rt.submit(lambda: 2, name="refused")
        assert state() == before
        assert rt.telemetry.registry.value("skadi_tasks_submitted_total") == 1
        assert rt.overload.admitted_open == 1

    def test_a_rejection_is_counted_by_reason(self):
        rt = make_rt(admission_control=True, admission_queue_depth=1)
        rt.submit(lambda: 1, compute_cost=0.2)
        for _ in range(3):
            with pytest.raises(AdmissionRejectedError):
                rt.submit(lambda: 2)
        reg = rt.telemetry.registry
        assert reg.value("skadi_shed_tasks_total", reason="admission_reject") == 3
        assert rt.tasks_shed == 3

    def test_the_rejection_names_the_depth_and_the_task(self):
        rt = make_rt(admission_control=True, admission_queue_depth=2)
        rt.submit(lambda: 1, compute_cost=0.2)
        rt.submit(lambda: 1, compute_cost=0.2)
        with pytest.raises(AdmissionRejectedError, match=r"\(2/2 open tasks\)") as exc:
            rt.submit(lambda: 2, name="third")
        (ev,) = rt.log.of_kind("admission_rejected")
        assert ev["task"] in str(exc.value)
        assert ev["name"] == "third" and ev["open_tasks"] == 2
        assert isinstance(exc.value, RuntimeError)

    def test_the_rejected_event_carries_a_tenant_only_when_set(self):
        rt = make_rt(admission_control=True, admission_queue_depth=1)
        rt.submit(lambda: 1, compute_cost=0.2)
        with pytest.raises(AdmissionRejectedError):
            rt.submit(lambda: 2, tenant="gold")
        with pytest.raises(AdmissionRejectedError):
            rt.submit(lambda: 3)
        tenanted, bare = rt.log.of_kind("admission_rejected")
        assert tenanted["tenant"] == "gold"
        assert "tenant" not in bare.detail

    def test_a_failed_task_releases_its_slot(self):
        rt = make_rt(admission_control=True, admission_queue_depth=1)

        def boom():
            raise ValueError("payload bug")

        bad = rt.submit(boom, name="bad")
        with pytest.raises(Exception):
            rt.get(bad)
        assert rt.overload.admitted_open == 0
        assert rt.get(rt.submit(lambda: 5)) == 5

    def test_a_cancelled_task_releases_its_slot(self):
        rt = make_rt(admission_control=True, admission_queue_depth=1)
        slow = rt.submit(lambda: 1, compute_cost=1.0)
        with pytest.raises(AdmissionRejectedError):
            rt.submit(lambda: 2)
        assert rt.cancel(slow) is True
        assert rt.overload.admitted_open == 0
        assert rt.get(rt.submit(lambda: 3)) == 3

    def test_a_waiting_consumer_holds_a_slot(self):
        """Admission bounds *open* tasks, not running ones: a consumer parked
        on its producer's output counts against the depth."""
        rt = make_rt(admission_control=True, admission_queue_depth=2)
        producer = rt.submit(lambda: 1, compute_cost=0.2)
        consumer = rt.submit(lambda x: x + 1, (producer,))
        assert rt.task_state(consumer) is not TaskState.RUNNING
        with pytest.raises(AdmissionRejectedError):
            rt.submit(lambda: 3)
        assert rt.get(consumer) == 2
        assert rt.overload.admitted_open == 0

    def test_a_multi_output_task_takes_one_slot(self):
        rt = make_rt(admission_control=True, admission_queue_depth=2)
        outs = rt.submit(lambda: (1, 2, 3), num_returns=3, compute_cost=0.2)
        assert rt.overload.admitted_open == 1
        one = rt.submit(lambda: 4, compute_cost=0.2)
        with pytest.raises(AdmissionRejectedError):
            rt.submit(lambda: 5)
        assert rt.get(outs) == [1, 2, 3] and rt.get(one) == 4
        assert rt.overload.admitted_open == 0

    def test_gang_members_hold_slots_until_they_finish(self):
        rt = make_rt(admission_control=True, admission_queue_depth=2)
        rt.submit(lambda: 1, gang_group="g")
        rt.submit(lambda: 2, gang_group="g")
        with pytest.raises(AdmissionRejectedError):
            rt.submit(lambda: 3)
        assert rt.get(rt.launch_gang("g")) == [1, 2]
        assert rt.overload.admitted_open == 0

    def test_a_retried_task_keeps_its_one_slot(self):
        rt = make_rt(n_servers=1, admission_control=True, admission_queue_depth=1)
        refusals = iter(["refused", "refused again"])
        rt.lease_gates.append(lambda ctx, raylet: next(refusals, None))
        opened = []
        rt.on_task_open.append(lambda ctx: opened.append(ctx.spec.task_id))
        ref = rt.submit(lambda: 9, name="retried")
        assert rt.get(ref) == 9
        assert rt.tasks_retried == 2 and len(opened) == 1
        assert rt.overload.admitted_open == 0

    def test_every_open_task_holds_exactly_one_slot(self):
        rt = make_rt(admission_control=True, admission_queue_depth=8)
        refs = [rt.submit(lambda i=i: i, compute_cost=0.05) for i in range(5)]
        assert rt.overload.slots == set(rt._ctxs)
        assert len(rt.overload.slots) == rt.overload.admitted_open == rt._open_tasks == 5
        assert rt.get(refs) == list(range(5))
        assert not rt.overload.slots


# -- cooperative cancellation --------------------------------------------------


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

    def test_submit_takes_no_deadline(self):
        """Tasks carry no deadline: a late consumer runs to completion."""
        rt = make_rt()
        with pytest.raises(TypeError, match="deadline"):
            rt.submit(lambda: 1, deadline=1.0)
        slow = rt.submit(lambda: 1, compute_cost=0.2)
        late = rt.submit(lambda x: x + 1, (slow,))
        assert rt.get(late) == 2
        assert rt.tasks_cancelled == 0

    def test_every_cancellation_event_carries_a_reason(self):
        rt = make_rt()
        rt.submit(lambda: 1)
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

    def test_a_retried_success_refills_nothing(self):
        rt = self.flaky_runtime(
            retry_budget=True, retry_budget_ratio=1.0, retry_budget_cap=4.0
        )
        refusals = iter(["refused"])
        rt.lease_gates.append(lambda ctx, raylet: next(refusals, None))
        assert rt.get(rt.submit(lambda: 1, name="retried")) == 1
        assert rt.tasks_retried == 1
        # the retry spent a token; its success is not a first attempt
        assert rt.overload.budget.tokens("server0") == 3.0
        assert rt.get(rt.submit(lambda: 2, name="fresh")) == 2
        assert rt.overload.budget.tokens("server0") == 4.0

    def test_the_gauge_tracks_each_nodes_tokens(self):
        rt = self.flaky_runtime(
            retry_budget=True, retry_budget_ratio=0.0, retry_budget_cap=3.0
        )
        ref = rt.submit(lambda: 1, compute_cost=1.0, name="stuck")
        with pytest.raises(TaskCancelledError):
            rt.get(ref)
        gauge = rt.telemetry.registry.gauge(
            "skadi_retry_budget_tokens", "remaining retry-budget tokens per node",
            node="server0",
        )
        assert gauge.value == 0.0
        assert [v for _, v in gauge.samples] == [2.0, 1.0, 0.0]

    def test_exhaustion_cancels_the_consumers(self):
        rt = self.flaky_runtime(
            retry_budget=True, retry_budget_ratio=0.0, retry_budget_cap=1.0
        )
        stuck = rt.submit(lambda: 1, compute_cost=1.0, name="stuck")
        child = rt.submit(lambda x: x + 1, (stuck,), name="child")
        with pytest.raises(TaskCancelledError, match="upstream"):
            rt.get(child)
        reasons = [e["reason"] for e in rt.log.of_kind("task_cancelled")]
        assert reasons == ["retry_budget_exhausted", "upstream_cancelled"]
        assert rt.tasks_shed == 1  # the consumer was cancelled, not shed

    def test_the_exhaustion_event_names_the_failing_cause(self):
        rt = self.flaky_runtime(
            retry_budget=True, retry_budget_ratio=0.0, retry_budget_cap=1.0
        )
        rt.lease_gates.append(lambda ctx, raylet: "lease refused")
        ref = rt.submit(lambda: 1, name="refused")
        with pytest.raises(TaskCancelledError, match="retry_budget_exhausted"):
            rt.get(ref)
        (ev,) = rt.log.of_kind("retry_budget_exhausted")
        assert ev["cause"] == "lease refused" and ev["node"] == "server0"
        assert ev["task"] == ref.task_id

    def test_each_node_spends_its_own_bucket(self):
        rt = make_rt(
            n_servers=2, task_timeout=0.01, max_retries=10, retry_backoff_base=1e-3,
            retry_budget=True, retry_budget_ratio=0.0, retry_budget_cap=2.0,
        )
        refs = [
            rt.submit(
                lambda: 1, compute_cost=1.0, name=f"stuck{i}",
                pinned_device=f"server{i}/cpu",
            )
            for i in range(2)
        ]
        for ref in refs:
            with pytest.raises(TaskCancelledError, match="retry_budget_exhausted"):
                rt.get(ref)
        assert rt.tasks_retried == 4  # two tokens on each node
        nodes = sorted(e["node"] for e in rt.log.of_kind("retry_budget_exhausted"))
        assert nodes == ["server0", "server1"]

    def test_an_unplaceable_retry_spends_the_cluster_bucket(self):
        """A retry the scheduler finds nowhere to place holds no device: it
        is paid from the cluster-wide bucket, not from a node's."""
        rt = make_rt(
            n_servers=1, max_retries=10, retry_backoff_base=1e-3,
            retry_budget=True, retry_budget_ratio=0.0, retry_budget_cap=2.0,
        )
        ref = rt.submit(lambda: 1, compute_cost=1.0, name="homeless")
        rt.sim.run(until=1e-3)
        rt.fail_device("server0/cpu")  # the cluster's only CPU
        with pytest.raises(TaskCancelledError, match="retry_budget_exhausted"):
            rt.get(ref)
        (ev,) = rt.log.of_kind("retry_budget_exhausted")
        assert ev["node"] == "<cluster>" and "no schedulable device" in ev["cause"]
        assert rt.overload.budget.tokens("<cluster>") == 0.0
        assert rt.overload.budget.tokens("server0") == 1.0  # the dead attempt
        assert rt.tasks_retried == 3


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
        failures), the trace still matches legacy exactly."""

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
        )
        assert legacy.log.signature() == armed.log.signature()
        assert legacy.sim.now == armed.sim.now


# -- the sanitizer watching overload control -----------------------------------


def struck_overload_run(sanitizers=()):
    """A 1 GB argument in flight to server1 when its CPU dies (3 ms) and
    comes back (8 ms), next to a burst the 4-deep admission queue refuses,
    and every retry paid from the budget.
    Returns the runtime, every protocol event the probe emitted as ``(time,
    site, kind, detail)``, and how many submissions were refused."""
    rt = make_rt(
        n_servers=3,
        admission_control=True,
        admission_queue_depth=4,
        retry_budget=True,
        sanitizers=sanitizers,
    )
    emitted = []
    if rt.config.sanitizers:
        # "invariants" keeps no trace: record what the monitors are offered
        emit = rt.probe.emit

        def recording_emit(site, kind, detail=(), *args, **kwargs):
            emitted.append((rt.sim.now, site, kind, detail))
            emit(site, kind, detail, *args, **kwargs)

        rt.probe.emit = recording_emit
    big = rt.submit(
        lambda: 1, name="big", output_nbytes=GB, pinned_device="server0/cpu",
        compute_cost=1e-3,
    )
    reader = rt.submit(
        lambda x: x + 1, (big,), name="reader",
        pinned_device="server1/cpu", compute_cost=1e-3,
    )
    refused = 0
    for i in range(4):
        try:
            rt.submit(lambda i=i: i, name=f"late{i}", compute_cost=1e-3)
        except AdmissionRejectedError:
            refused += 1

    def strike():
        yield rt.sim.timeout(3e-3)
        rt.fail_device("server1/cpu")
        yield rt.sim.timeout(5e-3)
        rt.restore_device("server1/cpu")

    rt.sim.process(strike(), name="driver:strike")
    rt.sim.run()
    assert rt.task_state(reader) is TaskState.FINISHED
    return rt, emitted, refused


class TestSanitizedOverload:
    """The monitors watch a real overloaded run: admission refusals and the
    fetch registry's aborts both reach them."""

    def test_the_monitors_see_admission_and_the_fetch_registry(self):
        legacy, _, _ = struck_overload_run()
        rt, emitted, refused = struck_overload_run(sanitizers=("invariants",))
        assert rt.log.signature() == legacy.log.signature()
        assert refused == 2
        assert rt.tasks_retried > 0 and rt.overload.budget.consumed == rt.tasks_retried
        assert rt.probe.report().violations == []
        # every emitted event, pinned: moving where an event is emitted
        # from must not move the event.  Re-recorded when transfers became
        # byte-fair flows: the abandoned 1 GB fetch still holds server1's link
        # when its retry starts, so the retry drains at half the link, not
        # behind the chunk round-robin; the log signature did not move.
        # Re-recorded when deadline propagation left the runtime: the list
        # lost its six deadline_inherit events and nothing else.
        assert hashlib.sha1(repr(emitted).encode()).hexdigest()[:12] == "803f2a6f43ad"
        seen = {kind for _, _, kind, _ in emitted}
        assert seen >= {"adm_reject", "fetch_abort"}
