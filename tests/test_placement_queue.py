"""Locality prices the queue a task would join and the fetch it would make.

* **Leases in flight.**  A lease counts for placement from the instant after
  it was sent, and stops counting when ``_lease`` ends, however it ends:
  handled, lost in transit, refused by a lease gate, its raylet dead, or its
  attempt interrupted (also before the attempt's process first ran).
* **The fetch a pull makes.**  Under PULL a remote READY input costs the
  locate and pull-request round trips and the source raylet's handling on
  top of its transfer; under PUSH the transfer alone.
* **A timed-out retry** leaves out the device it timed out on, unless that
  device is its only candidate.
* **A task no attempt won** is one ``recovery`` window on the critical path.
"""

from __future__ import annotations

import pytest
from asserts import assert_no_lease_in_flight, assert_recovery_drained

from repro.cluster.cluster import build_serverful
from repro.cluster.hardware import DeviceKind
from repro.runtime import ResolutionMode, RuntimeConfig, SchedulingPolicy, ServerlessRuntime
from repro.runtime.object_ref import ObjectRef
from repro.runtime.ownership import OwnershipTable
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import TaskSpec, TaskState
from repro.telemetry.metrics import MetricsRegistry

PULL, PUSH = ResolutionMode.PULL, ResolutionMode.PUSH
HANDLING = 50e-6  # a server CPU raylet's dispatch overhead


def cpu_scheduler(n_servers=2):
    cluster = build_serverful(n_servers)
    devices = [d for d in cluster.all_devices() if d.kind == DeviceKind.CPU]
    sched = Scheduler(
        cluster, OwnershipTable(), SchedulingPolicy.LOCALITY, devices, devices[0].device_id,
        MetricsRegistry(),
    )
    return cluster, sched


def spec(task_id="t", args=(), **kw):
    return TaskSpec(task_id=task_id, func=lambda *a: None, args=args, **kw)


def next_instant(cluster, dt=1e-6):
    cluster.sim.timeout(dt)
    cluster.sim.run()


class TestOneInstantOneView:
    def test_a_lease_counts_from_the_next_instant(self):
        cluster, sched = cpu_scheduler()
        sent = sched.lease_sent("server0/cpu", HANDLING)
        # sent in this instant: every placement of the instant shares the view
        assert sched.place(spec("a")).device_id == "server0/cpu"
        next_instant(cluster)
        assert sched.place(spec("b")).device_id == "server1/cpu"
        sched.lease_ended("server0/cpu", sent)
        assert sched.place(spec("c")).device_id == "server0/cpu"
        assert sched.leases_in_flight("server0/cpu") == 0

    def test_each_lease_is_priced_at_its_raylet_handling(self):
        cluster, sched = cpu_scheduler()
        for _ in range(2):
            sched.lease_sent("server0/cpu", HANDLING)
        sched.lease_sent("server1/cpu", 3 * HANDLING)
        next_instant(cluster)
        # 2 x 50 us on server0 against 1 x 150 us on server1
        assert sched.place(spec("a")).device_id == "server0/cpu"

    def test_a_lease_that_ends_in_its_own_instant_never_counted(self):
        cluster, sched = cpu_scheduler()
        early = sched.lease_sent("server0/cpu", HANDLING)
        next_instant(cluster)
        fresh = sched.lease_sent("server0/cpu", HANDLING)
        sched.lease_ended("server0/cpu", fresh)
        assert sched.leases_in_flight("server0/cpu") == 1
        assert sched.place(spec("a")).device_id == "server1/cpu"  # the early one counts
        sched.lease_ended("server0/cpu", early)
        assert sched.leases_in_flight("server0/cpu") == 0

    def test_running_tasks_are_no_queue_but_tasks_waiting_for_a_slot_are(self):
        cluster, sched = cpu_scheduler()
        server0 = cluster.device("server0/cpu")
        for _ in range(server0.spec.slots):
            server0.slots.request()  # a running task holds a slot
        assert sched.place(spec("a")).device_id == "server0/cpu"  # busy is not slow
        server0.slots.request()  # one more than its slots: it waits
        assert sched.place(spec("b")).device_id == "server1/cpu"


def lease_counts(rt):
    """At every retry, the leases in flight summed over all devices."""
    seen = []

    def on_record(ev):
        if ev.kind == "task_retry":
            devices = rt.cluster.all_devices()
            seen.append(sum(rt.scheduler.leases_in_flight(d.device_id) for d in devices))

    rt.log.add_observer(on_record)
    return seen


def runtime(n_servers=2, **config):
    config.setdefault("retry_backoff_base", 1e-4)
    return ServerlessRuntime(build_serverful(n_servers), RuntimeConfig(**config))


class TestEveryReleasePath:
    def test_handled(self):
        rt = runtime()
        ref = rt.submit(lambda: 1, compute_cost=1e-3, pinned_device="server1/cpu")
        rt.run(until=1e-6)  # the lease left at 0 and is on its way
        assert rt.scheduler.leases_in_flight("server1/cpu") == 1
        rt.run(until=5e-4)  # handled: the task runs
        assert rt.task_state(ref) is TaskState.RUNNING
        assert rt.scheduler.leases_in_flight("server1/cpu") == 0
        assert rt.get(ref) == 1
        assert_recovery_drained(rt)

    def test_lost_in_transit(self):
        rt = runtime()
        rt.net.partition({"server1"})
        seen = lease_counts(rt)
        ref = rt.submit(lambda: 1, compute_cost=1e-3, pinned_device="server1/cpu")
        rt.sim.schedule(2e-4, rt.net.heal_partition)
        assert rt.get(ref) == 1
        causes = [e["cause"] for e in rt.log.of_kind("task_retry")]
        assert causes and set(causes) == {"lease lost in transit"} and set(seen) == {0}
        assert_recovery_drained(rt)

    def test_refused_by_a_lease_gate(self):
        rt = runtime()
        refusals = iter(["lease refused"])
        rt.lease_gates.append(lambda ctx, raylet: next(refusals, None))
        seen = lease_counts(rt)
        assert rt.get(rt.submit(lambda: 1, compute_cost=1e-3)) == 1
        assert [e["cause"] for e in rt.log.of_kind("task_retry")] == ["lease refused"]
        assert seen == [0]
        assert_recovery_drained(rt)

    def test_the_raylet_is_dead(self):
        """Only the daemon dies, and nobody is told: the lease arrives at a
        dead raylet, which is not the attempt's interrupt."""
        rt = runtime()
        raylet = rt.raylet_for_device("server1/cpu")
        seen = lease_counts(rt)
        ref = rt.submit(lambda: 1, compute_cost=1e-3, pinned_device="server1/cpu")
        rt.run(until=1e-6)
        raylet.fail_control()
        rt.sim.schedule(1e-4, raylet.restart)
        assert rt.get(ref) == 1
        assert rt.log.of_kind("task_retry")[0]["cause"] == "lease lost in transit"
        assert seen[:1] == [0]
        assert_recovery_drained(rt)

    @pytest.mark.parametrize("at", [None, 1e-6], ids=["before_its_first_run", "in_transit"])
    def test_interrupted(self, at):
        rt = runtime()
        ref = rt.submit(lambda: 1, compute_cost=1e-3, pinned_device="server1/cpu")
        if at is not None:
            rt.run(until=at)
            assert rt.scheduler.leases_in_flight("server1/cpu") == 1
        assert rt.cancel(ref)
        rt.run()
        assert rt.task_state(ref) is TaskState.CANCELLED
        assert_no_lease_in_flight(rt)
        assert_recovery_drained(rt)


class TestThePriceOfAFetch:
    def ready_on_server1(self, mode):
        rt = runtime(resolution=mode)
        data = rt.submit(lambda: 7, compute_cost=1e-4, pinned_device="server1/cpu")
        rt.get(data)
        return rt, data

    def test_pull_pays_the_locate_and_the_pull_request(self):
        rt, _ = self.ready_on_server1(PULL)
        message = rt.net.message_time_estimate
        here, there, gcs = "server0/cpu", "server1/cpu", rt.gcs_endpoint
        expected = message(here, gcs) + message(gcs, here)
        expected += message(here, there) + message(there, here)
        handling = rt.raylet_for_device(there).host_device.spec.dispatch_overhead
        assert rt.scheduler.fetch_overhead(there, here) == expected + handling

    def test_push_pays_the_transfer_alone(self):
        rt, _ = self.ready_on_server1(PUSH)
        assert rt.scheduler.fetch_overhead is None

    @pytest.mark.parametrize("mode, placed", [(PULL, "server1/cpu"), (PUSH, "server0/cpu")])
    def test_one_lease_ahead_at_the_holder(self, mode, placed):
        """The holder has one lease in flight (50 us): a push moves the small
        input for less, a pull's round trips and handling cost more."""
        rt, data = self.ready_on_server1(mode)
        sent = rt.scheduler.lease_sent("server1/cpu", HANDLING)
        next_instant(rt.cluster)
        reader = spec("reader", args=(ObjectRef(data.object_id),), compute_cost=1e-4)
        assert rt.scheduler.place(reader).device_id == placed
        rt.scheduler.lease_ended("server1/cpu", sent)

    def test_a_message_takes_what_its_estimate_says(self):
        rt = runtime()
        took = []

        def send():
            start = rt.sim.now
            yield rt.net.message("server0/cpu", "server1/cpu")
            took.append(rt.sim.now - start)

        rt.sim.process(send())
        rt.run()
        assert took == [rt.net.message_time_estimate("server0/cpu", "server1/cpu")]


class TestATimedOutRetry:
    def test_leaves_out_the_device_it_timed_out_on(self):
        rt = runtime(n_servers=2, task_timeout=5e-3, max_retries=2)
        rt.cluster.device("server0/cpu").slowdown = 50.0
        ref = rt.submit(lambda: 1, compute_cost=1e-3)
        assert rt.get(ref) == 1
        assert rt.log.count("task_timeout") == 1
        assert rt.timeline_of(ref).device == "server1/cpu"
        assert_recovery_drained(rt)

    def test_falls_back_when_it_is_the_only_candidate(self):
        rt = runtime(n_servers=1, task_timeout=5e-3, max_retries=2)
        device = rt.cluster.device("server0/cpu")
        device.slowdown = 50.0
        rt.sim.schedule(5e-3, setattr, device, "slowdown", 1.0)
        ref = rt.submit(lambda: 1, compute_cost=1e-3)
        assert rt.get(ref) == 1
        assert rt.log.count("task_timeout") == 1
        assert rt.timeline_of(ref).device == "server0/cpu"
        assert_recovery_drained(rt)

    def test_the_scheduler_verb(self):
        _, sched = cpu_scheduler(3)
        assert sched.place(spec("a"), avoid="server0/cpu").device_id == "server1/cpu"
        pinned = spec("b", pinned_device="server0/cpu")
        assert sched.place(pinned, avoid="server0/cpu").device_id == "server0/cpu"


def test_a_task_no_attempt_won_is_recovery_on_its_critical_path():
    rt = runtime()
    ref = rt.submit(lambda: 1, compute_cost=1.0)
    rt.run(until=1e-3)
    assert rt.cancel(ref)
    rt.run()
    breakdown = rt.critical_path(ref).breakdown
    assert breakdown["compute"] == 0.0
    assert breakdown["recovery"] == pytest.approx(1e-3)
    assert_recovery_drained(rt)
