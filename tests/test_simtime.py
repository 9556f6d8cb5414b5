"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import gc
import sys
import weakref
from pathlib import Path

import pytest

from repro.chaos.perturb import TiePerturbation
from repro.cluster.cluster import build_serverful
from repro.cluster.hardware import Device
from repro.cluster.network import CONTROL_MSG_BYTES, Network
from repro.cluster.simtime import (
    Channel,
    Hold,
    Interrupt,
    Resource,
    Signal,
    SimulationError,
    Simulator,
)
from repro.cluster.topology import LinkSpec, Topology
from repro.runtime import ResolutionMode, RuntimeConfig, ServerlessRuntime
from repro.runtime.raylet import Raylet
from repro.runtime.supervision import Supervisor


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_callbacks_run_in_time_order(self, sim):
        seen = []
        sim.schedule(2.0, lambda: seen.append("b"))
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(3.0, lambda: seen.append("c"))
        sim.run()
        assert seen == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_break_by_insertion_order(self, sim):
        seen = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: seen.append(i))
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_stops_early(self, sim):
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(5.0, lambda: seen.append(5))
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now == 2.0
        sim.run()
        assert seen == [1, 5]

    def test_peek_returns_next_event_time(self, sim):
        assert sim.peek() is None
        sim.schedule(4.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.peek() == 2.0


class TestCallAt:
    # 0.3 + (0.9 - 0.3) != 0.9: a relative delay misses by one ulp
    NOW, WHEN = 0.3, 0.9

    def test_lands_at_exactly_the_time_given(self, sim):
        assert self.NOW + (self.WHEN - self.NOW) != self.WHEN
        seen = []
        sim.schedule(self.NOW, lambda: sim.call_at(self.WHEN, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [self.WHEN]

    def test_queues_behind_what_is_already_there(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "scheduled")
        sim.call_at(1.0, seen.append, "called")
        sim.call_at(0.0, seen.append, "now")
        sim.run()
        assert seen == ["now", "scheduled", "called"]
        with pytest.raises(ValueError):
            sim.call_at(0.5, seen.append, "past")

    @pytest.mark.parametrize("where", ["alone", "shared", "now", "promoted"])
    def test_a_cancelled_entry_never_runs_nor_moves_the_clock(self, sim, where):
        seen = []
        if where == "shared":
            sim.schedule(2.0, seen.append, "kept")
        elif where == "promoted":
            # dispatched at 2.0, once the instant's bucket has become the ring
            sim.schedule(2.0, lambda: (seen.append("kept"), sim.cancel(handle)))
        handle = sim.call_at(0.0 if where == "now" else 2.0, seen.append, "cancelled")
        sim.schedule(1.0, seen.append, "last")
        if where != "promoted":
            sim.cancel(handle)
            assert sim.peek() == 1.0
        sim.run()
        kept = where in ("shared", "promoted")
        assert seen == (["last", "kept"] if kept else ["last"])
        assert sim.now == (2.0 if kept else 1.0)

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_a_cancelled_instant_does_not_end_a_bounded_run(self, sim, perturbed):
        if perturbed:
            sim.set_perturbation(TiePerturbation(seed=7))
        handle = sim.call_at(3.0, lambda: None)
        sim.cancel(handle)
        assert sim.run(until=5.0) == 0.0 and sim.peek() is None

    def test_an_instant_cancelled_and_filled_again_runs_once(self, sim):
        seen = []
        sim.cancel(sim.call_at(2.0, seen.append, "cancelled"))
        sim.call_at(2.0, seen.append, "again")
        sim.schedule(3.0, seen.append, "last")
        sim.run()
        assert seen == ["again", "last"] and sim.events_executed() == 2

    @pytest.mark.parametrize("shared", [False, True])
    def test_cancel_from_a_timeout_on_the_same_instant(self, sim, shared):
        # the entry is queued at 1.0, behind the timeout already waiting on
        # 5.0, so the woken process cancels it from inside the instant
        seen = []
        handles = []

        def enqueue():
            if shared:
                sim.schedule(4.0, seen.append, "kept")
            handles.append(sim.call_at(5.0, seen.append, "cancelled"))

        def sleeper():
            yield sim.timeout(5.0)
            seen.append(("tick", sim.now))
            sim.cancel(handles[0])

        sim.process(sleeper())
        sim.schedule(1.0, enqueue)
        sim.run()
        assert seen == [("tick", 5.0)] + (["kept"] if shared else [])
        assert sim.now == 5.0

    def test_a_cancelled_instant_between_timeouts_changes_nothing(self, sim):
        ticks = []

        def sleeper(delay):
            yield sim.timeout(delay)
            ticks.append(sim.now)

        sim.process(sleeper(1.0))
        sim.process(sleeper(3.0))
        sim.cancel(sim.call_at(2.0, lambda: None))
        sim.schedule(10.0, lambda: None)
        assert sim.run() == 10.0
        assert ticks == [1.0, 3.0]

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_cancelling_what_is_not_pending_raises(self, sim, perturbed):
        if perturbed:
            sim.set_perturbation(TiePerturbation(seed=7))
        handle = sim.call_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.cancel(handle)

    def test_under_a_perturbation(self, sim):
        sim.set_perturbation(TiePerturbation(seed=7))
        seen = []
        keep = sim.call_at(self.WHEN, seen.append, "kept")
        drop = sim.call_at(self.WHEN, seen.append, "cancelled")
        sim.cancel(drop)
        sim.run()
        assert keep is not drop and seen == ["kept"] and sim.now == self.WHEN


class TestTimeout:
    """``sim.timeout`` and :class:`Hold` share one constructor; it must
    behave alike on the inlined enqueue and under a perturbation."""

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError, match="negative timeout delay"):
            sim.timeout(-1.0)

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_resumes_with_its_value(self, sim, perturbed):
        if perturbed:
            sim.set_perturbation(TiePerturbation(seed=7))

        def proc():
            first = yield sim.timeout(1.0, "a")
            second = yield sim.timeout(0.5)
            return first, second

        assert sim.run_until_complete(sim.process(proc())) == ("a", None)
        assert sim.now == 1.5

    def test_zero_delay_fires_without_moving_the_clock(self, sim):
        seen = []

        def proc():
            yield sim.timeout(2.0)
            seen.append((yield sim.timeout(0.0, "now")))
            seen.append(sim.now)

        sim.run_until_complete(sim.process(proc()))
        assert seen == ["now", 2.0]

    def test_holds_under_a_perturbation(self, sim):
        sim.set_perturbation(TiePerturbation(seed=7))
        res = Resource(sim, capacity=1)
        holds = [Hold(res, d) for d in (2.0, 3.0)]
        sim.run()
        assert [h.value for h in holds] == [2.0, 3.0]
        assert sim.now == 5.0 and res.in_use == 0


class TestProcesses:
    def test_process_advances_virtual_time(self, sim):
        def proc():
            yield sim.timeout(1.5)
            yield sim.timeout(2.5)
            return "done"

        p = sim.process(proc())
        result = sim.run_until_complete(p)
        assert result == "done"
        assert sim.now == 4.0

    def test_nested_process_await(self, sim):
        def inner():
            yield sim.timeout(1.0)
            return 21

        def outer():
            value = yield sim.process(inner())
            return value * 2

        assert sim.run_until_complete(sim.process(outer())) == 42

    def test_yielding_non_awaitable_raises(self, sim):
        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError, match="expected an Awaitable"):
            sim.run()

    def test_process_waiting_on_already_triggered(self, sim):
        sig = Signal(sim)
        sig.succeed(7)

        def proc():
            value = yield sig
            return value

        assert sim.run_until_complete(sim.process(proc())) == 7

    def test_run_until_complete_detects_deadlock(self, sim):
        sig = Signal(sim)

        def proc():
            yield sig

        p = sim.process(proc())
        with pytest.raises(SimulationError, match="did not complete"):
            sim.run_until_complete(p)

    def test_interrupt_resumes_with_exception(self, sim):
        caught = []

        def victim():
            try:
                yield sim.timeout(100.0)
            except Interrupt as exc:
                caught.append((exc.cause, sim.now))
            return "survived"

        p = sim.process(victim())

        def killer():
            yield sim.timeout(1.0)
            p.interrupt("die")

        sim.process(killer())
        sim.run()
        # delivered at t=1, long before the stale timeout would have fired
        assert caught == [("die", 1.0)]
        assert p.value == "survived"

    @pytest.mark.parametrize("ending", ["return", "unhandled-interrupt"])
    def test_a_finished_process_drops_its_generator(self, sim, ending):
        def body():
            yield sim.timeout(1.0)
            return "done"

        gen = body()
        finished = weakref.ref(gen)
        p = sim.process(gen)
        del gen
        if ending == "unhandled-interrupt":
            sim.schedule(0.5, p.interrupt, "stop")
        sim.run()
        assert p.triggered and p.value == ("done" if ending == "return" else None)
        assert finished() is None

    def test_an_unhandled_interrupt_leaves_no_cycle(self, sim):
        """The interrupt's traceback holds the step's frame, whose caller is
        the delivery's frame: once delivered, nothing may keep the interrupt
        there."""
        def body():
            yield sim.timeout(1.0)

        p = sim.process(body())
        sim.schedule(0.5, p.interrupt, "stop")
        assert cyclic_garbage(sim.run) == []
        assert p.triggered

    def test_interrupt_after_completion_is_noop(self, sim):
        def quick():
            yield sim.timeout(0.1)
            return 1

        p = sim.process(quick())
        sim.run()
        p.interrupt("late")
        sim.run()
        assert p.value == 1


class TestSignalsAndCombinators:
    @pytest.mark.parametrize("waited", ["all_of", "any_of"])
    def test_an_interrupted_waiter_detaches_its_combinator(self, sim, waited):
        """A combinator whose only waiter was interrupted withdraws from the
        children still pending: one that never fires holds no cycle."""
        never = Signal(sim)
        if waited == "all_of":
            fired, later = Signal(sim), Signal(sim)
            fired.succeed("early")
            sim.schedule(2.0, later.succeed, "after the interrupt")
            children = [fired, later, never]
        else:
            children = [never, Signal(sim)]  # neither fires: nothing decides the race

        def waiter():
            yield getattr(sim, waited)(children)

        p = sim.process(waiter())
        sim.schedule(1.0, p.interrupt, "stop")
        assert cyclic_garbage(sim.run) == []
        assert p.triggered and not never._callbacks

    def test_an_all_of_with_another_waiter_stays_attached(self, sim):
        """Only an abandoned AllOf detaches: one a callback still watches
        fires when its last child does."""
        child = Signal(sim)
        seen = []

        def waiter(combined):
            yield combined

        combined = sim.all_of([child])
        p = sim.process(waiter(combined))
        combined.add_callback(lambda c: seen.append(c.value))
        sim.schedule(1.0, p.interrupt, "stop")
        sim.schedule(2.0, child.succeed, "late")
        sim.run()
        assert seen == [["late"]]

    def test_signal_resumes_all_waiters(self, sim):
        sig = Signal(sim)
        values = []

        def waiter(tag):
            value = yield sig
            values.append((tag, value))

        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.schedule(1.0, sig.succeed, 99)
        sim.run()
        assert sorted(values) == [("a", 99), ("b", 99)]

    def test_double_trigger_rejected(self, sim):
        sig = Signal(sim)
        sig.succeed(1)
        with pytest.raises(SimulationError):
            sig.succeed(2)

    def test_all_of_collects_in_order(self, sim):
        t1 = sim.timeout(3.0, "slow")
        t2 = sim.timeout(1.0, "fast")

        def proc():
            values = yield sim.all_of([t1, t2])
            return values

        assert sim.run_until_complete(sim.process(proc())) == ["slow", "fast"]
        assert sim.now == 3.0

    def test_all_of_empty_completes_immediately(self, sim):
        def proc():
            yield sim.all_of([])
            return "ok"

        assert sim.run_until_complete(sim.process(proc())) == "ok"

    def test_any_of_returns_first(self, sim):
        t1 = sim.timeout(3.0, "slow")
        t2 = sim.timeout(1.0, "fast")

        def proc():
            index, value = yield sim.any_of([t1, t2])
            return index, value

        assert sim.run_until_complete(sim.process(proc())) == (1, "fast")
        # sim.now is 1.0 at the moment AnyOf fires
        assert sim.now >= 1.0

    def test_any_of_requires_children(self, sim):
        with pytest.raises(ValueError):
            sim.any_of([])


class TestResource:
    def test_fifo_granting_serializes(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def user(tag, hold):
            yield res.request()
            order.append((tag, sim.now))
            yield sim.timeout(hold)
            res.release()

        sim.process(user("a", 2.0))
        sim.process(user("b", 1.0))
        sim.run()
        assert order == [("a", 0.0), ("b", 2.0)]

    def test_capacity_allows_parallelism(self, sim):
        res = Resource(sim, capacity=2)
        starts = []

        def user(tag):
            yield res.request()
            starts.append((tag, sim.now))
            yield sim.timeout(1.0)
            res.release()

        for tag in "abc":
            sim.process(user(tag))
        sim.run()
        assert starts == [("a", 0.0), ("b", 0.0), ("c", 1.0)]

    def test_release_of_idle_resource_raises(self, sim):
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_holds_take_turns_on_one_slot(self, sim):
        res = Resource(sim, capacity=1)
        h1 = Hold(res, 2.0)
        h2 = Hold(res, 3.0)
        sim.run()
        assert (h1.value, h2.value) == (2.0, 3.0)
        assert sim.now == 5.0 and res.in_use == 0


class TestChannel:
    def test_put_then_get(self, sim):
        ch = Channel(sim)
        ch.put("x")

        def getter():
            item = yield ch.get()
            return item

        assert sim.run_until_complete(sim.process(getter())) == "x"

    def test_get_blocks_until_put(self, sim):
        ch = Channel(sim)
        got = []

        def getter():
            item = yield ch.get()
            got.append((item, sim.now))

        sim.process(getter())
        sim.schedule(5.0, ch.put, "late")
        sim.run()
        assert got == [("late", 5.0)]

    def test_fifo_ordering(self, sim):
        ch = Channel(sim)
        for i in range(3):
            ch.put(i)
        got = []

        def getter():
            for _ in range(3):
                got.append((yield ch.get()))

        sim.process(getter())
        sim.run()
        assert got == [0, 1, 2]


# -- generator-free steps and one-entry timers ------------------------------------
#
# The references the kernel's leaf primitives are held to: a step (an rpc, a
# hold) must give the same dispatch log (time, order, value), the same
# events_executed() and the same inline_steps as the generator it replaced,
# and a frame or a guard the same as one plain calendar entry, on the fast
# path and under a schedule perturbation.


def ref_message(net, src, dst, label="msg"):
    """A frame is one entry, priced at send: delivered, a ``call_at`` at the
    hop-by-hop sum of its hop times that books each hop; dropped, a timeout
    of its first hop with ``False``; zero-hop, a timeout of nothing."""
    sim, topology, stats = net.sim, net.topology, net.stats
    hops = topology.route(src, dst)
    stats.messages += 1
    dropped = net.crosses_partition(src, dst) or (
        net._loss_rate > 0.0 and net._loss_rng.random() < net._loss_rate
    )
    if dropped:
        stats.dropped_messages += 1
        net._meter_drop("message")
        first = topology.link(*hops[0]).transfer_time(CONTROL_MSG_BYTES) if hops else 0.0
        return sim.timeout(first, False)
    if not hops:
        stats.messages_delivered += 1
        return sim.timeout(0.0, True)
    at = sim.now
    for a, b in hops:
        at += topology.degradation(a, b) * topology.link(a, b).transfer_time(CONTROL_MSG_BYTES)
    frame = sim.signal()

    def land():
        for a, b in hops:
            key = net._link_key(a, b)
            stats.record_link(key, CONTROL_MSG_BYTES)
            meters = net._meters(key)
            meters.messages.inc()
            meters.bytes.inc(CONTROL_MSG_BYTES)
        stats.messages_delivered += 1
        frame.trigger(True)

    sim.call_at(at, land)
    return frame


def ref_rpc(net, src, dst, label="rpc"):
    def _roundtrip():
        req_ok = yield ref_message(net, src, dst)
        rsp_ok = yield ref_message(net, dst, src)
        return bool(req_ok and rsp_ok)

    return net.sim.process(_roundtrip())


def ref_hold(resource, duration, then=None, name=""):
    def _run():
        yield resource.request()
        try:
            yield resource.sim.timeout(duration)
            if then is not None:
                then(duration)
        finally:
            resource.release()
        return duration

    return resource.sim.process(_run())


def ref_execute(self, cpu_seconds, label="task"):
    duration = self.slowdown * (
        self.spec.dispatch_overhead + self.spec.scaled_duration(cpu_seconds)
    )
    return ref_hold(self.slots, duration, self._burned)


def ref_control(self, actions=1):
    cost = self.host_device.spec.dispatch_overhead * actions
    self.control_actions += actions
    if self._m_control is not None:
        self._m_control.inc(actions)

    def _handle():
        yield self.control_slot.request()
        try:
            yield self.sim.timeout(cost)
        finally:
            self.control_slot.release()

    return self.sim.process(_handle())


def ref_watch(self, ctx):
    """A guard is a ``call_at`` at dispatch plus its delay, filed under its
    task so the supervisor can withdraw it."""
    rt, spec, sim = self.rt, ctx.spec, self.rt.sim

    def arm(delay, guard):
        handle = sim.call_at(sim.now + delay, guard, ctx, ctx.attempt)
        self._guards.setdefault(spec.task_id, []).append(handle)

    if rt.config.task_timeout is not None:
        arm(rt.config.task_timeout, self._timed_out)
    if rt.config.speculation_factor is not None and spec.actor_id is None and not ctx.is_clone:
        dev = ctx.device.spec
        expected = dev.dispatch_overhead + dev.scaled_duration(spec.compute_cost)
        arm(rt.config.speculation_factor * max(expected, 1e-9), self._straggling)


STEPS = {"message": Network.message, "rpc": Network.rpc, "hold": Hold}
REFS = {"message": ref_message, "rpc": ref_rpc, "hold": ref_hold}
PERTURBATIONS = pytest.mark.parametrize(
    "perturb", [None, TiePerturbation(seed=7, jitter=0.05)], ids=["fast", "perturbed"]
)


class Witness:
    """One simulator and a log of (time, tag, value, counters).  A probe notes
    from a timer made *now*, so it fires before any timer a start step makes
    later for the same instant."""

    def __init__(self, perturb):
        self.sim = Simulator()
        if perturb is not None:
            self.sim.set_perturbation(perturb)
        self.counters = lambda: None
        self.log = []

    def note(self, tag, value=None):
        self.log.append((self.sim.now, tag, value, self.counters()))

    def probe(self, delay, tag):
        self.sim.timeout(delay).add_callback(lambda _aw: self.note(tag))

    def wait(self, awaitable, tag):
        def _waiter():
            self.note(tag, (yield awaitable))

        return self.sim.process(_waiter())

    def run(self, driver):
        self.sim.process(driver())
        self.sim.run()
        return self.log, self.sim.events_executed(), self.sim.inline_steps


def net_witness(perturb):
    """A four-endpoint line a-b-c-d; returns the witness, the network and the
    message time of each hop."""
    topo = Topology()
    topo.add_link("a", "b", LinkSpec(latency=1e-6, bandwidth=1e9))
    topo.add_link("b", "c", LinkSpec(latency=2e-6, bandwidth=2e9))
    topo.add_link("c", "d", LinkSpec(latency=1e-6, bandwidth=1e9))
    w = Witness(perturb)
    net = Network(w.sim, topo)
    stats = net.stats
    w.counters = lambda: (
        stats.messages, stats.messages_delivered, stats.dropped_messages,
        tuple(sorted(stats.bytes_by_link.items())),
    )
    hop = [topo.link(*h).transfer_time(CONTROL_MSG_BYTES) for h in topo.route("a", "d")]
    return w, net, hop


def message_run(impl, perturb, case):
    w, net, hop = net_witness(perturb)
    if case == "partitioned":
        net.partition({"d"})
    elif case == "lost":
        net.set_message_loss(1.0, seed=3)
    dst = "a" if case == "zero_hop" else "d"

    def driver():
        yield w.sim.timeout(1e-6)
        msg = impl["message"](net, "a", dst, "m")
        w.note("called")  # the send: a drop and a zero-hop delivery are counted here
        w.probe(0.0, "started")
        w.probe(hop[0], "hop 1")  # ties with the first hop's timer, made first
        w.probe(hop[0] + hop[1], "hop 2")
        w.wait(msg, "waiter")
        w.note("driver", (yield msg))

    return w.run(driver)


def rpc_run(impl, perturb, case):
    w, net, hop = net_witness(perturb)
    if case == "lost":
        net.set_message_loss(0.5, seed=1)  # seeded: the request is lost, the response goes

    def driver():
        call = impl["rpc"](net, "a", "d", "r")
        w.note("called")
        w.probe(0.0, "started")
        w.probe(hop[0], "req hop 1")
        w.probe(sum(hop), "req in")
        w.note("driver", (yield call))
        yield impl["rpc"](net, "d", "a", "r2")
        w.note("second")

    return w.run(driver)


def hold_run(impl, perturb, case):
    w = Witness(perturb)
    res = Resource(w.sim, capacity=1, name="slot")
    burned = []
    w.counters = lambda: (res.in_use, res.queued, tuple(burned))
    duration = 0.0 if case == "zero" else 2e-3

    def driver():
        first = impl["hold"](res, duration, burned.append)
        w.note("called")
        w.probe(0.0, "started")
        w.probe(duration, "held")
        if case == "queued":
            second = impl["hold"](res, 1e-3)
            w.probe(duration / 2, "one holds, one waits")
            w.probe(duration + 1e-3, "second held")
            w.wait(second, "second")
        w.note("driver", (yield first))

    return w.run(driver)


def interrupted_run(impl, perturb, case):
    """A waiter interrupted while its message is in flight is not resumed
    by the message's arrival: it is already waiting on something else."""
    w, net, hop = net_witness(perturb)

    def waiter():
        msg = impl["message"](net, "a", "d", "m")
        try:
            w.note("resumed", (yield msg))
        except Interrupt as intr:
            w.note("interrupted", intr.cause)
        w.note("slept", (yield w.sim.timeout(sum(hop), "alarm")))

    def driver():
        proc = w.sim.process(waiter())
        yield w.sim.timeout(hop[0])
        proc.interrupt("stop")
        w.note("done", (yield proc))

    return w.run(driver)


class TestSteps:
    @PERTURBATIONS
    @pytest.mark.parametrize("case", ["delivered", "partitioned", "lost", "zero_hop"])
    def test_message(self, perturb, case):
        got = message_run(STEPS, perturb, case)
        assert got == message_run(REFS, perturb, case)
        log = got[0]
        assert [e[2] for e in log if e[1] == "driver"] == [case in ("delivered", "zero_hop")]
        sent = {"delivered": (1, 0, 0), "zero_hop": (1, 1, 0)}.get(case, (1, 0, 1))
        assert log[0][1] == "called" and log[0][3][:3] == sent

    @PERTURBATIONS
    @pytest.mark.parametrize("case", ["delivered", "lost"])
    def test_rpc(self, perturb, case):
        got = rpc_run(STEPS, perturb, case)
        assert got == rpc_run(REFS, perturb, case)
        assert [e[2] for e in got[0] if e[1] == "driver"] == [case == "delivered"]

    @PERTURBATIONS
    @pytest.mark.parametrize("case", ["free", "queued", "zero"])
    def test_hold(self, perturb, case):
        got = hold_run(STEPS, perturb, case)
        assert got == hold_run(REFS, perturb, case)
        assert got[0][-1][3][:2] == (0, 0)  # every slot returned
        assert any(e[3][:2] == (1, 1) for e in got[0]) is (case == "queued")

    @PERTURBATIONS
    def test_interrupted_waiter_is_not_resumed(self, perturb):
        got = interrupted_run(STEPS, perturb, None)
        assert got == interrupted_run(REFS, perturb, None)
        assert [e[1:3] for e in got[0]] == [
            ("interrupted", "stop"), ("slept", "alarm"), ("done", None),
        ]

    @PERTURBATIONS
    def test_a_runtime_dispatches_as_with_generators(self, perturb, monkeypatch):
        """Leases, PULL fetches (rpc), raylet control, execution and both
        watchdogs in one run with message loss and a straggler: the event
        log, the clock and the kernel's counters are the generators'."""
        got = soak(perturb)
        monkeypatch.setattr(Network, "message", ref_message)
        monkeypatch.setattr(Network, "rpc", ref_rpc)
        monkeypatch.setattr(Device, "execute", ref_execute)
        monkeypatch.setattr(Raylet, "control", ref_control)
        monkeypatch.setattr(Supervisor, "watch", ref_watch)
        assert got == soak(perturb)
        counts = got[1]
        assert counts["task_timeout"] and counts["speculate"] and counts["task_retry"]


class TestEventBudget:
    """Kernel events a run spends, pinned so that a per-hop timer or a
    watchdog step cannot creep back in (one frame's budget is
    ``tests/test_topology_network.py::TestControlFrames``)."""

    def test_the_soak_spends_a_frame_and_a_guard_one_event_each(self):
        """801 events while each hop had a timer and each guard a step, 511 now."""
        assert soak(None)[4] <= 520

    def test_a_small_serving_episode_stays_within_its_events_per_op(self):
        """17.2 events per request at scale 0.05 while each hop had a timer and
        each guard a step, 10.7 now."""
        W = ledger_workloads()
        wl = W.ServingWorkload()
        (ep,) = wl.generate(0, 0.05)
        state = wl.build(ep)
        fe = wl.run(ep, state)
        assert wl.check(ep, state, fe) > 0
        assert state.rt.sim.events_executed() <= 11.0 * wl.ops(ep, state)


def soak(perturb):
    return drive_soak(build_soak(perturb))


def build_soak(perturb):
    rt = ServerlessRuntime(
        build_serverful(n_servers=3),
        RuntimeConfig(
            resolution=ResolutionMode.PULL,
            max_retries=20,
            retry_backoff_base=1e-3,
            speculation_factor=3.0,
            task_timeout=0.015,
        ),
    )
    if perturb is not None:
        rt.sim.set_perturbation(perturb)
    rt.net.set_message_loss(0.02, seed=5)
    return rt


def drive_soak(rt):
    # server0/cpu turns slow just before the 1e-2 tasks launch: those it
    # runs time out (15 ms) before their speculation timer (30 ms) fires
    rt.sim.schedule(6e-3, setattr, rt.cluster.device("server0/cpu"), "slowdown", 10.0)
    lanes = []
    for lane in range(6):
        ref = rt.submit(lambda lane=lane: lane, compute_cost=1e-3)
        for step in range(5):
            cost = 1e-2 if step == 2 else 2e-3
            ref = rt.submit(lambda x: x + 1, (ref,), compute_cost=cost, output_nbytes=1 << 16)
        lanes.append(ref)
    answer = rt.get(rt.submit(lambda *xs: sum(xs), tuple(lanes), compute_cost=1e-3))
    return (
        answer, rt.log.counts(), rt.log.signature(), rt.sim.now,
        rt.sim.events_executed(), rt.sim.inline_steps, rt.net.stats.messages,
    )


BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")


def ledger_workloads():
    if BENCHMARKS not in sys.path:
        sys.path.insert(0, BENCHMARKS)
    from ledger import workloads

    return workloads


def cyclic_garbage(run):
    """The objects ``run()`` left in reference cycles (``DEBUG_SAVEALL``)."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


class TestRunPausesTheCollector:
    """``run()`` turns the cyclic collector off while it dispatches and gives
    the caller back the state it had."""

    @staticmethod
    def sampled(sim):
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        return seen

    def test_an_enabled_collector_is_paused_and_restored(self, sim):
        assert gc.isenabled()
        seen = self.sampled(sim)
        sim.run()
        assert seen == [False] and gc.isenabled()

    def test_a_disabled_collector_stays_off(self, sim):
        seen = self.sampled(sim)
        gc.disable()
        try:
            sim.run()
            assert seen == [False] and not gc.isenabled()
        finally:
            gc.enable()

    def test_a_raising_callback_restores_the_collector(self, sim):
        def boom():
            raise ValueError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert gc.isenabled() and not sim._running

    def test_no_collection_runs_inside_a_serving_episode(self):
        W = ledger_workloads()
        wl = W.ServingWorkload()
        (ep,) = wl.generate(0, 0.05)
        state = wl.build(ep)
        sim, inside = state.rt.sim, []

        def watch(phase, info):
            if phase == "start" and sim._running:
                inside.append(info["generation"])

        gc.callbacks.append(watch)
        try:
            fe = wl.run(ep, state)
        finally:
            gc.callbacks.remove(watch)
        assert wl.check(ep, state, fe) > 0
        assert inside == []


class TestNoCyclicGarbage:
    """A finished process breaks its own reference cycle and a step never
    makes one, so a run leaves nothing for the cycle collector."""

    @staticmethod
    def garbage_of(run):
        gc.collect()
        gc.disable()
        try:
            run()
            return gc.collect()
        finally:
            gc.enable()

    @pytest.mark.parametrize("mode", [ResolutionMode.PUSH, ResolutionMode.PULL], ids=str)
    def test_task_graph(self, mode):
        W = ledger_workloads()
        wl = W.TaskGraphWorkload("graph", 300, mode)
        (ep,) = wl.generate(0, 1.0)
        rt = wl.build(ep)
        assert self.garbage_of(lambda: wl.check(ep, rt, wl.run(ep, rt))) == 0
        assert len(ep.tasks) >= 300 and rt.sim.now > 0

    def test_watchdogs_backups_and_retries(self):
        rt, got = build_soak(None), []
        assert self.garbage_of(lambda: got.append(drive_soak(rt))) == 0
        counts = got[0][1]
        assert counts["task_timeout"] and counts["speculate"] and counts["task_retry"]

    def test_serving_episode(self):
        W = ledger_workloads()
        wl = W.ServingWorkload()
        (ep,) = wl.generate(0, 0.05)
        state, served = wl.build(ep), []
        assert self.garbage_of(lambda: served.append(wl.run(ep, state))) == 0
        assert wl.check(ep, state, served[0]) > 0

    def test_lineage_replay(self):
        rt = ServerlessRuntime(build_serverful(n_servers=2), RuntimeConfig())
        ref = rt.submit(lambda: 1, compute_cost=1e-3)
        for _ in range(4):
            ref = rt.submit(lambda x: x + 1, (ref,), compute_cost=1e-3)
        assert rt.get(ref) == 5
        rt.fail_device(rt.timeline_of(ref).device)
        got = []
        assert self.garbage_of(lambda: got.append(rt.get(ref))) == 0
        assert got == [5] and rt.lineage.replays > 0
