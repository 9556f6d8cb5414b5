"""Edge semantics of the simulator core.

The kernel runs on a two-tier queue (microtask ring + bucket calendar) with
same-instant batching; an installed schedule perturbation moves every event
onto the perturbation queue (one heap).
These tests pin, on both queue disciplines:

* ``run(until=)`` stopping exactly at an event's timestamp, and never
  rewinding the clock,
* ``schedule_at`` clamping into the current instant mid-run,
* ``peek()`` agreeing across both queue tiers and the perturbation queue,
* interrupt-vs-trigger races under the microtask ring,
* a determinism witness — the live kernel, and the live kernel under an
  identity perturbation, reproduce the traces the frozen pre-rebuild kernel
  recorded on a randomized process soup and a timer loop (digests below),
* the BENCH_SIMCORE golden check failing on a reordered run, an event-count
  mismatch and an unrecorded scale,
* the satellite fixes (AnyOf loser detach, interrupt-safe ``Resource.use``,
  ``Channel.cancel_get``), and timer-only loops simulated round by round.
"""

from __future__ import annotations

import inspect
import random

import pytest

from repro.bench.simcore import (
    GOLDEN,
    KERNELS,
    check_golden,
    checksum,
    run_benchmarks,
)
from repro.cluster import simtime as live
from repro.cluster.simtime import (
    Resource,
    SimulationError,
    Simulator,
)



def identity_perturbation(seq, delay):
    """rank == seq: the perturbation queue must reproduce ``(time, seq)``."""
    return seq, delay


def new_sim(queue):
    sim = Simulator()
    if queue == "perturbed":
        sim.set_perturbation(identity_perturbation)
    return sim


# both queue disciplines of the live kernel
QUEUES = ["ring", "perturbed"]


# ---------------------------------------------------------------------------
# randomized process soup: one script, replayed on both queues

# checksum(run_soup(...)) per seed, as the frozen pre-rebuild kernel ran it
SOUP_GOLDEN = {
    1: "5e2c1d26fdd6da76",
    2: "d28a34fa791b8cd2",
    3: "5225cec346a8b58c",
    4: "f7c6e0f8d072a1ee",
    5: "855335646939dd0f",
}


def run_soup(sim, seed: int):
    """Run a scripted random soup; returns (trace, final_now, n_procs)."""
    rng = random.Random(seed)
    trace: list = []
    chan = live.Channel(sim, name="c")
    res = live.Resource(sim, capacity=2, name="r")

    scripts = []
    for _ in range(12):
        ops = []
        for _ in range(rng.randint(3, 8)):
            r = rng.random()
            if r < 0.30:
                ops.append(("sleep", rng.choice([0.0, 1e-4, 3e-4, 1e-3])))
            elif r < 0.45:
                ops.append(("put", rng.randint(0, 99)))
            elif r < 0.60:
                ops.append(("get",))
            elif r < 0.72:
                ops.append(("res", rng.choice([1e-4, 2e-4])))
            elif r < 0.86:
                ops.append(("spawn", rng.random() * 5e-4))
            else:
                ops.append(("race", rng.choice([1e-4, 2e-4]), rng.choice([1e-4, 2e-4])))
        scripts.append(ops)

    def child(delay, i, k):
        yield sim.timeout(delay)
        trace.append(("child", i, k, round(sim.now, 9)))
        return i * 1000 + k

    def worker(i, ops):
        for k, op in enumerate(ops):
            kind = op[0]
            if kind == "sleep":
                yield sim.timeout(op[1])
            elif kind == "put":
                chan.put(op[1])
            elif kind == "get":
                v = yield chan.get()
                trace.append(("got", i, v, round(sim.now, 9)))
            elif kind == "res":
                grant = res.request()
                yield grant
                yield sim.timeout(op[1])
                res.release()
            elif kind == "spawn":
                v = yield sim.process(child(op[1], i, k), name=f"ch{i}.{k}")
                trace.append(("joined", i, v, round(sim.now, 9)))
            elif kind == "race":
                won = yield live.AnyOf(
                    sim, [sim.timeout(op[1], "a"), sim.timeout(op[2], "b")]
                )
                trace.append(("race", i, won, round(sim.now, 9)))
            trace.append(("step", i, k, round(sim.now, 9)))
        return i

    procs = [sim.process(worker(i, ops), name=f"w{i}") for i, ops in enumerate(scripts)]

    def director():
        yield sim.timeout(4e-4)
        procs[3].interrupt("boom")
        yield sim.timeout(2e-4)
        procs[7].interrupt("boom")
        trace.append(("director", round(sim.now, 9)))

    sim.process(director(), name="dir")
    end = sim.run()
    return trace, round(end, 9), sum(p.triggered for p in procs)


class TestDeterminismWitness:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_live_kernel_matches_the_frozen_kernel(self, seed):
        for queue in QUEUES:
            got = checksum(run_soup(new_sim(queue), seed))
            assert got == SOUP_GOLDEN[seed], f"{queue} queue diverged on seed {seed}"

    def test_event_counts_agree_across_queues(self):
        # inline resumptions replace queue dispatches one-for-one, so the
        # total executed-event count does not depend on the queue
        counts = set()
        for queue in QUEUES:
            sim = new_sim(queue)
            run_soup(sim, seed=9)
            n = sim.events_executed()
            assert n > 0
            counts.add(n)
        assert len(counts) == 1, f"queue counts diverged: {counts}"


class TestGoldens:
    """BENCH_SIMCORE's golden check passes the live kernel and fails a run
    that dispatched differently."""

    @pytest.mark.parametrize("queue", QUEUES)
    @pytest.mark.parametrize("name, scale", sorted(GOLDEN))
    def test_each_queue_reproduces_every_golden(self, name, scale, queue):
        sim = new_sim(queue)
        digest = checksum(dict(KERNELS)[name](sim, scale))
        check_golden(name, scale, digest, sim.events_executed())

    def test_the_harness_reports_the_golden_runs(self):
        results = run_benchmarks(scale=0.1)
        assert {
            (name, 0.1): (r["checksum"], r["events"])
            for name, r in results["kernels"].items()
        } == {key: value for key, value in GOLDEN.items() if key[1] == 0.1}

    @pytest.mark.parametrize(
        "name", ["e17_soak_loop", "e21_transfer_loop", "zero_delay_loop"]
    )
    def test_a_tie_reversing_perturbation_fails_the_check(self, name):
        kernel = dict(KERNELS)[name]
        sim = Simulator()
        sim.set_perturbation(lambda seq, delay: (-seq, delay))
        digest = checksum(kernel(sim, 0.1))
        events = sim.events_executed()
        assert digest != GOLDEN[(name, 0.1)][0]
        if name == "e17_soak_loop":
            # reordered ties also change what runs: 8514 -> 8891 events
            assert events != GOLDEN[(name, 0.1)][1]
        with pytest.raises(AssertionError, match="the golden is"):
            check_golden(name, 0.1, digest, events)

    def test_an_event_count_mismatch_alone_fails_the_check(self):
        digest, events = GOLDEN[("idle_poll", 0.1)]
        check_golden("idle_poll", 0.1, digest, events)
        with pytest.raises(AssertionError, match="the golden is"):
            check_golden("idle_poll", 0.1, digest, events + 1)

    def test_a_scale_with_no_golden_fails_the_check(self):
        with pytest.raises(AssertionError, match="no golden at scale 0.3"):
            run_benchmarks(scale=0.3)


class TestRunUntil:
    @pytest.mark.parametrize("queue", QUEUES)
    def test_event_exactly_at_until_fires(self, queue):
        sim = new_sim(queue)
        fired = []
        sim.schedule(1e-3, fired.append, "at-until")
        sim.schedule(2e-3, fired.append, "beyond")
        end = sim.run(until=1e-3)
        assert fired == ["at-until"]
        assert end == 1e-3 and sim.now == 1e-3
        # the later event is intact and fires on the next run
        assert sim.peek() == 2e-3
        sim.run()
        assert fired == ["at-until", "beyond"]

    @pytest.mark.parametrize("queue", QUEUES)
    def test_until_with_no_event_advances_clock(self, queue):
        sim = new_sim(queue)
        sim.schedule(5e-3, lambda: None)
        assert sim.run(until=2e-3) == 2e-3
        assert sim.now == 2e-3
        assert sim.pending_events() == 1

    @pytest.mark.parametrize("queue", QUEUES)
    def test_until_in_the_past_is_a_no_op(self, queue):
        sim = new_sim(queue)
        fired = []
        sim.schedule(1e-3, fired.append, "first")
        sim.schedule(3e-3, fired.append, "later")
        assert sim.run(until=2e-3) == 2e-3
        sim.schedule(0.0, fired.append, "now")  # pending at the current instant
        before = (sim.now, sim.peek(), sim.pending_events())
        # the clock never rewinds: nothing dispatches, nothing moves
        assert sim.run(until=1e-3) == 2e-3
        assert (sim.now, sim.peek(), sim.pending_events()) == before
        assert fired == ["first"]
        # and the next run continues normally, in order
        assert sim.run() == 3e-3
        assert fired == ["first", "now", "later"]


class TestScheduleAt:
    @pytest.mark.parametrize("queue", QUEUES)
    def test_past_deadline_clamps_to_current_instant(self, queue):
        sim = new_sim(queue)
        log = []

        def proc():
            yield sim.timeout(5e-4)
            # "at 1e-4" is already in the past: runs this instant, after
            # anything already queued here
            sim.schedule_at(1e-4, lambda: log.append(("clamped", sim.now)))
            yield sim.timeout(0.0)
            log.append(("after", sim.now))

        sim.process(proc())
        sim.run()
        assert log == [("clamped", 5e-4), ("after", 5e-4)]


class TestPeekAcrossTiers:
    def test_idle_peek_is_none(self):
        assert Simulator().peek() is None

    def test_ring_and_calendar(self):
        sim = Simulator()
        sim.schedule(1e-3, lambda: None)  # calendar
        assert sim.peek() == 1e-3
        sim.schedule(0.0, lambda: None)  # ring (current instant)
        assert sim.peek() == 0.0

    def test_perturbation_queue(self):
        sim = new_sim("perturbed")
        sim.schedule(2e-3, lambda: None)
        sim.schedule(1e-3, lambda: None)
        assert sim.peek() == 1e-3

    def test_mid_run_peek_sees_current_instant(self):
        sim = Simulator()
        seen = []

        def proc():
            yield sim.timeout(1e-3)
            sim.schedule(0.0, lambda: None)
            seen.append(sim.peek())

        sim.process(proc())
        sim.run()
        assert seen == [1e-3]


class TestInterruptVsTriggerRaces:
    @pytest.mark.parametrize("queue", QUEUES)
    def test_trigger_then_interrupt_same_instant(self, queue):
        # the succeed is scheduled before the interrupt in the same instant:
        # the waiter resumes with the value first, then the interrupt lands
        # at its next yield
        sim = new_sim(queue)
        mod_sig = live.Signal(sim)
        log = []

        def waiter():
            try:
                v = yield mod_sig
                log.append(("value", v))
                yield sim.timeout(1e-3)
                log.append("never")
            except live.Interrupt as i:
                log.append(("interrupted", i.cause))

        p = sim.process(waiter())

        def driver():
            yield sim.timeout(1e-4)
            mod_sig.succeed("won")
            p.interrupt("lost")

        sim.process(driver())
        sim.run()
        assert log == [("value", "won"), ("interrupted", "lost")]

    @pytest.mark.parametrize("queue", QUEUES)
    def test_interrupt_then_synchronous_trigger(self, queue):
        # interrupt() only *schedules* delivery; succeed() is synchronous.
        # Calling interrupt then succeed in one handler therefore resumes
        # the waiter with the value first, and the in-flight interrupt
        # lands on a completed process — a no-op.
        sim = new_sim(queue)
        sig = live.Signal(sim)
        log = []

        def waiter():
            try:
                v = yield sig
                log.append(("value", v))
            except live.Interrupt:
                log.append("interrupted")

        p = sim.process(waiter())

        def driver():
            yield sim.timeout(1e-4)
            p.interrupt("first")
            sig.succeed("late")

        sim.process(driver())
        sim.run()
        assert log == [("value", "late")]

    @pytest.mark.parametrize("queue", QUEUES)
    def test_stale_waiter_after_interrupt_is_not_resumed(self, queue):
        # the process unwinds via interrupt and re-waits on something else;
        # the original signal's later fire hits a stale waiter slot and
        # must not resume the process out of its new wait
        sim = new_sim(queue)
        sig = live.Signal(sim)
        log = []

        def waiter():
            try:
                yield sig
                log.append("value")
            except live.Interrupt:
                log.append("interrupted")
                yield sim.timeout(5e-4)
                log.append(("moved-on", round(sim.now, 9)))

        p = sim.process(waiter())

        def driver():
            yield sim.timeout(1e-4)
            p.interrupt("boom")
            yield sim.timeout(1e-4)
            sig.succeed("late")

        sim.process(driver())
        sim.run()
        assert log == ["interrupted", ("moved-on", 6e-4)]
        assert sig.triggered  # the succeed itself still happened


class TestAnyOfLoserDetach:
    def test_losers_are_detached_when_winner_fires(self):
        sim = Simulator()
        slow = live.Signal(sim)  # a long-lived signal (e.g. an HA beacon)
        race = sim.any_of([sim.timeout(1e-4, "fast"), slow])
        got = []

        def waiter():
            got.append((yield race))

        sim.process(waiter())
        sim.run()
        assert got == [(0, "fast")]
        # the loser no longer references the dead combinator
        assert len(slow._callbacks) == 0
        assert race._child_cbs == []
        # and a late fire of the loser is inert
        slow.succeed("late")
        sim.run()
        assert got == [(0, "fast")]

    def test_already_triggered_loser_callback_noops(self):
        # two children tie at one instant: the loser's in-flight callback
        # lands on a triggered AnyOf and must no-op
        sim = Simulator()
        race = sim.any_of([sim.timeout(1e-4, "a"), sim.timeout(1e-4, "b")])
        got = []

        def waiter():
            got.append((yield race))

        sim.process(waiter())
        sim.run()
        assert got == [(0, "a")]


class TestResourceInterruptSafety:
    def test_queued_request_interrupt_does_not_leak_slot(self):
        sim = Simulator()
        res = Resource(sim, capacity=1, name="slot")
        holder = res.use(5e-4)
        waiter = res.use(1e-4)
        assert holder is not None

        def killer():
            yield sim.timeout(1e-4)
            waiter.interrupt("die")

        sim.process(killer())
        sim.run()
        assert res.in_use == 0
        assert res.queued == 0
        # the slot is genuinely free: a fresh user acquires immediately
        done = []

        def user():
            yield res.use(1e-4)
            done.append(sim.now)

        sim.process(user())
        sim.run()
        assert done and res.in_use == 0

    def test_cancel_of_issued_grant_hands_slot_to_next_waiter(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        first = res.request()
        second = res.request()  # queued
        order = []

        def consumer(grant, tag):
            yield grant
            order.append(tag)
            if tag == "second":
                res.release()

        sim.process(consumer(second, "second"))
        # first's owner unwound before consuming: cancel returns the slot
        res.cancel(first)
        sim.run()
        assert order == ["second"]
        assert res.in_use == 0


class TestChannelCancelGet:
    def test_waiting_getter_is_withdrawn(self):
        sim = Simulator()
        chan = live.Channel(sim)
        sig = chan.get()  # no items: parked
        chan.cancel_get(sig)
        chan.put("x")
        assert len(chan) == 1  # nobody consumed it

    def test_delivered_item_is_returned_to_head(self):
        sim = Simulator()
        chan = live.Channel(sim)
        chan.put("a")
        chan.put("b")
        sig = chan.get()  # "a" dispatched into sig
        sim.run()
        assert sig.triggered and sig.value == "a"
        chan.cancel_get(sig)  # consumer unwound: item back at the head
        got = []

        def consumer():
            got.append((yield chan.get()))
            got.append((yield chan.get()))

        sim.process(consumer())
        sim.run()
        assert got == ["a", "b"]


class TestTimerLoops:
    """A loop that only sleeps — a heartbeat sender, a prober — is simulated
    round by round: every wake-up lands on its own instant."""

    STEP = 1 / 1024  # a power of two: k * STEP is exact, so ticks compare with ==

    def _loop(self, sim, ticks, rounds):
        def poller():
            for _ in range(rounds):
                yield sim.timeout(self.STEP)
                ticks.append(sim.now)

        sim.process(poller())

    @pytest.mark.parametrize("queue", QUEUES)
    def test_every_round_of_an_idle_loop_runs(self, queue):
        sim = new_sim(queue)
        ticks: list = []
        self._loop(sim, ticks, rounds=1000)
        assert sim.run(until=1000 * self.STEP) == 1000 * self.STEP
        assert ticks == [k * self.STEP for k in range(1, 1001)]
        assert sim.peek() is None

    @pytest.mark.parametrize("queue", QUEUES)
    def test_a_shared_instant_runs_in_queue_order(self, queue):
        sim = new_sim(queue)
        log: list = []
        self._loop(sim, log, rounds=5)
        for k in range(1, 6):
            # queued before the loop's first timeout exists, so first at k
            sim.schedule(k * self.STEP, log.append, ("mark", k))
        sim.run()
        expected: list = []
        for k in range(1, 6):
            expected += [("mark", k), k * self.STEP]
        assert log == expected

    @pytest.mark.parametrize("queue", QUEUES)
    def test_a_bounded_run_stops_inside_the_loop_and_resumes(self, queue):
        sim = new_sim(queue)
        ticks: list = []
        self._loop(sim, ticks, rounds=20)
        assert sim.run(until=5 * self.STEP) == 5 * self.STEP
        assert ticks == [k * self.STEP for k in range(1, 6)]
        assert sim.peek() == 6 * self.STEP
        assert sim.run() == 20 * self.STEP
        assert ticks == [k * self.STEP for k in range(1, 21)]

    def test_a_timer_loop_matches_the_frozen_kernel(self):
        for queue in QUEUES:
            sim = new_sim(queue)
            ticks: list = []
            self._loop(sim, ticks, rounds=50)
            # checksum((ticks, end)) as the frozen pre-rebuild kernel ran it
            got = checksum((ticks, sim.run()))
            assert got == "39d00363c5a4d962", f"{queue} queue diverged"


class TestConfigurationGuards:
    def test_simulator_has_no_switches(self):
        # one kernel: the only thing that changes the queue discipline is an
        # installed perturbation
        assert not inspect.signature(Simulator).parameters
        assert not hasattr(Simulator, "configure")
        # nor any mode flag: the public data on a fresh simulator is its
        # one counter (the factory partials are callables)
        data = {
            name
            for name, value in vars(Simulator()).items()
            if not name.startswith("_") and not callable(value)
        }
        assert data == {"inline_steps"}

    def test_perturbation_requires_idle_queue(self):
        sim = Simulator()
        sim.schedule(1e-3, lambda: None)
        with pytest.raises(SimulationError):
            sim.set_perturbation(identity_perturbation)

    def test_perturbation_switches_queue_and_restores(self):
        sim = Simulator()
        assert sim._fastpath
        sim.set_perturbation(identity_perturbation)
        assert not sim._fastpath
        sim.schedule(0.0, lambda: None)
        assert sim._queue and not sim._ring
        sim.run()
        sim.set_perturbation(None)
        assert sim._fastpath
        sim.schedule(0.0, lambda: None)
        assert sim._ring and not sim._queue
