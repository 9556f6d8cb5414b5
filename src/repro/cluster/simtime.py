"""Discrete-event simulation kernel.

This is the virtual-time substrate for the disaggregated data-center model.
The paper's performance claims are about where control messages and data
travel (trips through a DPU, pull vs push round-trips, bytes over the
fabric); a deterministic event-driven simulator with explicit cost models
reproduces those shapes without the authors' hardware.

The kernel is deliberately SimPy-like: model code is written as generator
*processes* that ``yield`` awaitables (:class:`Timeout`, :class:`Signal`,
:class:`AllOf`, ...) and the :class:`Simulator` interleaves them in virtual
time.  Determinism is guaranteed: ties in time are broken by a monotonically
increasing sequence number, never by wall-clock or hash order.

The event loop itself is the hardware at cluster scale (hundreds of millions
of events per benchmark run), so the hot path is built for throughput while
preserving the exact ``(time, seq)`` total order of the original
single-heap kernel:

* **bucket calendar** — timed events live in per-timestamp FIFO buckets
  (``dict[time] -> deque``) plus a heap of *distinct* times, so N events at
  T timestamps cost T heap operations instead of N.  Appends happen in
  ``seq`` order by construction, so each bucket is already totally ordered.
* **microtask ring** — zero-delay events (about half of all pushes:
  already-triggered awaits, resource grants, channel puts, process starts)
  bypass the calendar entirely and append to the *current instant's* FIFO.
* **same-instant batching** — advancing to an instant pops its whole bucket
  off the calendar in one heap operation and installs it as the ring;
  everything at that timestamp drains without re-touching the heap.
* **inline run-to-completion** — a process that yields an already-triggered
  awaitable resumes immediately, without a scheduler round trip, whenever
  the ring is empty and no trigger callback chain is active (i.e. exactly
  when the scheduled continuation would have been the very next event).
* **idle fast-forward** (opt-in, ``Simulator.fast_forward``) — periodic
  *poller* ticks created with :meth:`Simulator.poll_timeout` are deferred
  and coalesced onto the next regular event when nothing else is pending
  and no poller has demanded exact simulation (:meth:`Simulator.arm_poller`),
  so idle regions are skipped analytically instead of simulated
  tick-by-tick (the estimate-instead-of-simulate style of the data plane's
  ``transfer_time_estimate``).

Installing a schedule perturbation (:meth:`Simulator.set_perturbation`)
switches to the *perturbation queue*: a single heap keyed ``(time, (rank,
seq))``, the only structure that can order re-ranked ties.  The ring and
calendar re-engage when it is cleared.  Unperturbed, the kernel reproduces
the frozen seed kernel's (``repro.bench.legacy_simtime``) dispatch order
bit-for-bit.

One invariant keeps the enqueue paths short: a non-empty ring always
belongs to the current instant, so a zero-delay enqueue is a bare append.
Virtual time only moves in the run loops, which drain the ring before
advancing, and ``run(until)`` never rewinds the clock.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from functools import partial
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "Simulator",
    "Process",
    "Timeout",
    "Signal",
    "AllOf",
    "AnyOf",
    "Resource",
    "Channel",
    "SimulationError",
    "Interrupt",
]


class SimulationError(RuntimeError):
    """Raised for structural errors in a simulation (e.g. deadlock)."""


class Interrupt(Exception):
    """Injected into a process that another process interrupted."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Shared sentinel for "no callbacks".  Never mutated: add_callback replaces it
# with a fresh list on first append, remove_callback's .remove() on it raises
# ValueError (swallowed).  Saves a list allocation per awaitable and another
# per trigger — awaitables are the kernel's dominant allocation.
_NO_CALLBACKS: list = []

# The (send_value, throw_exc) argument pair that starts every process —
# shared so Process.__init__ allocates one tuple instead of two.
_START_ARGS = (None, None)

# Raw allocator for the awaitable fast factories below: skipping
# ``type.__call__`` (which routes through ``__init__`` dispatch) saves
# ~60ns per construction, and timeouts/signals are created once per
# timed wait and once per channel get respectively.
_new = object.__new__


def _push0(sim: "Simulator", item: tuple) -> None:
    """Append a zero-delay event ``(fn, args)`` to the current instant.

    The common-path subset of ``Simulator.schedule(0.0, ...)`` without the
    call-frame and vararg overhead; falls back to schedule() while a
    perturbation is installed.
    """
    if sim._fastpath:
        sim._ring.append(item)
        return
    sim.schedule(0.0, item[0], *item[1])


def _push0_aw(sim: "Simulator", aw: "Awaitable") -> None:
    """Zero-delay enqueue of a pre-valued awaitable (see Timeout.__init__).

    The entry is the awaitable itself with ``aw.value`` already holding the
    trigger value; the dispatch loop fires it without a tuple or a bound
    method.  Falls back to an equivalent ``trigger`` event off the fast path.
    """
    if sim._fastpath:
        sim._ring.append(aw)
        return
    sim.schedule(0.0, aw.trigger, aw.value)


class Awaitable:
    """Base class for things a process may ``yield``.

    An awaitable is *triggered* at most once with a value; processes waiting
    on it are resumed with that value.
    """

    __slots__ = ("sim", "triggered", "value", "_callbacks", "_waiter")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._callbacks: list[Callable[["Awaitable"], None]] = _NO_CALLBACKS
        self._waiter: Optional["Process"] = None

    def trigger(self, value: Any = None) -> None:
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self.triggered = True
        self.value = value
        # The sole-waiter fast lane: a process that yielded this awaitable
        # while it had no callbacks sits in ``_waiter`` instead of the
        # callback list (no list allocation, no _on_waited hop).  It runs
        # before any callbacks registered later — their registration order.
        w = self._waiter
        if w is not None:
            self._waiter = None
            if w._waiting_on is self:
                w._waiting_on = None
                if not self._callbacks:
                    # Tail position: after the step this trigger returns
                    # straight to its dispatcher, so resuming here is
                    # indistinguishable from being the next queued event —
                    # no depth bump, and the inline fast path stays open.
                    # Callbacks cannot appear during the step (add_callback
                    # on a triggered awaitable schedules instead), so this
                    # is the whole job.
                    w._step(value, None)
                    return
                sim = self.sim
                sim._trigger_depth += 1
                try:
                    w._step(value, None)
                finally:
                    sim._trigger_depth -= 1
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = _NO_CALLBACKS
            # Track callback-chain depth so Process._step can tell whether
            # returning hands control straight back to the dispatch loop
            # (inline resumption is only order-preserving at depth 0).
            sim = self.sim
            sim._trigger_depth += 1
            try:
                for cb in callbacks:
                    cb(self)
            finally:
                sim._trigger_depth -= 1

    def add_callback(self, cb: Callable[["Awaitable"], None]) -> None:
        if self.triggered:
            # Run on the event loop to preserve run-to-completion semantics.
            self.sim.schedule(0.0, lambda: cb(self))
        else:
            cbs = self._callbacks
            if cbs:
                cbs.append(cb)
            else:
                self._callbacks = [cb]

    def remove_callback(self, cb: Callable[["Awaitable"], None]) -> None:
        """Detach a not-yet-fired callback; missing callbacks are ignored."""
        try:
            self._callbacks.remove(cb)
        except ValueError:
            pass


class Timeout(Awaitable):
    """Fires after ``delay`` units of virtual time."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Field init and the enqueue are inlined (no super().__init__, no
        # schedule() call): a timeout is created per timed wait and the
        # call frames are measurable.  This block mirrors Simulator.schedule
        # exactly — keep them in sync.
        self.sim = sim
        self.triggered = False
        self._callbacks = _NO_CALLBACKS
        self._waiter = None
        self.delay = delay
        if sim._fastpath:
            # Pre-valued enqueue: the queue entry is this awaitable itself
            # (``value`` already stored), not a ``(bound trigger, (value,))``
            # pair — two tuples and a bound-method allocation saved per
            # timed wait, and the dispatch loop fires it without the generic
            # trigger frame.  ``trigger(value)`` would store the same value,
            # so the dispatch is observably identical.
            self.value = value
            now = sim._now
            t = now + delay
            if t == now:
                sim._ring.append(self)
                return
            buckets = sim._buckets
            lst = buckets.get(t)
            if lst is None:
                buckets[t] = self
                heapq.heappush(sim._times, t)
            elif type(lst) is deque:
                lst.append(self)
            else:
                buckets[t] = deque((lst, self))
        else:
            self.value = None
            sim.schedule(delay, self.trigger, value)


def _make_timeout(sim: "Simulator", delay: float, value: Any = None) -> Timeout:
    """Fast construction path for :meth:`Simulator.timeout`.

    Mirror of ``Timeout.__init__`` reached through ``object.__new__`` so
    the call skips ``type.__call__`` — keep the two bodies in sync.
    Direct ``Timeout(sim, ...)`` construction still works identically.
    """
    if delay < 0:
        raise ValueError(f"negative timeout delay: {delay}")
    self = _new(Timeout)
    self.sim = sim
    self.triggered = False
    self._callbacks = _NO_CALLBACKS
    self._waiter = None
    self.delay = delay
    if sim._fastpath:
        self.value = value
        now = sim._now
        t = now + delay
        if t == now:
            sim._ring.append(self)
            return self
        buckets = sim._buckets
        lst = buckets.get(t)
        if lst is None:
            buckets[t] = self
            heapq.heappush(sim._times, t)
        elif type(lst) is deque:
            lst.append(self)
        else:
            buckets[t] = deque((lst, self))
    else:
        self.value = None
        sim.schedule(delay, self.trigger, value)
    return self


class Signal(Awaitable):
    """A one-shot event that model code triggers explicitly.

    Multiple processes may wait on the same signal; all are resumed with the
    signalled value.  Use :meth:`succeed` from model code.
    """

    # Signals are the single hottest allocation in transfer-heavy runs
    # (every link grant and every chunk arrival is one); an empty __slots__
    # keeps them dict-free like the other awaitables.
    __slots__ = ()

    def succeed(self, value: Any = None) -> None:
        self.trigger(value)

    @property
    def ok(self) -> bool:
        return self.triggered


class AllOf(Awaitable):
    """Triggered when every child awaitable has triggered.

    The value is the list of child values in the given order.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, sim: "Simulator", children: Iterable[Awaitable]):
        super().__init__(sim)
        self._children = list(children)
        self._pending = len(self._children)
        if self._pending == 0:
            sim.schedule(0.0, self.trigger, [])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, _child: Awaitable) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.trigger([c.value for c in self._children])


class AnyOf(Awaitable):
    """Triggered when the first child awaitable triggers.

    The value is ``(index, value)`` of the first child to fire.

    Losing children are detached as soon as the winner fires: a long-lived
    child (a breaker probe signal, an HA beacon) must not pin a dead
    combinator — and the closure graph hanging off it — for its whole
    lifetime.
    """

    __slots__ = ("_children", "_child_cbs")

    def __init__(self, sim: "Simulator", children: Iterable[Awaitable]):
        super().__init__(sim)
        self._children = list(children)
        if not self._children:
            raise ValueError("AnyOf requires at least one child")
        cbs: List[Tuple[Awaitable, Callable]] = []
        for i, child in enumerate(self._children):
            cb = lambda c, i=i: self._on_child(i, c)  # noqa: E731
            cbs.append((child, cb))
            child.add_callback(cb)
        self._child_cbs = cbs

    def _on_child(self, index: int, child: Awaitable) -> None:
        if not self.triggered:
            self.trigger((index, child.value))
            # The race is decided: withdraw our callback from every loser so
            # they no longer reference this combinator.  (A loser that was
            # already triggered has its callback in flight as a scheduled
            # event; it lands on a triggered AnyOf and no-ops.)
            for other, cb in self._child_cbs:
                if other is not child and not other.triggered:
                    other.remove_callback(cb)
            self._child_cbs = []


class Process(Awaitable):
    """A running generator; itself awaitable (fires when the generator ends).

    The value is the generator's return value (``StopIteration.value``).
    """

    __slots__ = (
        "name",
        "_gen",
        "_send",
        "_waiting_on",
        "_interrupted",
        "_step_cb",
        "_wait_cb",
    )

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        # Field init inlined (see Timeout): a process is born per message
        # send and per task attempt, so creation is on the hot path.
        self.sim = sim
        self.triggered = False
        self.value = None
        self._callbacks = _NO_CALLBACKS
        self._waiter = None
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._send = gen.send
        self._waiting_on: Optional[Awaitable] = None
        self._interrupted: Optional[Interrupt] = None
        # Cache the bound methods the hot path hands out once per yield —
        # a process yields thousands of times, each a fresh bound-method
        # allocation otherwise.
        self._step_cb = step = self._step
        # _wait_cb is lazily bound on the first wait that cannot use the
        # _waiter slot (the awaitable already has a waiter or callbacks) —
        # most processes never need it.
        self._wait_cb = None
        # The start event, with _push0's fast path inlined (a process is
        # born per message send; the helper frame is measurable).
        if sim._fastpath:
            sim._ring.append((step, _START_ARGS))
            return
        sim.schedule(0.0, step, None, None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self.triggered:
            return
        self._interrupted = Interrupt(cause)
        # Detach from whatever it was waiting on; resume immediately.
        self.sim.schedule(0.0, self._maybe_deliver_interrupt)

    def _maybe_deliver_interrupt(self) -> None:
        if self.triggered or self._interrupted is None:
            return
        exc, self._interrupted = self._interrupted, None
        self._waiting_on = None
        self._step(None, exc)

    def _on_waited(self, awaited: Awaitable) -> None:
        # Stale wake-up after an interrupt already resumed us.
        if self._waiting_on is not awaited:
            return
        self._waiting_on = None
        self._step(awaited.value, None)

    def _step(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        if self.triggered:
            return
        send = self._send
        while True:
            try:
                if throw_exc is not None:
                    awaited = self._gen.throw(throw_exc)
                else:
                    awaited = send(send_value)
            except StopIteration as stop:
                self.trigger(stop.value)
                return
            except Interrupt:
                # Process chose not to handle its interrupt: treat as clean exit.
                self.trigger(None)
                return
            if not isinstance(awaited, Awaitable):
                raise SimulationError(
                    f"process {self.name!r} yielded {awaited!r}, expected an Awaitable"
                )
            if awaited.triggered:
                # Fast path: resume inline instead of a schedule/dispatch
                # round trip — but only when the scheduled continuation
                # would provably have been the very next event: the current
                # instant's ring is empty (the calendar cannot hold events
                # at ``now``) and no trigger callback chain is on the stack
                # (we were dispatched directly by the run loop, so
                # returning would hand control straight back to it).
                sim = self.sim
                if sim._fastpath and not sim._ring and sim._trigger_depth == 0:
                    sim.inline_steps += 1
                    send_value = awaited.value
                    throw_exc = None
                    continue
                _push0(sim, (self._step_cb, (awaited.value, None)))
            else:
                self._waiting_on = awaited
                if awaited._waiter is None and not awaited._callbacks:
                    awaited._waiter = self
                else:
                    cb = self._wait_cb
                    if cb is None:
                        cb = self._wait_cb = self._on_waited
                    awaited.add_callback(cb)
            return


class Resource:
    """A counted resource (execution slots on a device, NIC queues, ...).

    ``request()`` returns an awaitable that fires when a slot is granted; the
    holder must call ``release()`` exactly once.  FIFO granting keeps the
    model deterministic.  A grant that will never be consumed (its requester
    was interrupted) must be withdrawn with :meth:`cancel`, otherwise the
    slot leaks — :meth:`use` does this for its own request.
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_queue")

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: deque[Signal] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)

    def request(self) -> Awaitable:
        grant = Signal(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            _push0_aw(self.sim, grant)
        else:
            self._queue.append(grant)
        return grant

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            grant = self._queue.popleft()
            _push0_aw(self.sim, grant)
        else:
            self._in_use -= 1

    def cancel(self, grant: Awaitable) -> None:
        """Withdraw a :meth:`request` whose grant will never be consumed.

        A still-queued grant is simply removed.  A grant that was already
        issued — the slot is held, whether or not the ``succeed`` event has
        delivered yet — is returned via :meth:`release`, handing the slot to
        the next waiter.  (The orphaned ``succeed`` may still fire; it
        triggers a signal nobody waits on and touches no resource state.)
        """
        try:
            self._queue.remove(grant)
            return
        except ValueError:
            pass
        self.release()

    def use(self, duration: float) -> Process:
        """Convenience: hold one slot for ``duration`` virtual time.

        Interrupt-safe: an interrupt that lands while the slot request is
        still queued (or granted but undelivered) cancels the request, so
        the slot is never leaked into a process that already unwound.
        """

        def _use() -> Generator:
            grant = self.request()
            try:
                yield grant
            except BaseException:
                # Interrupted (or closed) before the grant was consumed:
                # give the slot back / withdraw the queued request.
                self.cancel(grant)
                raise
            try:
                yield Timeout(self.sim, duration)
            finally:
                self.release()

        return self.sim.process(_use())


class Channel:
    """An unbounded FIFO message channel between processes."""

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Signal] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            getter = self._getters.popleft()
            # Pre-valued hand-off, _push0_aw inlined: every message delivery
            # is one of these (see Timeout.__init__ for the entry format).
            getter.value = item
            sim = self.sim
            if sim._fastpath:
                sim._ring.append(getter)
                return
            sim.schedule(0.0, getter.trigger, item)
        else:
            self._items.append(item)

    def get(self) -> Awaitable:
        sim = self.sim
        # Inline Signal construction (mirror of Awaitable.__init__): one
        # signal per get() is the channel's dominant allocation.
        sig = _new(Signal)
        sig.sim = sim
        sig.triggered = False
        sig.value = None
        sig._callbacks = _NO_CALLBACKS
        sig._waiter = None
        if self._items:
            # Pre-valued hand-off, _push0_aw inlined (burst drain: items
            # queued while the consumer was busy).
            sig.value = self._items.popleft()
            if sim._fastpath:
                sim._ring.append(sig)
                return sig
            sim.schedule(0.0, sig.trigger, sig.value)
        else:
            self._getters.append(sig)
        return sig

    def cancel_get(self, sig: Awaitable) -> None:
        """Withdraw a :meth:`get` whose consumer unwound (was interrupted).

        A still-waiting getter is removed from the queue.  A getter whose
        item was already dispatched (or delivered) puts the item back at the
        *head* of the channel so FIFO order is preserved for the next get.
        """
        try:
            self._getters.remove(sig)
            return
        except ValueError:
            pass
        if sig.triggered:
            self._items.appendleft(sig.value)
        # else: the succeed event is in flight; when it lands the item sits
        # in sig.value of a signal nobody waits on — callers cancelling an
        # in-flight get should do so via a zero-delay event of their own,
        # after the succeed has landed (cancel_get is idempotent until then).


@dataclass(order=True, slots=True)
class _ScheduledEvent:
    time: float
    # ``(rank, seq)``: the perturbation's rank re-keys ties at one instant;
    # the order stays total because the seq component is unique
    seq: Any
    fn: Callable = field(compare=False)
    args: tuple = field(compare=False, default=())


class Simulator:
    """The event loop: a total order of timestamped callbacks.

    Two queue tiers carry the order ``(time, seq)``:

    * the **microtask ring** holds the current instant's events in FIFO
      (= ``seq``) order; zero-delay schedules append here directly;
    * the **bucket calendar** holds future instants as per-timestamp FIFO
      deques plus a heap of distinct times; advancing to an instant promotes
      its whole bucket to the ring in one heap pop.

    While a schedule perturbation is installed both tiers stand empty and
    the **perturbation queue** — one heap keyed ``(time, (rank, seq))`` —
    carries every event: re-ranked tie keys need a real priority queue.
    """

    def __init__(self) -> None:
        # perturbation queue (used only while a perturbation is installed)
        self._queue: list[_ScheduledEvent] = []
        # two-tier fast path
        self._ring: deque = deque()
        self._buckets: dict = {}
        self._times: list = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        # schedule perturbation hook: maps (seq, delay) -> (rank, delay).
        # ``rank`` re-keys ties at one instant; ``delay`` may be stretched
        # (never shrunk below zero) to jitter delivery within causal
        # constraints.
        self._perturb: Optional[Callable[[int, float], tuple]] = None
        self._trigger_depth = 0
        # -- idle fast-forward (opt-in; see poll_timeout/arm_poller) ---------
        self.fast_forward = False
        self._ff_armed = 0  # pollers demanding exact tick-by-tick simulation
        self._ff_listeners: List[Callable[[float, float], None]] = []
        self._poll_counts: dict = {}  # instant -> deferrable poll ticks in it
        self.ff_jumps = 0  # idle regions skipped analytically
        self.ff_ticks_deferred = 0  # poll ticks coalesced onto a jump target
        # -- counters ---------------------------------------------------------
        self.inline_steps = 0  # process resumptions that skipped the queue
        self._dispatched = 0  # queue entries fired (flushed per instant)
        # True iff no perturbation is installed: the ring + calendar carry
        # the order, the inlined enqueue blocks (Timeout.__init__, _push0)
        # and inline resumption are open.  False routes everything through
        # the perturbation queue.
        self._fastpath = True
        # Instance attributes shadow the factory methods below with
        # C-dispatched partials: model code calls sim.timeout()/sim.process()
        # tens of thousands of times per run and the pure-Python wrapper
        # frame is measurable.  The methods stay as the documented API.
        self.timeout = partial(_make_timeout, self)
        self.process = partial(Process, self)
        self.signal = partial(Signal, self)

    @property
    def now(self) -> float:
        return self._now

    def set_perturbation(
        self, perturb: Optional[Callable[[int, float], tuple]]
    ) -> None:
        """Install (or clear) a schedule perturbation.

        Must be called while the simulator is idle: entries authored under
        one queue discipline cannot be re-keyed into the other.  While
        installed, every event goes through the perturbation queue (the
        perturbation re-ranks its tie keys); clearing it restores the
        ring + calendar.
        """
        if self.pending_events():
            raise SimulationError(
                "a schedule perturbation must be installed on an idle simulator"
            )
        self._perturb = perturb
        self._fastpath = perturb is None

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        if not self._fastpath:
            # Only the perturbation queue materializes seq as a tie key; the
            # fast structures below are FIFO by construction, so they carry
            # the (time, seq) order without numbering each entry (dispatch
            # counting lives in the run loops — see events_executed).
            self._seq += 1
            rank, delay = self._perturb(self._seq, delay)
            heapq.heappush(
                self._queue,
                _ScheduledEvent(self._now + delay, (rank, self._seq), fn, args),
            )
            return
        now = self._now
        t = now + delay
        if t == now:
            # Zero-delay (or underflowed-to-now) event: it belongs to the
            # current instant and its seq is larger than everything already
            # pending there, so a FIFO append preserves (time, seq) order.
            self._ring.append((fn, args))
            return
        # A bucket is a bare (fn, args) tuple while it holds one event —
        # most distinct timestamps never see a second — and becomes a FIFO
        # deque on the first collision.
        buckets = self._buckets
        lst = buckets.get(t)
        if lst is None:
            buckets[t] = (fn, args)
            heapq.heappush(self._times, t)
        elif type(lst) is deque:
            lst.append((fn, args))
        else:
            buckets[t] = deque((lst, (fn, args)))

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn`` at an *absolute* virtual time.

        Chaos schedules are authored in absolute time ("crash server1 at
        t=0.5"); this clamps events whose time already passed to "now"
        rather than raising, so a schedule can be attached mid-run.
        """
        self.schedule(max(0.0, when - self._now), fn, *args)

    # -- idle fast-forward -----------------------------------------------------

    def poll_timeout(self, delay: float, value: Any = None) -> Awaitable:
        """A timeout the idle fast-forward may defer.

        Semantically identical to :meth:`timeout` — with ``fast_forward``
        off (the default) it *is* the same scheduled trigger, bit-for-bit.
        With ``fast_forward`` on, the tick is additionally marked as a
        *poller* wake-up: when an instant contains only poller ticks, no
        poller is armed, and a later regular event exists, the kernel jumps
        straight to that event and fires the skipped ticks once, there.
        Callers promise the tick's handler is a pure observation whose
        skipped rounds can be accounted analytically (fast-forward
        listeners run at each jump for exactly that purpose).
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        tick = Signal(self)
        if self.fast_forward and self._fastpath:
            now = self._now
            t = now + delay
            if t == now:
                # degenerate interval: never deferrable, plain ring event
                self._ring.append((tick.trigger, (value,)))
                return tick
            lst = self._buckets.get(t)
            if lst is None:
                self._buckets[t] = (tick.trigger, (value,))
                heapq.heappush(self._times, t)
            elif type(lst) is deque:
                lst.append((tick.trigger, (value,)))
            else:
                self._buckets[t] = deque((lst, (tick.trigger, (value,))))
            self._poll_counts[t] = self._poll_counts.get(t, 0) + 1
        else:
            self.schedule(delay, tick.trigger, value)
        return tick

    def arm_poller(self) -> None:
        """Demand exact tick-by-tick simulation of poller wake-ups.

        Refcounted; while any poller is armed, fast-forward never skips.
        Arm whenever an analytic account of skipped ticks would be wrong:
        chaos is active, suspicion is pending, a liveness protocol is load-
        bearing.
        """
        self._ff_armed += 1

    def disarm_poller(self) -> None:
        if self._ff_armed <= 0:
            raise SimulationError("disarm_poller without a matching arm_poller")
        self._ff_armed -= 1

    @property
    def pollers_armed(self) -> int:
        return self._ff_armed

    def add_fast_forward_listener(self, cb: Callable[[float, float], None]) -> None:
        """Register ``cb(old_now, new_now)`` to run at every idle jump.

        Listeners apply the analytic model of the skipped region (e.g. the
        failure detector credits heartbeats that idle, healthy raylets
        would have delivered).
        """
        self._ff_listeners.append(cb)

    def _try_fast_forward(self, until: Optional[float]) -> bool:
        """Defer leading pure-poller instants onto the next regular event.

        Returns True when a jump happened (deferred ticks installed as the
        ring at the jump target); the caller re-enters its loop.
        """
        times = self._times
        buckets = self._buckets
        counts = self._poll_counts
        deferred: List[tuple] = []
        popped: List[Tuple[float, Any, int]] = []
        while times:
            t0 = times[0]
            n = counts.get(t0)
            if not n:
                break  # a regular instant: stop here
            lst = buckets[t0]
            size = len(lst) if type(lst) is deque else 1
            if n != size:
                break  # a regular event shares this instant: stop here
            if until is not None and t0 > until:
                break  # past the horizon; run() will stop before it anyway
            heapq.heappop(times)
            del buckets[t0]
            del counts[t0]
            popped.append((t0, lst, n))
            if type(lst) is deque:
                deferred.extend(lst)
            else:
                deferred.append(lst)
        if not deferred:
            return False
        if times:
            target: Optional[float] = times[0]
        elif until is not None:
            target = until
        else:
            # Nothing to land on (only pollers remain, no horizon): put the
            # instants back and simulate them normally.
            for t0, lst, n in reversed(popped):
                buckets[t0] = lst
                counts[t0] = n
                heapq.heappush(times, t0)
            return False
        if until is not None and target > until:
            target = until
        old = self._now
        self._now = target
        self.ff_jumps += 1
        self.ff_ticks_deferred += len(deferred)
        for cb in self._ff_listeners:
            cb(old, target)
        self._ring = deque(deferred)
        return True

    # -- factories -------------------------------------------------------------

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def signal(self) -> Signal:
        return Signal(self)

    def all_of(self, children: Iterable[Awaitable]) -> AllOf:
        return AllOf(self, children)

    def any_of(self, children: Iterable[Awaitable]) -> AnyOf:
        return AnyOf(self, children)

    # -- introspection ---------------------------------------------------------

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None when idle."""
        if not self._fastpath:
            return self._queue[0].time if self._queue else None
        if self._ring:
            return self._now  # the calendar only holds later instants
        return self._times[0] if self._times else None

    def pending_events(self) -> int:
        """Events scheduled but not yet dispatched (across all tiers)."""
        n = len(self._ring) + len(self._queue)
        if self._buckets:
            n += sum(
                len(b) if type(b) is deque else 1 for b in self._buckets.values()
            )
        return n

    def events_executed(self) -> int:
        """Total events dispatched so far, including inline resumptions.

        The run loops count dispatches locally and flush the tally once per
        instant (fast-path enqueues do not number entries — FIFO structures
        carry the order), so mid-run reads may lag by the instant currently
        draining; at run boundaries the count is exact.
        """
        return self._dispatched + self.inline_steps

    # -- the event loop --------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or virtual time passes ``until``.

        Returns the virtual time at which the run stopped.  The clock never
        rewinds: ``until`` in the past dispatches nothing and returns ``now``.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if until is not None and until < self._now:
            return self._now
        self._running = True
        try:
            if self._fastpath:
                return self._run_batched(until)
            return self._run_perturbed(until)
        finally:
            self._running = False

    def _run_perturbed(self, until: Optional[float]) -> float:
        """The perturbation-queue loop: one heap pop per event."""
        queue = self._queue
        heappop = heapq.heappop
        while queue:
            if until is not None and queue[0].time > until:
                self._now = until
                break
            ev = heappop(queue)
            self._now = ev.time
            self._dispatched += 1
            ev.fn(*ev.args)
        return self._now

    def _run_batched(self, until: Optional[float]) -> float:
        """The fast path: ring + bucket calendar with same-instant batching."""
        times = self._times
        buckets = self._buckets
        pc = self._poll_counts  # mutated in place everywhere: safe to hoist
        heappop = heapq.heappop
        tup = tuple  # local: checked once per dispatched event
        # ``t > horizon`` is never true for an unbounded run, so the horizon
        # branches below (which read the original ``until``) are only
        # reachable when until is not None — one float compare per instant
        # instead of a None check plus a compare.
        horizon = math.inf if until is None else until
        nd = 0  # dispatches since the last flush (see events_executed)
        while True:
            if nd:
                self._dispatched += nd
                nd = 0
            ring = self._ring
            if ring:
                # events pending at the current instant (left over from a
                # previous run() or pushed between runs): they belong to
                # ``now``, which run() checked is not past the horizon
                pop = ring.popleft  # ring identity is stable within a drain
                while ring:
                    e = pop()
                    nd += 1
                    if type(e) is tup:
                        e[0](*e[1])
                    else:
                        # Pre-valued awaitable entry (see Timeout.__init__):
                        # the sole-waiter trigger inlined — keep in sync
                        # with Awaitable.trigger.  Tail position: no depth
                        # bump (cf. the trigger fast lane).
                        w = e._waiter
                        if w is not None and not e._callbacks and not e.triggered:
                            e.triggered = True
                            e._waiter = None
                            if w._waiting_on is e:
                                w._waiting_on = None
                                w._step(e.value, None)
                        else:
                            e.trigger(e.value)
            elif times:
                if (
                    self.fast_forward
                    and pc
                    and self._ff_armed == 0
                    and self._try_fast_forward(until)
                ):
                    continue
                t = times[0]
                if t > horizon:
                    self._now = until
                    break
                self._now = t
                heappop(times)
                lst = buckets.pop(t)
                if pc:
                    pc.pop(t, None)
                if type(lst) is tup:
                    # singleton instant: dispatch directly; the ring stays
                    # empty so zero-delay follow-ups (and the inline fast
                    # path) behave exactly as with a promoted 1-item ring
                    nd += 1
                    lst[0](*lst[1])
                elif type(lst) is not deque:
                    nd += 1
                    # singleton pre-valued awaitable: sole-waiter trigger
                    # inlined (see the ring drain above; keep in sync)
                    w = lst._waiter
                    if w is not None and not lst._callbacks and not lst.triggered:
                        lst.triggered = True
                        lst._waiter = None
                        if w._waiting_on is lst:
                            w._waiting_on = None
                            w._step(lst.value, None)
                    else:
                        lst.trigger(lst.value)
                else:
                    # promote the whole bucket to the ring: everything at
                    # this instant drains without re-touching the heap, and
                    # zero-delay schedules append behind it in seq order
                    self._ring = ring = lst
                    pop = ring.popleft
                    while ring:
                        e = pop()
                        nd += 1
                        if type(e) is tup:
                            e[0](*e[1])
                        else:
                            w = e._waiter
                            if (
                                w is not None
                                and not e._callbacks
                                and not e.triggered
                            ):
                                e.triggered = True
                                e._waiter = None
                                if w._waiting_on is e:
                                    w._waiting_on = None
                                    w._step(e.value, None)
                            else:
                                e.trigger(e.value)
            else:
                break
        if nd:
            self._dispatched += nd
        return self._now

    def run_until_complete(self, proc: Process, limit: float = math.inf) -> Any:
        """Run until ``proc`` finishes; raise if the queue drains first."""
        self.run(until=None if limit == math.inf else limit)
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not complete (deadlock or time limit)"
            )
        return proc.value
