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
* **generator-free steps** — the leaf primitives (a control message, a
  transfer or multicast, a :class:`Hold` of a slot, an :class:`After`
  watchdog) are :class:`Step` state machines that dispatch exactly as the
  processes they replace, and a finished :class:`Process` breaks its own
  reference cycle: both are freed by refcounting, not the cycle collector.
* **no cyclic collector** — :meth:`Simulator.run` pauses Python's cyclic
  garbage collector while it dispatches and restores the caller's setting
  on the way out.  A run allocates per-task objects by the hundred thousand,
  and the collector's generation walks over them found nothing to free: the
  model makes no reference cycle (an interrupt delivery and an abandoned
  combinator break theirs), so refcounting frees everything.  A cycle made
  inside a run now lives until the run ends; ``tests/acyclic.py`` fails any
  test whose run leaves one.
* **exact absolute enqueue** — :meth:`Simulator.call_at` lands an entry at
  exactly the time it is given (a flow replaying a pipeline's arithmetic
  must land on the pipeline's last bit), and :meth:`Simulator.cancel`
  withdraws one; an instant left empty is skipped by the run loop.

A schedule perturbation (:meth:`Simulator.set_perturbation`) keeps both
tiers and the one run loop: it only re-keys ties.  Each entry is numbered
and carries ``(rank, seq)``, and goes into the ring or its instant's bucket
in key order instead of at the tail.  Unperturbed, the kernel reproduces the
pre-rebuild single-heap kernel's dispatch order bit-for-bit: the goldens in
``repro.bench.simcore`` and ``tests/test_simcore_kernel.py`` are what that
kernel recorded.

One invariant keeps the enqueue paths short: a non-empty ring always
belongs to the current instant, so an unperturbed zero-delay enqueue is a
bare append.  Virtual time only moves in the run loop, which drains the
ring before advancing, and ``run(until)`` never rewinds the clock.
"""

from __future__ import annotations

import gc
import heapq
import math
from bisect import insort
from collections import deque
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "Simulator",
    "Process",
    "Step", "Hold", "After",
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

# The tie key of an entry enqueued under a perturbation: ``(fn, args, (rank,
# seq))``.  Its instant's deque is kept sorted by it.
_tie_key = itemgetter(2)


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
    """Zero-delay enqueue of a pre-valued awaitable (see _make_timeout).

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
    """Fires after ``delay`` units of virtual time.

    Made only by :func:`_make_timeout` (``sim.timeout(delay)``), never by
    calling the class.
    """

    __slots__ = ("delay",)


def _make_timeout(sim: "Simulator", delay: float, value: Any = None) -> Timeout:
    """The one way to make a :class:`Timeout`: ``sim.timeout`` is this, bound.

    Built through ``object.__new__`` so the call skips ``type.__call__``;
    field init and the enqueue are inlined (no ``Awaitable.__init__``, no
    schedule() call): a timeout is created per timed wait and the call
    frames are measurable.  The enqueue mirrors Simulator.schedule exactly
    — keep them in sync.
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
        # Pre-valued enqueue: the queue entry is this awaitable itself
        # (``value`` already stored), not a ``(bound trigger, (value,))``
        # pair — two tuples and a bound-method allocation saved per timed
        # wait, and the dispatch loop fires it without the generic trigger
        # frame.  ``trigger(value)`` would store the same value, so the
        # dispatch is observably identical.
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

    def _abandon(self) -> None:
        """Its sole waiter was interrupted: withdraw from the children still
        pending, as :class:`AnyOf` does from its losers, so a child that
        never fires holds no cycle through this combinator."""
        on_child = self._on_child
        for child in self._children:
            if not child.triggered:
                child.remove_callback(on_child)


class AnyOf(Awaitable):
    """Triggered when the first child awaitable triggers.

    The value is ``(index, value)`` of the first child to fire.

    Losing children are detached as soon as the winner fires: a long-lived
    child (an HA beacon, a long watchdog timer) must not pin a dead
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
            self._abandon()

    def _abandon(self) -> None:
        """Withdraw from every child still pending (the race is decided, or
        the sole waiter was interrupted) and drop the callbacks, which close
        over this combinator."""
        for other, cb in self._child_cbs:
            if not other.triggered:
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
        # Field init inlined (see _make_timeout): a process is born per task
        # attempt and per transfer, so creation is on the hot path.
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
        # born per task attempt; the helper frame is measurable).
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
        awaited, self._waiting_on = self._waiting_on, None
        if (
            isinstance(awaited, (AllOf, AnyOf))
            and awaited._waiter is self
            and not awaited._callbacks
        ):
            awaited._abandon()
        self._step(None, exc)
        # An interrupt that ended the generator carries _step's frame in its
        # traceback, and that frame's f_back is this one: holding ``exc``
        # here past the step would close a cycle (and pin the run loop's
        # frame).
        exc = None

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
            except (StopIteration, Interrupt) as end:
                # An unhandled interrupt is a clean exit.  The cached bound
                # methods point back here: drop them, so refcounting frees us,
                # and the finished generator.  An interrupt's traceback keeps
                # this frame: its locals must not keep the generator or the
                # interrupt (a cycle) either.
                self._gen = self._send = self._step_cb = self._wait_cb = None
                send = throw_exc = None
                self.trigger(end.value if isinstance(end, StopIteration) else None)
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


class Step(Awaitable):
    """A generator-free process.  A subclass implements ``_advance(value,
    _exc)``, its body up to the next wait: it parks on an awaitable it just
    made (:meth:`_wait`) or ends with ``self.trigger(value)``; ``_phase`` (0
    at the start) says where it is.  The start entry is a :class:`Process`'s
    and the step is the sole ``_waiter`` of what it awaits, so ``_advance``
    runs exactly when a generator body would resume.  Nothing interrupts it."""

    __slots__ = ("name", "_waiting_on", "_phase")

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._step = cls._advance  # the waiter protocol's entry, without a frame

    def __init__(self, sim: "Simulator", name: str) -> None:
        Awaitable.__init__(self, sim)
        self.name = name
        self._waiting_on: Optional[Awaitable] = None
        self._phase = 0
        if sim._fastpath:  # the start entry, as in Process.__init__
            sim._ring.append((self._step, _START_ARGS))
            return
        sim.schedule(0.0, self._step, None, None)

    def _wait(self, awaitable: Awaitable) -> None:
        self._waiting_on = awaitable
        awaitable._waiter = self  # fresh: no other waiter, no callbacks


class Hold(Step):
    """Hold a slot of ``resource`` for ``duration`` (the value); ``then(duration)``
    runs as the hold ends, before the slot is released."""

    __slots__ = ("resource", "duration", "then")

    def __init__(self, resource: "Resource", duration: float, then: Any = None, name: str = ""):
        self.resource = resource
        self.duration = duration
        self.then = then
        Step.__init__(self, resource.sim, name)

    def _advance(self, _value: Any, _exc: None) -> None:
        self._phase += 1
        if self._phase == 1:
            self._wait(self.resource.request())
        elif self._phase == 2:  # granted
            self._wait(_make_timeout(self.sim, self.duration))
        else:
            if self.then is not None:
                self.then(self.duration)
            self.resource.release()
            self.trigger(self.duration)


class After(Step):
    """Call ``fn(*args)`` ``delay`` after the start step (a watchdog)."""

    __slots__ = ("delay", "fn", "args")

    def __init__(self, sim: "Simulator", delay: float, fn: Callable, *args: Any) -> None:
        self.delay = delay
        self.fn = fn
        self.args = args
        Step.__init__(self, sim, "after")

    def _advance(self, _value: Any, _exc: None) -> None:
        self._phase += 1
        if self._phase == 1:
            self._wait(_make_timeout(self.sim, self.delay))
        else:
            self.fn(*self.args)
            self.trigger(None)


class Resource:
    """A counted resource (execution slots on a device, NIC queues, ...).

    ``request()`` returns an awaitable that fires when a slot is granted; the
    holder must call ``release()`` exactly once.  FIFO granting keeps the
    model deterministic.  A grant that will never be consumed (its requester
    was interrupted) must be withdrawn with :meth:`cancel`, otherwise the
    slot leaks.
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


class Channel:
    """An unbounded FIFO message channel between processes."""

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Signal] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            getter = self._getters.popleft()
            # Pre-valued hand-off, _push0_aw inlined: every message delivery
            # is one of these (see _make_timeout for the entry format).
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


class Simulator:
    """The event loop: a total order of timestamped callbacks.

    Two queue tiers carry the order ``(time, seq)``:

    * the **microtask ring** holds the current instant's events in FIFO
      (= ``seq``) order; zero-delay schedules append here directly;
    * the **bucket calendar** holds future instants as per-timestamp FIFO
      deques plus a heap of distinct times; advancing to an instant promotes
      its whole bucket to the ring in one heap pop.

    While a schedule perturbation is installed each instant's deque (ring
    or bucket) is kept sorted by ``(rank, seq)`` instead of arrival.

    The three hot factories are instance attributes, set in ``__init__``:

    * ``sim.process(gen, name="") -> Process`` runs a generator;
    * ``sim.timeout(delay, value=None) -> Timeout`` fires ``delay`` from now;
    * ``sim.signal() -> Signal`` is an untriggered signal.
    """

    def __init__(self) -> None:
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
        # -- counters ---------------------------------------------------------
        self.inline_steps = 0  # process resumptions that skipped the queue
        self._dispatched = 0  # queue entries fired (flushed per instant)
        # True iff no perturbation is installed: entries append in FIFO
        # order, the inlined enqueue blocks (_make_timeout, _push0) and
        # inline resumption are open.  False routes every enqueue through
        # schedule(), which keys it.
        self._fastpath = True
        # The factories are C-dispatched partials, not methods: model code
        # calls sim.timeout()/sim.process() tens of thousands of times per
        # run and a pure-Python wrapper frame is measurable.
        self.timeout = partial(_make_timeout, self)
        self.process = partial(Process, self)
        self.signal = partial(Signal, self)
        # the virtual clock as a C-level callable, for the telemetry plane's
        # stamps (several per task): no Python frame per read
        self.clock = partial(getattr, self, "_now")

    @property
    def now(self) -> float:
        return self._now

    def set_perturbation(
        self, perturb: Optional[Callable[[int, float], tuple]]
    ) -> None:
        """Install (or clear) a schedule perturbation.

        Must be called while the simulator is idle: an entry enqueued in
        arrival order carries no tie key, and a keyed one no place in a FIFO.
        While installed, every enqueue is numbered and put in ``(rank,
        seq)`` order within its instant (the perturbation picks the rank and
        may stretch the delay); clearing it restores FIFO appends.
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
        self._enqueue(self._now + delay, delay, fn, args)

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn`` at an *absolute* virtual time.

        Chaos schedules are authored in absolute time ("crash server1 at
        t=0.5"); this clamps events whose time already passed to "now"
        rather than raising, so a schedule can be attached mid-run.
        """
        self.schedule(max(0.0, when - self._now), fn, *args)

    def call_at(self, when: float, fn: Callable, *args: Any) -> Any:
        """Enqueue ``fn(*args)`` at exactly ``when`` (not ``now + (when -
        now)``, which can miss by one ulp), behind everything already
        pending there.  Returns a handle for :meth:`cancel`."""
        now = self._now
        if when < now:
            raise ValueError(f"cannot schedule in the past (when={when}, now={now})")
        return self._enqueue(when, when - now, fn, args)

    def _enqueue(self, t: float, delay: float, fn: Callable, args: tuple) -> Any:
        """Put ``fn(*args)`` at ``t`` (``delay`` after now), behind everything
        already pending there unless a perturbation ranks it ahead; returns
        the handle :meth:`cancel` takes."""
        if not self._fastpath:
            # Only a perturbation numbers entries: the entry carries its tie
            # key (rank, seq) and goes into its instant's deque (the ring, or
            # a bucket that is always a deque here) in key order.  The FIFO
            # path below needs no numbers (dispatch counting lives in the run
            # loop — see events_executed).  A jittered delay lands at now +
            # jitter; an unjittered one at t.
            self._seq += 1
            rank, jittered = self._perturb(self._seq, delay)
            if jittered != delay:
                t = self._now + jittered
            entry = (fn, args, (rank, self._seq))
            pending = self._ring if t == self._now else self._buckets.get(t)
            if pending is None:
                self._buckets[t] = deque((entry,))
                heapq.heappush(self._times, t)
            else:
                insort(pending, entry, key=_tie_key)
            return t, entry
        entry = (fn, args)
        if t == self._now:
            # Zero-delay (or underflowed-to-now) event: it belongs to the
            # current instant and its seq is larger than everything already
            # pending there, so a FIFO append preserves (time, seq) order.
            self._ring.append(entry)
            return t, entry
        # A bucket is a bare (fn, args) tuple while it holds one event —
        # most distinct timestamps never see a second — and becomes a FIFO
        # deque on the first collision.
        buckets = self._buckets
        lst = buckets.get(t)
        if lst is None:
            buckets[t] = entry
            heapq.heappush(self._times, t)
        elif type(lst) is deque:
            lst.append(entry)
        else:
            buckets[t] = deque((lst, entry))
        return t, entry

    def cancel(self, handle: Any) -> None:
        """Withdraw a :meth:`call_at` entry that has not been dispatched; a
        handle that is not pending raises ``ValueError``.  An instant left
        empty stays in the time heap until a loop skips it."""
        when, entry = handle
        buckets = self._buckets
        # A later entry sits in its instant's bucket; one at now sits in the
        # ring (its bucket, if it had one, was promoted to the ring).
        at_now = when == self._now
        pending = self._ring if at_now else buckets.get(when)
        if pending is entry:
            del buckets[when]
            return
        if type(pending) is deque:
            for i, e in enumerate(pending):
                if e is entry:
                    del pending[i]
                    if not pending and not at_now:
                        del buckets[when]
                    return
        raise ValueError(f"cancel: no pending entry {entry!r} at {when}")

    # -- factories -------------------------------------------------------------

    def all_of(self, children: Iterable[Awaitable]) -> AllOf:
        return AllOf(self, children)

    def any_of(self, children: Iterable[Awaitable]) -> AnyOf:
        return AnyOf(self, children)

    # -- introspection ---------------------------------------------------------

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None when idle."""
        if self._ring:
            return self._now  # the calendar only holds later instants
        times, buckets = self._times, self._buckets
        while times and times[0] not in buckets:
            heapq.heappop(times)  # an instant cancel emptied
        return times[0] if times else None

    def pending_events(self) -> int:
        """Events scheduled but not yet dispatched (across all tiers)."""
        n = len(self._ring)
        if self._buckets:
            n += sum(
                len(b) if type(b) is deque else 1 for b in self._buckets.values()
            )
        return n

    def events_executed(self) -> int:
        """Total events dispatched so far, including inline resumptions.

        The run loop counts dispatches locally and flushes the tally once per
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

        The cyclic garbage collector is off while the loop dispatches: the
        model keeps no reference cycles, so its walks over every live task
        object free nothing and only cost time.  It is turned back on at the
        end, also when a callback raises, unless the caller had it off.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if until is not None and until < self._now:
            return self._now
        self._running = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._run_batched(until)
        finally:
            self._running = False
            if collecting:
                gc.enable()

    def _run_batched(self, until: Optional[float]) -> float:
        """The one dispatch loop: ring + bucket calendar, same-instant batching."""
        times = self._times
        buckets = self._buckets
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
                        # Pre-valued awaitable entry (see _make_timeout):
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
                t = heappop(times)
                lst = buckets.pop(t, None)
                if lst is None:
                    continue  # every entry of this instant was cancelled
                if t > horizon:
                    buckets[t] = lst
                    heapq.heappush(times, t)
                    self._now = until
                    break
                self._now = t
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
