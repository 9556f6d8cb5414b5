"""Overload control: admission, retry budgets, and device circuit breakers.

The runtime survives crashes (lineage replay), device-granular faults, and
slow fabrics — but an *overloaded* system fails differently: every queue
grows without bound, retries of timed-out work amplify the very congestion
that caused the timeouts, and the system enters a metastable state where
goodput stays collapsed long after the triggering burst ends.  This module
holds the mechanism objects; the runtime wires them behind
:class:`~repro.runtime.config.RuntimeConfig` switches whose all-off setting
reproduces legacy traces bit-for-bit.

Three mechanism families live here:

* **admission** — :class:`AdmissionRejectedError`, raised to callers when a
  bounded admission queue refuses a task (retryable: the caller may resubmit
  after backing off);
* **retry budgets** — :class:`RetryBudget`, a per-node token bucket refilled
  by first-attempt successes and drained by retries, capping retry volume at
  a fraction of useful volume so storms cannot self-amplify;
* **circuit breakers** — :class:`CircuitBreaker` / :class:`BreakerBoard`,
  per-device state machines (CLOSED -> OPEN -> HALF_OPEN) driven by the
  existing health signals, shedding load from flaky devices instead of
  hammering them.

The deterministic retry-backoff jitter helpers also live here so the hash
contract (documented in ``runtime/config.py``) has a single home.
"""

from __future__ import annotations

import enum
import hashlib
from typing import Callable, Dict, Optional

__all__ = [
    "AdmissionRejectedError",
    "RetryBudget",
    "BreakerState",
    "CircuitBreaker",
    "BreakerBoard",
    "backoff_jitter_fraction",
    "retry_backoff_delay",
]


class AdmissionRejectedError(RuntimeError):
    """A bounded admission queue refused the task.

    Retryable: the submission was rejected *before* any ownership state was
    created, so the caller may back off and resubmit the same payload.
    """

    def __init__(self, message: str, *, reason: str = "admission_reject"):
        super().__init__(message)
        self.reason = reason


# -- deterministic retry backoff ---------------------------------------------

# each retry waits this many times longer than the one before it
RETRY_BACKOFF_FACTOR = 2.0


def backoff_jitter_fraction(task_id: str, retries: int) -> float:
    """The pinned jitter fraction in [0, 1] for attempt ``retries`` of a task.

    Hashed (md5) from ``f"{task_id}:{retries}"`` — stable across processes,
    platforms and Python versions, unlike ``hash()`` or ``random``.  A
    regression test pins exact values so refactors cannot silently change
    seeded chaos traces.
    """
    digest = hashlib.md5(f"{task_id}:{retries}".encode()).hexdigest()
    return int(digest[:8], 16) / 0xFFFFFFFF


def retry_backoff_delay(config, task_id: str, retries: int) -> float:
    """Exponential backoff with deterministic per-attempt jitter.

    ``retries`` is the attempt number being scheduled (1 for the first
    retry).  Bit-identical to the pre-overload runtime implementation.
    """
    base = config.retry_backoff_base * RETRY_BACKOFF_FACTOR ** max(0, retries - 1)
    return base * (1.0 + config.retry_jitter * backoff_jitter_fraction(task_id, retries))


# -- retry budgets ------------------------------------------------------------


class RetryBudget:
    """A per-node token bucket capping retry volume.

    Each node starts with ``cap`` tokens.  A first-attempt success refills
    ``ratio`` tokens (clamped at ``cap``); each retry costs one token.  Over
    any window, retries are therefore bounded by ``ratio`` x the
    first-attempt success volume plus the initial burst allowance — the
    standard defense against retry storms (retries amplify load exactly when
    successes, and thus refills, dry up).
    """

    def __init__(self, ratio: float, cap: float):
        if ratio < 0:
            raise ValueError(f"retry budget ratio must be >= 0, got {ratio}")
        if cap <= 0:
            raise ValueError(f"retry budget cap must be > 0, got {cap}")
        self.ratio = ratio
        self.cap = cap
        self._tokens: Dict[str, float] = {}
        self.consumed = 0
        self.exhausted = 0

    def tokens(self, node_id: str) -> float:
        return self._tokens.get(node_id, self.cap)

    def try_consume(self, node_id: str) -> bool:
        """Spend one token for a retry on ``node_id``; False when exhausted."""
        tokens = self._tokens.get(node_id, self.cap)
        if tokens < 1.0:
            self.exhausted += 1
            return False
        self._tokens[node_id] = tokens - 1.0
        self.consumed += 1
        return True

    def refill(self, node_id: str) -> None:
        """Credit a first-attempt success on ``node_id``."""
        tokens = self._tokens.get(node_id, self.cap)
        self._tokens[node_id] = min(self.cap, tokens + self.ratio)


# -- circuit breakers ---------------------------------------------------------


# consecutive device-attributed failures that trip a CLOSED breaker
BREAKER_FAILURE_THRESHOLD = 5


class BreakerState(enum.Enum):
    CLOSED = "closed"  # healthy: all load admitted
    OPEN = "open"  # tripped: no load until the reset timer elapses
    HALF_OPEN = "half_open"  # probing: one attempt at a time


class CircuitBreaker:
    """A per-device breaker over device-attributed transient failures.

    CLOSED -> OPEN after ``threshold`` consecutive failures; OPEN -> HALF_OPEN
    once ``reset_after`` virtual seconds elapse; HALF_OPEN admits a single
    probe attempt at a time and needs ``probe_successes`` consecutive
    successes to close again (any probe failure re-opens).
    """

    def __init__(
        self,
        device_id: str,
        threshold: int,
        reset_after: float,
        probe_successes: int,
        on_transition: Optional[Callable[[str, BreakerState, BreakerState], None]] = None,
    ):
        self.device_id = device_id
        self.threshold = threshold
        self.reset_after = reset_after
        self.probe_successes = probe_successes
        self.on_transition = on_transition
        self.state = BreakerState.CLOSED
        self._failures = 0
        self._probes_ok = 0
        self._opened_at = 0.0
        self.trips = 0

    def allow(self, now: float, inflight: int) -> bool:
        """May an attempt be placed on this device right now?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self._opened_at >= self.reset_after:
                self._to_half_open()
            else:
                return False
        # HALF_OPEN: single probe in flight at a time
        return inflight == 0

    def record_success(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probes_ok += 1
            if self._probes_ok >= self.probe_successes:
                self._transition(BreakerState.CLOSED)
                self._failures = 0
        elif self.state is BreakerState.CLOSED:
            self._failures = 0

    def record_failure(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._open(now)
        elif self.state is BreakerState.CLOSED:
            self._failures += 1
            if self._failures >= self.threshold:
                self._open(now)

    def force_open(self, now: float) -> None:
        """Trip immediately (the device was declared dead)."""
        if self.state is not BreakerState.OPEN:
            self._open(now)
        else:
            self._opened_at = now

    def on_recovered(self) -> None:
        """The device came back (restart): probe before trusting it."""
        if self.state is BreakerState.OPEN:
            self._to_half_open()

    def _open(self, now: float) -> None:
        self._opened_at = now
        self._probes_ok = 0
        self.trips += 1
        self._transition(BreakerState.OPEN)

    def _to_half_open(self) -> None:
        self._probes_ok = 0
        self._transition(BreakerState.HALF_OPEN)

    def _transition(self, state: BreakerState) -> None:
        old, self.state = self.state, state
        if old is not state and self.on_transition is not None:
            self.on_transition(self.device_id, old, state)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CircuitBreaker({self.device_id}, {self.state.value})"


class BreakerBoard:
    """The fleet of per-device breakers, lazily created.

    ``on_transition(device_id, old_state, new_state)`` fires on every state
    change so the runtime can mirror transitions into the event log and
    telemetry without this module importing either.
    """

    def __init__(
        self,
        reset_after: float,
        probe_successes: int,
        on_transition: Optional[Callable[[str, BreakerState, BreakerState], None]] = None,
    ):
        self.reset_after = reset_after
        self.probe_successes = probe_successes
        self.on_transition = on_transition
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, device_id: str) -> CircuitBreaker:
        br = self._breakers.get(device_id)
        if br is None:
            br = CircuitBreaker(
                device_id,
                BREAKER_FAILURE_THRESHOLD,
                self.reset_after,
                self.probe_successes,
                on_transition=self.on_transition,
            )
            self._breakers[device_id] = br
        return br

    def allow(self, device_id: str, now: float, inflight: int) -> bool:
        return self.breaker(device_id).allow(now, inflight)

    def record_success(self, device_id: str, now: float) -> None:
        # only devices with a breaker already materialized need the credit
        br = self._breakers.get(device_id)
        if br is not None:
            br.record_success(now)

    def record_failure(self, device_id: str, now: float) -> None:
        self.breaker(device_id).record_failure(now)

    def states(self) -> Dict[str, BreakerState]:
        return {d: b.state for d, b in sorted(self._breakers.items())}
