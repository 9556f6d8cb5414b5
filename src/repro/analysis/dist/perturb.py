"""Schedule-perturbation harness: hunt for order bugs, shrink what fails.

A scenario here is a callable that builds its world from scratch, runs it
under an optionally-installed :class:`~repro.chaos.perturb.TiePerturbation`,
and returns any result object; a *predicate* decides whether that result
counts as a failure (default: a :class:`SanitizerReport` that is not
clean).  The harness:

1. runs the unperturbed baseline (a failing baseline is reported as-is —
   the minimal failing schedule is then *empty*);
2. sweeps seeds, each re-ranking all same-instant ties and optionally
   jittering delivery, until the predicate fires;
3. shrinks the failing perturbation window with ddmin to a minimal set
   of scheduler sequence numbers whose re-ranking still triggers the
   failure — the "minimal failing schedule" a human can actually read.

Determinism: every trial is a pure function of (scenario, seed, window,
jitter), so a shrunk schedule replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ...chaos.perturb import TiePerturbation
from .report import SanitizerReport

__all__ = ["TrialRecord", "HuntResult", "default_predicate", "hunt", "ddmin"]

Scenario = Callable[[Optional[TiePerturbation]], Any]
Predicate = Callable[[Any], bool]


def default_predicate(result: Any) -> bool:
    """Failure = a sanitizer report that is not clean."""
    if isinstance(result, SanitizerReport):
        return not result.clean
    raise TypeError(
        f"default predicate needs a SanitizerReport, got {type(result).__name__}; "
        "pass an explicit predicate for other result types"
    )


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """One executed trial, for the report."""

    seed: Optional[int]  # None = unperturbed baseline
    window: Optional[int]  # active-window size; None = all ties
    jitter: float
    failed: bool


@dataclass
class HuntResult:
    """Outcome of a perturbation hunt (plus shrink, if anything failed)."""

    trials: List[TrialRecord] = field(default_factory=list)
    baseline_failed: bool = False
    failing_seed: Optional[int] = None
    minimal: Optional[Tuple[int, ...]] = None
    minimal_result: Any = None

    @property
    def found_failure(self) -> bool:
        return self.baseline_failed or self.failing_seed is not None

    def to_dict(self) -> Dict[str, Any]:
        """The same for two equal hunts: a result with no ``to_dict`` of its
        own is written as its type name, not as a ``repr`` that may hold a
        memory address."""
        result = self.minimal_result
        return {
            "trials": len(self.trials),
            "baseline_failed": self.baseline_failed,
            "failing_seed": self.failing_seed,
            "minimal_schedule": list(self.minimal) if self.minimal is not None else None,
            "minimal_result": (
                None if result is None
                else result.to_dict() if hasattr(result, "to_dict")
                else type(result).__name__
            ),
        }

    def describe(self) -> str:
        if self.baseline_failed:
            return (
                "perturbation-hunt: baseline already fails the predicate — "
                "minimal failing schedule is empty (no reordering needed)"
            )
        if self.failing_seed is None:
            return f"perturbation-hunt: {len(self.trials)} trial(s), no failure found"
        window = "?" if self.minimal is None else len(self.minimal)
        return (
            f"perturbation-hunt: seed {self.failing_seed} fails; shrunk to a "
            f"{window}-event reorder window after {len(self.trials)} trial(s)"
        )


def ddmin(
    test: Callable[[Sequence[int]], bool],
    items: Sequence[int],
    max_trials: int = 64,
) -> Tuple[int, ...]:
    """Classic delta-debugging minimization of a failing item set.

    ``test(subset)`` must return True when the failure still reproduces
    with only ``subset`` active.  ``items`` is assumed to fail as a whole.
    The trial budget bounds runtime on huge windows; the result is the
    smallest failing set found within budget (1-minimal if budget allows).
    """
    current = list(items)
    trials = 0
    granularity = 2
    while len(current) >= 2 and trials < max_trials:
        chunk_size = max(1, len(current) // granularity)
        chunks = [
            current[i : i + chunk_size] for i in range(0, len(current), chunk_size)
        ]
        reduced = False
        for chunk in chunks:
            if trials >= max_trials:
                break
            trials += 1
            if test(chunk):
                current = list(chunk)
                granularity = 2
                reduced = True
                break
        if not reduced and granularity > 2:
            for chunk in chunks:
                if trials >= max_trials:
                    break
                complement = [i for i in current if i not in set(chunk)]
                if not complement:
                    continue
                trials += 1
                if test(complement):
                    current = complement
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return tuple(current)


def hunt(
    scenario: Scenario,
    seeds: Iterable[int] = range(1, 9),
    jitter: float = 0.0,
    predicate: Predicate = default_predicate,
    shrink: bool = True,
    shrink_budget: int = 64,
) -> HuntResult:
    """Sweep perturbation seeds over a scenario; shrink the first failure."""
    result = HuntResult()

    baseline = scenario(None)
    baseline_failed = predicate(baseline)
    result.trials.append(
        TrialRecord(seed=None, window=None, jitter=0.0, failed=baseline_failed)
    )
    if baseline_failed:
        result.baseline_failed = True
        result.minimal = ()
        result.minimal_result = baseline
        return result

    for seed in seeds:
        perturbation = TiePerturbation(seed, jitter=jitter)
        outcome = scenario(perturbation)
        failed = predicate(outcome)
        result.trials.append(
            TrialRecord(seed=seed, window=None, jitter=jitter, failed=failed)
        )
        if not failed:
            continue
        result.failing_seed = seed
        result.minimal_result = outcome
        if not shrink:
            return result
        universe = range(1, perturbation.last_seq + 1)

        def rerun(subset: Sequence[int]) -> bool:
            sub = TiePerturbation(seed, active=subset, jitter=jitter)
            trial = scenario(sub)
            failed_here = predicate(trial)
            result.trials.append(
                TrialRecord(
                    seed=seed, window=len(subset), jitter=jitter, failed=failed_here
                )
            )
            if failed_here:
                result.minimal_result = trial
            return failed_here

        result.minimal = ddmin(rerun, list(universe), max_trials=shrink_budget)
        return result

    return result
