"""Seeded schedule perturbation: the chaos source for Skadi-TSan.

The simulator breaks same-instant ties by a monotonic sequence number, so
any run is one *particular* linearization of the causal order.  A
:class:`TiePerturbation` installed via ``Simulator.set_perturbation`` picks
a different — but still deterministic — linearization: same-instant ties
are re-ranked by a seeded hash, and (optionally) positive delays are
stretched by a bounded jitter factor.  Causality is preserved by
construction: an event is only scheduled once its cause has executed, and
delays are never shortened.

The ``active`` window restricts the perturbation to a subset of sequence
numbers; the sanitizer's shrinker (``repro.analysis.dist.perturb``)
narrows a failing window down to a minimal failing schedule.

Hashing uses md5, the repo's determinism idiom (see
``supervision.backoff_jitter_fraction``): stable across processes, platforms
and Python versions, unlike ``hash()`` or a shared ``random`` stream.
"""

from __future__ import annotations

import hashlib
from typing import Collection, Optional, Tuple

__all__ = ["TiePerturbation", "tie_rank", "jitter_fraction"]


def tie_rank(seed: int, seq: int) -> int:
    """A pinned pseudo-random rank for event ``seq`` under ``seed``."""
    digest = hashlib.md5(f"{seed}:{seq}".encode()).hexdigest()
    return int(digest[:8], 16)


def jitter_fraction(seed: int, seq: int) -> float:
    """A pinned jitter fraction in [0, 1] for event ``seq`` under ``seed``."""
    digest = hashlib.md5(f"j{seed}:{seq}".encode()).hexdigest()
    return int(digest[:8], 16) / 0xFFFFFFFF


class TiePerturbation:
    """A seeded, windowable schedule perturbation.

    Parameters
    ----------
    seed:
        Drives both the tie re-ranking and the delay jitter.
    active:
        Sequence numbers the perturbation applies to (``None`` = all).
        Inactive events keep rank 0, i.e. their original relative order
        among themselves — and sort *before* perturbed events at the same
        instant, so shrinking a window toward empty converges on the
        legacy schedule.
    jitter:
        Maximum fractional delay stretch for active events.  ``0.1`` means
        a positive delay may grow by up to 10%; zero delays are never
        touched (run-to-completion steps stay immediate).
    """

    def __init__(
        self,
        seed: int,
        active: Optional[Collection[int]] = None,
        jitter: float = 0.0,
    ):
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.seed = seed
        self.active = None if active is None else frozenset(active)
        self.jitter = jitter
        self.perturbed = 0  # events actually re-ranked (diagnostics)
        self.last_seq = 0  # highest sequence number observed (shrinker universe)

    def is_active(self, seq: int) -> bool:
        return self.active is None or seq in self.active

    def __call__(self, seq: int, delay: float) -> Tuple[int, float]:
        if seq > self.last_seq:
            self.last_seq = seq
        if not self.is_active(seq):
            return 0, delay
        self.perturbed += 1
        if self.jitter and delay > 0.0:
            delay = delay * (1.0 + self.jitter * jitter_fraction(self.seed, seq))
        return tie_rank(self.seed, seq), delay

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        window = "all" if self.active is None else f"{len(self.active)} seqs"
        return f"TiePerturbation(seed={self.seed}, active={window}, jitter={self.jitter})"
