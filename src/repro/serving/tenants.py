"""Tenant identity, quotas, and namespace isolation.

A *tenant* is one paying user of the serving layer: it owns a weight (its
fair-queueing share) and a depth quota (how many of its requests may be
open at once).  Tenants are grouped into a handful of *profiles* (free /
standard / premium by default) so telemetry stays low-cardinality even
when the population is a million strong.

The registry is **lazy**: a million-tenant population costs nothing until
a request actually touches a tenant, and profile assignment is a stable
md5 hash of the tenant name — the same contract the retry-jitter code
uses — so two runs (or two head nodes) agree on every tenant's profile
without coordination.

Namespace isolation: every task a tenant's request submits is named
``<tenant_id>/<...>``, so lineage entries, cache keys and event-log lines
from different tenants can never collide or be confused for one another.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

__all__ = ["TenantProfile", "Tenant", "TenantRegistry", "DEFAULT_PROFILES"]


@dataclass(frozen=True)
class TenantProfile:
    """A service class shared by many tenants."""

    name: str
    weight: float  # weighted-fair-queueing share (bigger = more throughput)
    max_open: int  # per-tenant quota of open (offered, not finished) requests
    share: float  # fraction of the population in this class

    def __post_init__(self) -> None:
        if self.weight <= 0.0:
            raise ValueError(f"profile {self.name!r} needs a positive weight")
        if self.max_open < 1:
            raise ValueError(f"profile {self.name!r} needs max_open >= 1")
        if not 0.0 < self.share <= 1.0:
            raise ValueError(f"profile {self.name!r} share must be in (0, 1]")


# free tier dominates the population but not the capacity: premium tenants
# carry 16x the fair-queueing weight and a deeper quota
DEFAULT_PROFILES: Tuple[TenantProfile, ...] = (
    TenantProfile("free", weight=1.0, max_open=4, share=0.90),
    TenantProfile("standard", weight=4.0, max_open=8, share=0.09),
    TenantProfile("premium", weight=16.0, max_open=16, share=0.01),
)


@dataclass
class Tenant:
    """One materialized tenant (only tenants that receive traffic exist)."""

    tenant_id: str
    profile: TenantProfile
    open_requests: int = 0  # quota accounting (frontend-maintained)

    def qualify(self, name: str) -> str:
        """Namespace a task/object name under this tenant."""
        return f"{self.tenant_id}/{name}"


def _stable_fraction(key: str) -> float:
    """Deterministic [0, 1) hash — md5 for cross-platform stability (the
    same contract as ``supervision.backoff_jitter_fraction``)."""
    return int(hashlib.md5(key.encode()).hexdigest()[:8], 16) / 0x100000000


class TenantRegistry:
    """A lazily-materialized population of ``n_tenants`` tenants.

    ``tenant(i)`` mints (and memoizes) tenant ``i``'s identity on first
    touch; profile assignment hashes the tenant name against the profiles'
    cumulative population shares, so it is stable across runs and across
    head nodes without any shared state.
    """

    def __init__(
        self,
        n_tenants: int,
        profiles: Sequence[TenantProfile] = DEFAULT_PROFILES,
        namespace: str = "tenant",
    ):
        if n_tenants < 1:
            raise ValueError(f"need at least one tenant, got {n_tenants}")
        if not profiles:
            raise ValueError("need at least one tenant profile")
        total_share = sum(p.share for p in profiles)
        if abs(total_share - 1.0) > 1e-9:
            raise ValueError(f"profile shares sum to {total_share}, expected 1.0")
        self.n_tenants = n_tenants
        self.profiles = tuple(profiles)
        self.namespace = namespace
        self._materialized: Dict[int, Tenant] = {}

    def __len__(self) -> int:
        return self.n_tenants

    @property
    def touched(self) -> int:
        """How many tenants have actually been materialized."""
        return len(self._materialized)

    def profile_of(self, tenant_id: str) -> TenantProfile:
        """Stable hash-based profile assignment for a tenant name."""
        frac = _stable_fraction(tenant_id)
        cumulative = 0.0
        for profile in self.profiles:
            cumulative += profile.share
            if frac < cumulative:
                return profile
        return self.profiles[-1]  # float-sum slack lands in the last class

    def tenant(self, index: int) -> Tenant:
        if not 0 <= index < self.n_tenants:
            raise IndexError(f"tenant index {index} out of range 0..{self.n_tenants - 1}")
        cached = self._materialized.get(index)
        if cached is None:
            tenant_id = f"{self.namespace}{index:07d}"
            cached = Tenant(tenant_id, self.profile_of(tenant_id))
            self._materialized[index] = cached
        return cached
