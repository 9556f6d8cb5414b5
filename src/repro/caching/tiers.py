"""Memory tiers: host DRAM, device HBM, disaggregated memory.

Figure 2, note (5): the caching layer manages "host DRAM, HBM in
heterogeneous devices, and disaggregated memory" behind one KV API, and is
"responsible for managing data locations, replication, tiering policies".

:class:`TieredCache` keeps hot objects in fast tiers and transparently
demotes cold ones down the hierarchy when space runs out.  Every operation
returns the modeled time it cost, so experiment E9 can compare tiering
policies analytically without running the DES.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..cluster.hardware import GB, USEC
from .kv import estimate_nbytes

__all__ = [
    "TierSpec",
    "EvictionPolicy",
    "TieredCache",
    "TierStats",
    "HOST_DRAM_TIER",
    "DEVICE_HBM_TIER",
    "DISAGG_MEMORY_TIER",
]


@dataclass(frozen=True)
class TierSpec:
    """One level of the memory hierarchy."""

    name: str
    capacity_bytes: int
    read_bandwidth: float  # bytes/sec
    write_bandwidth: float  # bytes/sec
    latency: float  # seconds per access

    def read_time(self, nbytes: int) -> float:
        return self.latency + nbytes / self.read_bandwidth

    def write_time(self, nbytes: int) -> float:
        return self.latency + nbytes / self.write_bandwidth


DEVICE_HBM_TIER = TierSpec(
    name="device-hbm",
    capacity_bytes=16 * GB,
    read_bandwidth=1500 * GB,
    write_bandwidth=1500 * GB,
    latency=0.5 * USEC,
)

HOST_DRAM_TIER = TierSpec(
    name="host-dram",
    capacity_bytes=64 * GB,
    read_bandwidth=25 * GB,
    write_bandwidth=25 * GB,
    latency=1 * USEC,
)

DISAGG_MEMORY_TIER = TierSpec(
    name="disagg-memory",
    capacity_bytes=512 * GB,
    read_bandwidth=12 * GB,
    write_bandwidth=12 * GB,
    latency=8 * USEC,
)


class EvictionPolicy(enum.Enum):
    LRU = "lru"
    FIFO = "fifo"
    LARGEST_FIRST = "largest_first"


@dataclass
class TierStats:
    hits: int = 0
    misses_to_lower: int = 0  # served from a lower (slower) tier
    demotions: int = 0
    promotions: int = 0
    evict_failures: int = 0
    time_spent: float = 0.0


class _TierState:
    """Mutable occupancy for one tier (insertion-ordered for LRU/FIFO)."""

    def __init__(self, spec: TierSpec):
        self.spec = spec
        self.entries: "OrderedDict[str, int]" = OrderedDict()  # key -> nbytes
        self.used = 0

    def fits(self, nbytes: int) -> bool:
        return self.used + nbytes <= self.spec.capacity_bytes

    def add(self, key: str, nbytes: int) -> None:
        if key in self.entries:
            raise KeyError(f"{key!r} already in tier {self.spec.name}")
        self.entries[key] = nbytes
        self.used += nbytes

    def remove(self, key: str) -> int:
        nbytes = self.entries.pop(key)
        self.used -= nbytes
        return nbytes

    def touch(self, key: str) -> None:
        self.entries.move_to_end(key)


class TieredCache:
    """A KV cache spanning an ordered list of tiers (fastest first).

    ``put``/``get`` return ``(value_or_None, modeled_seconds)`` so callers
    can account virtual time.  Objects land in the fastest tier with room;
    when nothing fits, victims are demoted down the hierarchy; if even the
    last tier is full the coldest data is dropped (it is a *cache*).
    """

    def __init__(
        self,
        tiers: Optional[List[TierSpec]] = None,
        policy: EvictionPolicy = EvictionPolicy.LRU,
        promote_on_hit: bool = True,
    ):
        specs = tiers or [DEVICE_HBM_TIER, HOST_DRAM_TIER, DISAGG_MEMORY_TIER]
        if not specs:
            raise ValueError("need at least one tier")
        names = [t.name for t in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names: {names}")
        self.policy = policy
        self.promote_on_hit = promote_on_hit
        self._tiers = [_TierState(spec) for spec in specs]
        self._values: Dict[str, Any] = {}
        self._tier_of: Dict[str, int] = {}
        self.stats: Dict[str, TierStats] = {t.name: TierStats() for t in specs}
        self.dropped = 0

    # -- internals ----------------------------------------------------------

    def _victim(self, tier: _TierState) -> str:
        if not tier.entries:
            raise LookupError(f"tier {tier.spec.name} empty, nothing to evict")
        if self.policy in (EvictionPolicy.LRU, EvictionPolicy.FIFO):
            # entries are insertion/recency ordered; head is the victim
            return next(iter(tier.entries))
        # LARGEST_FIRST
        return max(tier.entries.items(), key=lambda kv: kv[1])[0]

    def _make_room(self, tier_idx: int, nbytes: int) -> float:
        """Demote/drop until ``nbytes`` fits in tier ``tier_idx``."""
        tier = self._tiers[tier_idx]
        if nbytes > tier.spec.capacity_bytes:
            raise ValueError(
                f"object of {nbytes}B can never fit tier {tier.spec.name} "
                f"({tier.spec.capacity_bytes}B)"
            )
        elapsed = 0.0
        while not tier.fits(nbytes):
            victim = self._victim(tier)
            vbytes = tier.remove(victim)
            elapsed += tier.spec.read_time(vbytes)
            if tier_idx + 1 < len(self._tiers):
                elapsed += self._place(victim, vbytes, tier_idx + 1)
                self.stats[tier.spec.name].demotions += 1
            else:
                # fell off the bottom of the hierarchy
                del self._values[victim]
                del self._tier_of[victim]
                self.dropped += 1
                self.stats[tier.spec.name].evict_failures += 1
        return elapsed

    def _place(self, key: str, nbytes: int, tier_idx: int) -> float:
        tier = self._tiers[tier_idx]
        elapsed = self._make_room(tier_idx, nbytes)
        tier.add(key, nbytes)
        self._tier_of[key] = tier_idx
        elapsed += tier.spec.write_time(nbytes)
        self.stats[tier.spec.name].time_spent += elapsed
        return elapsed

    # -- KV API --------------------------------------------------------------

    def put(self, key: str, value: Any, nbytes: Optional[int] = None) -> float:
        """Store; returns modeled seconds."""
        nbytes = nbytes if nbytes is not None else estimate_nbytes(value)
        elapsed = 0.0
        if key in self._values:
            elapsed += self.delete(key)
        self._values[key] = value
        # fastest tier the object can ever fit
        for idx, tier in enumerate(self._tiers):
            if nbytes <= tier.spec.capacity_bytes:
                elapsed += self._place(key, nbytes, idx)
                return elapsed
        del self._values[key]
        raise ValueError(f"object of {nbytes}B exceeds every tier's capacity")

    def get(self, key: str) -> Tuple[Any, float]:
        """Fetch; returns ``(value, modeled_seconds)``."""
        if key not in self._values:
            raise KeyError(f"object {key!r} not in cache")
        tier_idx = self._tier_of[key]
        tier = self._tiers[tier_idx]
        nbytes = tier.entries[key]
        elapsed = tier.spec.read_time(nbytes)
        stats = self.stats[tier.spec.name]
        if tier_idx == 0:
            stats.hits += 1
        else:
            stats.misses_to_lower += 1
        if self.policy == EvictionPolicy.LRU:
            tier.touch(key)
        if self.promote_on_hit and tier_idx > 0:
            # promote one level up, demoting the upper tier's coldest entry
            # to make room (classic promotion caching: hot keys converge to
            # the fast tier under a skewed access stream)
            upper = self._tiers[tier_idx - 1]
            if nbytes <= upper.spec.capacity_bytes:
                tier.remove(key)
                del self._tier_of[key]
                elapsed += self._place(key, nbytes, tier_idx - 1)
                self.stats[upper.spec.name].promotions += 1
        stats.time_spent += elapsed
        return self._values[key], elapsed

    def delete(self, key: str) -> float:
        if key not in self._values:
            return 0.0
        tier_idx = self._tier_of.pop(key)
        self._tiers[tier_idx].remove(key)
        del self._values[key]
        return self._tiers[tier_idx].spec.latency

    def contains(self, key: str) -> bool:
        return key in self._values

    def tier_of(self, key: str) -> str:
        if key not in self._tier_of:
            raise KeyError(f"object {key!r} not in cache")
        return self._tiers[self._tier_of[key]].spec.name

    def used_bytes(self, tier_name: Optional[str] = None) -> int:
        if tier_name is None:
            return sum(t.used for t in self._tiers)
        for tier in self._tiers:
            if tier.spec.name == tier_name:
                return tier.used
        raise KeyError(f"no tier {tier_name!r}")

    @property
    def tier_names(self) -> List[str]:
        return [t.spec.name for t in self._tiers]
