"""Tests for object-size accounting and tiered memory caching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.caching.kv import estimate_nbytes
from repro.caching.tiers import (
    DEVICE_HBM_TIER,
    DISAGG_MEMORY_TIER,
    HOST_DRAM_TIER,
    EvictionPolicy,
    TieredCache,
    TierSpec,
)


def two_tier(fast_cap=100, slow_cap=1000, **kwargs) -> TieredCache:
    return TieredCache(
        [
            TierSpec("fast", fast_cap, 1e9, 1e9, 1e-6),
            TierSpec("slow", slow_cap, 1e8, 1e8, 1e-5),
        ],
        **kwargs,
    )


class TestEstimateNbytes:
    def test_numpy_uses_real_nbytes(self):
        assert estimate_nbytes(np.zeros(100)) == 800

    def test_bytes_and_str(self):
        assert estimate_nbytes(b"12345") == 5
        assert estimate_nbytes("hello") == 5

    def test_containers_recursive(self):
        assert estimate_nbytes([b"12", b"34"]) == 16 + 4
        assert estimate_nbytes({"k": b"1234"}) > 4

    def test_scalar_fallback(self):
        assert estimate_nbytes(3.14) == 32

    def test_buffers_count_their_length(self):
        assert estimate_nbytes(bytearray(7)) == 7
        assert estimate_nbytes(memoryview(b"abc")) == 3

    def test_dict_keys_are_charged(self):
        assert estimate_nbytes({"ab": b"1234"}) == 16 + 2 + 4
        assert estimate_nbytes(("ab", {})) == 16 + 2 + 16

    def test_tier_put_without_size_charges_the_estimate(self):
        cache = two_tier()
        cache.put("a", b"x" * 40)
        assert cache.used_bytes("fast") == 40


class TestTieredCachePlacement:
    def test_put_lands_in_fastest_tier(self):
        cache = two_tier()
        cache.put("a", b"x", 50)
        assert cache.tier_of("a") == "fast"

    def test_overflow_demotes_coldest(self):
        cache = two_tier()
        cache.put("a", b"x", 60)
        cache.put("b", b"y", 60)  # 'a' must demote
        assert cache.tier_of("a") == "slow"
        assert cache.tier_of("b") == "fast"
        assert cache.stats["fast"].demotions == 1

    def test_lru_victim_selection(self):
        cache = two_tier(fast_cap=120)
        cache.put("a", b"x", 60)
        cache.put("b", b"y", 60)
        cache.get("a")  # touch a; b becomes coldest
        cache.put("c", b"z", 60)
        assert cache.tier_of("b") == "slow"
        assert cache.tier_of("a") == "fast"

    def test_largest_first_policy(self):
        cache = two_tier(fast_cap=120, policy=EvictionPolicy.LARGEST_FIRST)
        cache.put("small", b"x", 20)
        cache.put("big", b"y", 90)
        cache.put("new", b"z", 60)
        assert cache.tier_of("big") == "slow"
        assert cache.tier_of("small") == "fast"

    def test_object_too_big_for_any_tier(self):
        cache = two_tier()
        with pytest.raises(ValueError, match="exceeds every tier"):
            cache.put("huge", b"", 10_000)

    def test_big_object_skips_small_tier(self):
        cache = two_tier(fast_cap=10, slow_cap=1000)
        cache.put("mid", b"x", 500)
        assert cache.tier_of("mid") == "slow"

    def test_bottom_tier_overflow_drops(self):
        cache = two_tier(fast_cap=100, slow_cap=100)
        cache.put("a", b"a", 80)
        cache.put("b", b"b", 80)  # a -> slow
        cache.put("c", b"c", 80)  # b -> slow, a dropped
        assert cache.dropped == 1
        assert not cache.contains("a")


class TestTieredCacheAccess:
    def test_get_returns_value_and_time(self):
        cache = two_tier()
        cache.put("a", {"v": 1}, 10)
        value, elapsed = cache.get("a")
        assert value == {"v": 1}
        assert elapsed > 0

    def test_lower_tier_access_is_slower(self):
        cache = two_tier(promote_on_hit=False)
        cache.put("cold", b"x", 60)
        cache.put("hot", b"y", 60)  # cold demoted to slow
        _, t_cold = cache.get("cold")
        _, t_hot = cache.get("hot")
        assert t_cold > t_hot

    def test_promotion_on_hit(self):
        cache = two_tier(fast_cap=100)
        cache.put("a", b"x", 60)
        cache.put("b", b"y", 60)  # a -> slow
        cache.delete("b")
        cache.get("a")  # room now: promote
        assert cache.tier_of("a") == "fast"
        assert cache.stats["fast"].promotions == 1

    def test_missing_key_raises(self):
        cache = two_tier()
        with pytest.raises(KeyError):
            cache.get("ghost")
        with pytest.raises(KeyError):
            cache.tier_of("ghost")

    def test_delete_frees_space(self):
        cache = two_tier()
        cache.put("a", b"x", 60)
        assert cache.used_bytes("fast") == 60
        cache.delete("a")
        assert cache.used_bytes() == 0
        assert cache.delete("a") == 0.0  # idempotent

    def test_overwrite_replaces(self):
        cache = two_tier()
        cache.put("a", b"old", 10)
        cache.put("a", b"new", 20)
        assert cache.get("a")[0] == b"new"
        assert cache.used_bytes() == 20

    def test_default_tier_stack(self):
        cache = TieredCache()
        assert cache.tier_names == ["device-hbm", "host-dram", "disagg-memory"]

    def test_duplicate_tier_names_rejected(self):
        with pytest.raises(ValueError):
            TieredCache([HOST_DRAM_TIER, HOST_DRAM_TIER])

    def test_tier_spec_times(self):
        assert DEVICE_HBM_TIER.read_time(0) < HOST_DRAM_TIER.read_time(0)
        assert HOST_DRAM_TIER.read_time(1 << 30) < DISAGG_MEMORY_TIER.read_time(1 << 30)
