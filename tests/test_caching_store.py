"""Tests for the distributed caching layer (location-transparent KV)."""

from __future__ import annotations

import pytest

from repro.caching.kv import estimate_nbytes
from repro.caching.replication import ErasureCode, ReplicationScheme
from repro.caching.store import CacheNode, CachingLayer, ObjectLostError
from repro.caching.tiers import TieredCache, TierSpec


def make_layer(n=4, redundancy=None) -> CachingLayer:
    nodes = [
        CacheNode(f"n{i}", TieredCache([TierSpec("dram", 1 << 30, 1e10, 1e10, 1e-6)]))
        for i in range(n)
    ]
    return CachingLayer(nodes, redundancy=redundancy)


class TestSingleCopy:
    def test_put_get_round_trip(self):
        layer = make_layer()
        layer.put("k", {"v": 1})
        value, elapsed = layer.get("k")
        assert value == {"v": 1}
        assert elapsed >= 0

    def test_preferred_node_placement(self):
        layer = make_layer()
        layer.put("k", "v", preferred_node="n2")
        assert layer.locations("k") == ["n2"]

    def test_cross_node_read_costs_more(self):
        layer = make_layer()
        layer.put("k", b"x" * (1 << 20), nbytes=1 << 20, preferred_node="n0")
        _, local = layer.get("k", at_node="n0")
        _, remote = layer.get("k", at_node="n3")
        assert remote > local

    def test_lost_without_redundancy(self):
        layer = make_layer()
        layer.put("k", "v", preferred_node="n1")
        layer.fail_node("n1")
        with pytest.raises(ObjectLostError):
            layer.get("k")

    def test_migrate_moves_single_copy(self):
        layer = make_layer()
        layer.put("k", "v", preferred_node="n0")
        cost = layer.migrate("k", "n3")
        assert cost > 0
        assert layer.locations("k") == ["n3"]
        assert layer.get("k", at_node="n3")[0] == "v"

    def test_migrate_to_same_node_is_free(self):
        layer = make_layer()
        layer.put("k", "v", preferred_node="n0")
        assert layer.migrate("k", "n0") == 0.0

    def test_delete(self):
        layer = make_layer()
        layer.put("k", "v")
        assert layer.delete("k") is True
        assert layer.delete("k") is False
        assert not layer.contains("k")

    def test_overwrite(self):
        layer = make_layer()
        layer.put("k", "old")
        layer.put("k", "new")
        assert layer.get("k")[0] == "new"

    def test_keys_lists_what_is_stored(self):
        layer = make_layer()
        for k in "abc":
            layer.put(k, k)
        layer.put("a", "again")
        layer.delete("b")
        assert sorted(layer.keys()) == ["a", "c"]

    def test_size_defaults_to_the_estimate(self):
        layer = make_layer()
        value = {"k": b"1234", "v": [b"12", b"345"]}
        layer.put("k", value)
        assert layer.size_of("k") == estimate_nbytes(value)
        layer.put("k", value, nbytes=1000)
        assert layer.size_of("k") == 1000

    def test_storage_overhead_is_one(self):
        assert make_layer().storage_overhead() == 1.0


class TestReplicated:
    def test_survives_factor_minus_one_failures(self):
        layer = make_layer(4, redundancy=ReplicationScheme(3))
        layer.put("k", [1, 2, 3])
        locs = layer.locations("k")
        assert len(locs) == 3
        layer.fail_node(locs[0])
        layer.fail_node(locs[1])
        assert layer.get("k")[0] == [1, 2, 3]

    def test_all_replicas_lost_raises(self):
        layer = make_layer(3, redundancy=ReplicationScheme(2))
        layer.put("k", "v")
        for node in layer.locations("k"):
            layer.fail_node(node)
        with pytest.raises(ObjectLostError):
            layer.get("k")

    def test_storage_overhead(self):
        layer = make_layer(4, redundancy=ReplicationScheme(2))
        assert layer.storage_overhead() == 2.0


class TestErasureCoded:
    def test_survives_m_failures(self):
        layer = make_layer(6, redundancy=ErasureCode(4, 2))
        layer.put("k", {"big": list(range(100))})
        layer.fail_node("n0")
        layer.fail_node("n3")
        assert layer.get("k")[0] == {"big": list(range(100))}

    def test_overhead_below_replication(self):
        layer = make_layer(6, redundancy=ErasureCode(4, 2))
        assert layer.storage_overhead() == pytest.approx(1.5)
        assert layer.storage_overhead() < 2.0

    def test_fewer_nodes_than_shards_wraps(self):
        layer = make_layer(3, redundancy=ErasureCode(4, 2))
        layer.put("k", "v")
        assert layer.get("k")[0] == "v"

    def test_recover_node_comes_back_empty(self):
        layer = make_layer(4, redundancy=ReplicationScheme(2))
        layer.put("k", "v")
        victim = layer.locations("k")[0]
        layer.fail_node(victim)
        layer.recover_node(victim)
        assert victim not in layer.locations("k")
        assert layer.get("k")[0] == "v"  # other replica still serves


class TestValidation:
    def test_needs_nodes(self):
        with pytest.raises(ValueError):
            CachingLayer([])

    def test_duplicate_node_ids(self):
        with pytest.raises(ValueError):
            CachingLayer([CacheNode("a"), CacheNode("a")])

    def test_unknown_node(self):
        layer = make_layer()
        with pytest.raises(KeyError):
            layer.node("ghost")

    def test_unknown_key(self):
        layer = make_layer()
        with pytest.raises(KeyError):
            layer.get("ghost")
        with pytest.raises(KeyError):
            layer.locations("ghost")

    def test_migrate_redundant_object_rejected(self):
        layer = make_layer(4, redundancy=ReplicationScheme(2))
        layer.put("k", "v")
        with pytest.raises(ValueError, match="single-copy"):
            layer.migrate("k", "n0")

    def test_deleted_key_is_unknown(self):
        layer = make_layer(4, redundancy=ReplicationScheme(2))
        layer.put("k", "v")
        layer.delete("k")
        with pytest.raises(KeyError):
            layer.get("k")
        with pytest.raises(KeyError):
            layer.size_of("k")

    def test_size_of(self):
        layer = make_layer()
        layer.put("k", b"12345", nbytes=5)
        assert layer.size_of("k") == 5
