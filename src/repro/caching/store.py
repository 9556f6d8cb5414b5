"""The distributed caching layer: location-transparent KV over many nodes.

This is "the bedrock of our data plane" (§1): it stores states, external
storage's input/output, and ephemeral results exchanged by functions.  The
four benefits the paper lists map to concrete mechanisms here:

1. compute/state decoupling — the directory knows where every object is,
   so schedulers can move *vertices* to data (``locations``);
2. shared format — values are typically :class:`RecordBatch`es exchanged
   without marshalling (see :mod:`repro.caching.columnar`);
3. futures across system boundaries — the runtime stores task outputs here
   so a consumer system can start before the producer system finishes;
4. optional high availability — a redundancy scheme (replication or RS
   erasure coding) replaces lineage as the recovery story.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .kv import estimate_nbytes
from .replication import ErasureCode, Shard
from .tiers import TieredCache, TierSpec

__all__ = ["CacheNode", "CachingLayer", "ObjectLostError", "default_transfer_time"]


class ObjectLostError(KeyError):
    """The object is gone and the redundancy scheme cannot reconstruct it."""


def default_transfer_time(src: str, dst: str, nbytes: int) -> float:
    """Same node: free.  Cross node: 100 GbE-ish with 5 us latency."""
    if src == dst:
        return 0.0
    return 5e-6 + nbytes / (12.5 * (1 << 30))


@dataclass
class CacheNode:
    """One participant in the caching layer."""

    node_id: str
    cache: TieredCache = field(default_factory=TieredCache)
    alive: bool = True


@dataclass
class _DirectoryEntry:
    key: str
    nbytes: int
    scheme: Optional[object]  # ReplicationScheme | ErasureCode | None
    payload_len: int  # serialized length when sharded
    placements: List[Tuple[str, int]]  # (node_id, shard_index)


class CachingLayer:
    """Distributed KV with a location directory and optional redundancy.

    ``redundancy=None`` stores a single copy (recovery must come from
    lineage).  A :class:`ReplicationScheme` or :class:`ErasureCode` makes
    the layer reliable at a storage-overhead cost; experiment E5 charts
    exactly this trade-off.
    """

    def __init__(
        self,
        nodes: Sequence[CacheNode],
        redundancy: Optional[object] = None,
        transfer_time: Callable[[str, str, int], float] = default_transfer_time,
    ):
        if not nodes:
            raise ValueError("caching layer needs at least one node")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate cache node ids: {ids}")
        self._nodes: Dict[str, CacheNode] = {n.node_id: n for n in nodes}
        self.redundancy = redundancy
        self.transfer_time = transfer_time
        self._directory: Dict[str, _DirectoryEntry] = {}
        self._rr = 0  # round-robin cursor for placement

    # -- helpers -------------------------------------------------------------

    @property
    def node_ids(self) -> List[str]:
        return list(self._nodes.keys())

    def node(self, node_id: str) -> CacheNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown cache node {node_id!r}") from None

    def _alive_nodes(self) -> List[CacheNode]:
        return [n for n in self._nodes.values() if n.alive]

    def _placement_order(self, preferred: Optional[str]) -> List[str]:
        """Preferred node first, then round-robin over the rest."""
        alive = [n.node_id for n in self._alive_nodes()]
        if not alive:
            raise RuntimeError("no alive cache nodes")
        order: List[str] = []
        if preferred in alive:
            order.append(preferred)
        rest = [nid for nid in alive if nid not in order]
        rest = rest[self._rr % max(len(rest), 1) :] + rest[: self._rr % max(len(rest), 1)]
        self._rr += 1
        return order + rest

    # -- KV API ----------------------------------------------------------------

    def put(
        self,
        key: str,
        value: Any,
        nbytes: Optional[int] = None,
        preferred_node: Optional[str] = None,
    ) -> float:
        """Store ``value``; returns modeled seconds (writes + redundancy)."""
        nbytes = nbytes if nbytes is not None else estimate_nbytes(value)
        if key in self._directory:
            self.delete(key)
        order = self._placement_order(preferred_node)
        elapsed = 0.0

        if self.redundancy is None:
            nid = order[0]
            elapsed += self._nodes[nid].cache.put(key, value, nbytes)
            entry = _DirectoryEntry(key, nbytes, None, 0, [(nid, 0)])
        else:
            payload = pickle.dumps(value)
            shards = self.redundancy.encode(payload)
            if len(order) < len(shards):
                # fewer nodes than shards: wrap around (reduced failure
                # independence, but the object stays addressable)
                order = (order * ((len(shards) // len(order)) + 1))[: len(shards)]
            placements = []
            for shard, nid in zip(shards, order, strict=False):
                shard_key = f"{key}#shard{shard.index}"
                src = order[0]
                elapsed += self.transfer_time(src, nid, len(shard.payload))
                elapsed += self._nodes[nid].cache.put(shard_key, shard, len(shard.payload))
                placements.append((nid, shard.index))
            entry = _DirectoryEntry(key, nbytes, self.redundancy, len(payload), placements)
        self._directory[key] = entry
        return elapsed

    def get(self, key: str, at_node: Optional[str] = None) -> Tuple[Any, float]:
        """Fetch from the nearest live replica; returns (value, seconds)."""
        entry = self._entry(key)
        reader = at_node or self.node_ids[0]
        if entry.scheme is None:
            nid, _ = entry.placements[0]
            node = self._nodes[nid]
            if not node.alive or not node.cache.contains(key):
                raise ObjectLostError(
                    f"object {key!r} lost (node {nid} down) and no redundancy configured"
                )
            value, t = node.cache.get(key)
            return value, t + self.transfer_time(nid, reader, entry.nbytes)

        # gather surviving shards, nearest-first
        alive_placements = [
            (nid, idx)
            for nid, idx in entry.placements
            if self._nodes[nid].alive
            and self._nodes[nid].cache.contains(f"{key}#shard{idx}")
        ]
        alive_placements.sort(key=lambda p: self.transfer_time(p[0], reader, 1))
        total_shards = len(entry.placements)
        shards: List[Optional[Shard]] = [None] * total_shards
        elapsed = 0.0
        needed = (
            entry.scheme.k if isinstance(entry.scheme, ErasureCode) else 1
        )
        got = 0
        for nid, idx in alive_placements:
            if got >= needed:
                break
            shard, t = self._nodes[nid].cache.get(f"{key}#shard{idx}")
            elapsed += t + self.transfer_time(nid, reader, len(shard.payload))
            shards[idx] = shard
            got += 1
        try:
            payload = entry.scheme.decode(shards, entry.payload_len)
        except ValueError as exc:
            raise ObjectLostError(f"object {key!r} unrecoverable: {exc}") from exc
        return pickle.loads(payload), elapsed

    def delete(self, key: str) -> bool:
        entry = self._directory.pop(key, None)
        if entry is None:
            return False
        if entry.scheme is None:
            for nid, _ in entry.placements:
                self._nodes[nid].cache.delete(key)
        else:
            for nid, idx in entry.placements:
                self._nodes[nid].cache.delete(f"{key}#shard{idx}")
        return True

    def contains(self, key: str) -> bool:
        return key in self._directory

    def keys(self) -> List[str]:
        return list(self._directory.keys())

    # -- location / failure (runtime-facing, not user-facing) -------------------

    def _entry(self, key: str) -> _DirectoryEntry:
        entry = self._directory.get(key)
        if entry is None:
            raise KeyError(f"object {key!r} not in caching layer")
        return entry

    def locations(self, key: str) -> List[str]:
        """Node ids currently holding (a shard of) the object."""
        entry = self._entry(key)
        out = set()
        for nid, idx in entry.placements:
            node = self._nodes[nid]
            if not node.alive:
                continue
            stored_key = key if entry.scheme is None else f"{key}#shard{idx}"
            if node.cache.contains(stored_key):
                out.add(nid)
        return sorted(out)

    def size_of(self, key: str) -> int:
        return self._entry(key).nbytes

    def migrate(self, key: str, to_node: str) -> float:
        """Move a single-copy object to another node (compute follows data
        in one direction; data can follow compute in the other)."""
        entry = self._entry(key)
        if entry.scheme is not None:
            raise ValueError("migrate() applies to single-copy objects only")
        src_nid, _ = entry.placements[0]
        if src_nid == to_node:
            return 0.0
        value, t_read = self._nodes[src_nid].cache.get(key)
        t_move = self.transfer_time(src_nid, to_node, entry.nbytes)
        self._nodes[src_nid].cache.delete(key)
        t_write = self._nodes[to_node].cache.put(key, value, entry.nbytes)
        entry.placements = [(to_node, 0)]
        return t_read + t_move + t_write

    def fail_node(self, node_id: str) -> None:
        self.node(node_id).alive = False

    def recover_node(self, node_id: str) -> None:
        """Bring a node back empty (its memory contents are gone)."""
        node = self.node(node_id)
        node.alive = True
        node.cache = TieredCache(
            [t for t in _tier_specs(node.cache)], policy=node.cache.policy
        )

    def storage_overhead(self) -> float:
        if self.redundancy is None:
            return 1.0
        return self.redundancy.storage_overhead


def _tier_specs(cache: TieredCache) -> List[TierSpec]:
    return [t.spec for t in cache._tiers]
