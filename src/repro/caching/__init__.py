"""The caching layer: shared format, tiers, redundancy, distributed KV.

Paper §1: "a fast caching layer with a standard format is the bedrock of
our data plane."  This package provides that layer — the Arrow-like
columnar format, tiered memory (DRAM/HBM/disaggregated), replication and
Reed-Solomon erasure coding, and the location-transparent KV store
(:class:`CachingLayer`, Fig. 2 note (5)).
"""

from .columnar import (
    Field,
    RecordBatch,
    Schema,
    concat_batches,
    deserialize_columnar,
    deserialize_marshalled,
    serialize_columnar,
    serialize_marshalled,
)
from .kv import estimate_nbytes
from .replication import ErasureCode, ReplicationScheme, Shard
from .store import CacheNode, CachingLayer, ObjectLostError, default_transfer_time
from .tiers import (
    DEVICE_HBM_TIER,
    DISAGG_MEMORY_TIER,
    HOST_DRAM_TIER,
    EvictionPolicy,
    TieredCache,
    TierSpec,
    TierStats,
)

__all__ = [
    "Field",
    "Schema",
    "RecordBatch",
    "concat_batches",
    "serialize_columnar",
    "deserialize_columnar",
    "serialize_marshalled",
    "deserialize_marshalled",
    "estimate_nbytes",
    "ReplicationScheme",
    "ErasureCode",
    "Shard",
    "CacheNode",
    "CachingLayer",
    "ObjectLostError",
    "default_transfer_time",
    "TierSpec",
    "TieredCache",
    "TierStats",
    "EvictionPolicy",
    "HOST_DRAM_TIER",
    "DEVICE_HBM_TIER",
    "DISAGG_MEMORY_TIER",
]
