"""Redundancy schemes for the reliable caching layer.

The paper (§2.1) offers two recovery designs: lineage re-execution and "a
reliable caching layer with data replication or EC".  This module provides
the storage-side mechanisms: full replication and a real Reed-Solomon
(k data + m parity) code over GF(256), both with explicit storage-overhead
accounting so experiment E5 can chart the trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .gf256 import gf_inv, gf_mat_inv, gf_matmul

__all__ = ["ReplicationScheme", "ErasureCode", "Shard"]


@dataclass(frozen=True)
class Shard:
    """One stored fragment of an object."""

    index: int
    payload: bytes
    is_parity: bool


class ReplicationScheme:
    """N-way full replication."""

    def __init__(self, factor: int = 2):
        if factor < 1:
            raise ValueError(f"replication factor must be >= 1, got {factor}")
        self.factor = factor

    @property
    def storage_overhead(self) -> float:
        """Stored bytes per logical byte."""
        return float(self.factor)

    def encode(self, data: bytes) -> List[Shard]:
        return [Shard(index=i, payload=data, is_parity=False) for i in range(self.factor)]

    def decode(self, shards: Sequence[Optional[Shard]], original_len: int) -> bytes:
        for shard in shards:
            if shard is not None:
                if len(shard.payload) != original_len:
                    raise ValueError("replica length mismatch")
                return shard.payload
        raise ValueError("all replicas lost; object unrecoverable")

    def tolerates(self) -> int:
        """Number of shard losses survivable."""
        return self.factor - 1


class ErasureCode:
    """Systematic Reed-Solomon RS(k, m): k data shards + m parity shards.

    Encoding splits the object into k equal stripes; parity rows come from a
    Vandermonde matrix, so any k of the k+m shards reconstruct the object.
    """

    def __init__(self, data_shards: int = 4, parity_shards: int = 2):
        if data_shards < 1 or parity_shards < 0:
            raise ValueError(f"invalid RS({data_shards},{parity_shards})")
        if data_shards + parity_shards > 255:
            raise ValueError("RS over GF(256) supports at most 255 shards")
        self.k = data_shards
        self.m = parity_shards
        # Cauchy parity matrix: parity[i][j] = 1/(x_i ^ y_j) with disjoint
        # x/y sets.  Stacked under the identity this is MDS: any k of the
        # k+m rows form an invertible matrix (unlike naive Vandermonde).
        self._parity_matrix = np.array(
            [
                [int(gf_inv(np.uint8((self.k + i) ^ j))) for j in range(self.k)]
                for i in range(self.m)
            ],
            dtype=np.uint8,
        )

    @property
    def storage_overhead(self) -> float:
        return (self.k + self.m) / self.k

    def tolerates(self) -> int:
        return self.m

    def _stripe(self, data: bytes) -> np.ndarray:
        """Pad to a multiple of k and reshape to (k, stripe_len)."""
        stripe_len = (len(data) + self.k - 1) // self.k
        padded = np.zeros(self.k * max(stripe_len, 1), dtype=np.uint8)
        padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        return padded.reshape(self.k, -1)

    def encode(self, data: bytes) -> List[Shard]:
        stripes = self._stripe(data)
        shards = [
            Shard(index=i, payload=stripes[i].tobytes(), is_parity=False)
            for i in range(self.k)
        ]
        if self.m:
            parity = gf_matmul(self._parity_matrix, stripes)
            shards.extend(
                Shard(index=self.k + i, payload=parity[i].tobytes(), is_parity=True)
                for i in range(self.m)
            )
        return shards

    def _row_for_shard(self, index: int) -> np.ndarray:
        if index < self.k:
            row = np.zeros(self.k, dtype=np.uint8)
            row[index] = 1
            return row
        return self._parity_matrix[index - self.k]

    def decode(self, shards: Sequence[Optional[Shard]], original_len: int) -> bytes:
        """Reconstruct from any >= k surviving shards (None = lost)."""
        surviving = [s for s in shards if s is not None]
        if len(surviving) < self.k:
            raise ValueError(
                f"only {len(surviving)} shards survive; RS({self.k},{self.m}) needs {self.k}"
            )
        chosen = surviving[: self.k]
        matrix = np.stack([self._row_for_shard(s.index) for s in chosen])
        rows = np.stack(
            [np.frombuffer(s.payload, dtype=np.uint8) for s in chosen]
        )
        inverse = gf_mat_inv(matrix)
        stripes = gf_matmul(inverse, rows)
        return stripes.reshape(-1).tobytes()[:original_len]
