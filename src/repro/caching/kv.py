"""Object-size accounting for the caching layer's KV API.

Figure 2, note (5): "The caching layer exposes KV APIs... Users of it only
see KV APIs."  That API is :class:`repro.caching.store.CachingLayer`
(``put/get/delete/contains/locations``); tiering, replication and
location stay behind it.  This module keeps the one helper every writer
shares: the size a value is charged when the caller gives none.
"""

from __future__ import annotations

from typing import Any

__all__ = ["estimate_nbytes"]


def estimate_nbytes(value: Any) -> int:
    """Best-effort object size for accounting when the caller gives none."""
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, (list, tuple)):
        return 16 + sum(estimate_nbytes(v) for v in value)
    if isinstance(value, dict):
        return 16 + sum(
            estimate_nbytes(k) + estimate_nbytes(v) for k, v in value.items()
        )
    return 32  # scalars, small objects
