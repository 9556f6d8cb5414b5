"""Interconnect topology: endpoints, links, and shortest-path routing.

Endpoints are string ids (node ids, device ids, or switch ids).  Links are
directional pairs with a propagation latency and a serialization bandwidth.
Routing is static shortest-path by latency, precomputed lazily with
Dijkstra and cached; the network layer then charges per-link serialization
and contention along the route.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .hardware import GB, USEC

__all__ = ["LinkSpec", "Topology", "PCIE_LINK", "NIC_LINK", "FABRIC_LINK", "TIGHT_LINK", "ONCHIP_LINK"]


@dataclass(frozen=True)
class LinkSpec:
    """Latency/bandwidth pair for one hop."""

    latency: float  # seconds, propagation + per-message fixed cost
    bandwidth: float  # bytes/sec

    def transfer_time(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        return self.latency + nbytes / self.bandwidth


# Link catalog (loosely calibrated; shape, not silicon).
ONCHIP_LINK = LinkSpec(latency=0.2 * USEC, bandwidth=400 * GB)  # within a device/card
PCIE_LINK = LinkSpec(latency=1 * USEC, bandwidth=32 * GB)  # host <-> local device
NIC_LINK = LinkSpec(latency=5 * USEC, bandwidth=12.5 * GB)  # node <-> ToR (100 GbE)
FABRIC_LINK = LinkSpec(latency=3 * USEC, bandwidth=25 * GB)  # disaggregation fabric
TIGHT_LINK = LinkSpec(latency=0.5 * USEC, bandwidth=300 * GB)  # tightly-coupled cluster


class Topology:
    """An undirected weighted multigraph of endpoints with cached routing."""

    def __init__(self) -> None:
        self._adj: Dict[str, Dict[str, LinkSpec]] = {}
        self._route_cache: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
        self._min_latency: Optional[float] = None  # reset with the route cache
        self._degraded: Dict[Tuple[str, str], float] = {}

    # -- construction ------------------------------------------------------

    def add_endpoint(self, endpoint: str) -> None:
        self._adj.setdefault(endpoint, {})

    def add_link(self, a: str, b: str, spec: LinkSpec) -> None:
        """Add (or replace) the bidirectional link between ``a`` and ``b``."""
        if a == b:
            raise ValueError(f"self-link at {a!r}")
        self.add_endpoint(a)
        self.add_endpoint(b)
        self._adj[a][b] = spec
        self._adj[b][a] = spec
        self._route_cache.clear()
        self._min_latency = None

    def link(self, a: str, b: str) -> LinkSpec:
        try:
            return self._adj[a][b]
        except KeyError:
            raise KeyError(f"no link {a!r} -> {b!r}") from None

    # -- fault injection hooks ----------------------------------------------

    def degrade_link(self, a: str, b: str, factor: float) -> None:
        """Slow the ``a<->b`` link by ``factor`` (>= 1.0).

        Degradation multiplies serialization and propagation time charged by
        the network layer; routing still uses the healthy latencies (real
        routing tables do not react instantly to a flaky cable either).

        This sets up a topology before traffic runs over it.  At run time
        call :meth:`Network.degrade_link` instead: it also re-rates the
        flows already on the link, which this leaves at their old rates.
        """
        if factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1.0, got {factor}")
        self.link(a, b)  # raises KeyError for unknown links
        key = tuple(sorted((a, b)))
        if factor == 1.0:
            self._degraded.pop(key, None)
        else:
            self._degraded[key] = factor

    def restore_link(self, a: str, b: str) -> None:
        """Undo :meth:`degrade_link` (at run time: :meth:`Network.restore_link`)."""
        self._degraded.pop(tuple(sorted((a, b))), None)

    def degradation(self, a: str, b: str) -> float:
        """Current slowdown factor for one hop (1.0 = healthy)."""
        if not self._degraded:  # the common case: skip the sort+tuple build
            return 1.0
        return self._degraded.get(tuple(sorted((a, b))), 1.0)

    # -- routing -----------------------------------------------------------

    def route(self, src: str, dst: str) -> List[Tuple[str, str]]:
        """Shortest-latency path as a list of (hop_src, hop_dst) pairs."""
        if src not in self._adj:
            raise KeyError(f"unknown endpoint {src!r}")
        if dst not in self._adj:
            raise KeyError(f"unknown endpoint {dst!r}")
        if src == dst:
            return []
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached

        # Dijkstra by latency with deterministic tie-breaking on endpoint id.
        dist: Dict[str, float] = {src: 0.0}
        prev: Dict[str, str] = {}
        heap: List[Tuple[float, str]] = [(0.0, src)]
        visited: set[str] = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in visited:
                continue
            visited.add(u)
            if u == dst:
                break
            for v in sorted(self._adj[u]):
                if v in visited:
                    continue
                nd = d + self._adj[u][v].latency
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        if dst not in dist:
            raise KeyError(f"no path {src!r} -> {dst!r}")

        hops: List[Tuple[str, str]] = []
        cur = dst
        while cur != src:
            hops.append((prev[cur], cur))
            cur = prev[cur]
        hops.reverse()
        self._route_cache[key] = hops
        return hops

    def min_link_latency(self) -> float:
        """The smallest healthy hop latency in the topology.  A route of at
        least one hop takes at least this long to cross, whatever its size
        or backlog: degradation only multiplies a hop's latency by a factor
        >= 1.0."""
        if self._min_latency is None:
            self._min_latency = min(
                (spec.latency for links in self._adj.values() for spec in links.values()),
                default=0.0,
            )
        return self._min_latency

    def path_latency(self, src: str, dst: str) -> float:
        return sum(self.link(a, b).latency for a, b in self.route(src, dst))

    def bottleneck_bandwidth(self, src: str, dst: str) -> float:
        hops = self.route(src, dst)
        if not hops:
            return float("inf")
        return min(self.link(a, b).bandwidth for a, b in hops)

    def hop_count(self, src: str, dst: str) -> int:
        return len(self.route(src, dst))
