"""Skadi: a distributed runtime for data systems in disaggregated data
centers — a from-scratch reproduction of the HotOS '23 paper.

Layers (bottom-up):

* :mod:`repro.cluster`  — simulated disaggregated data center (DES).
* :mod:`repro.caching`  — shared columnar format, tiers, replication/EC, KV.
* :mod:`repro.runtime`  — stateful serverless runtime (mini-Ray): tasks,
  actors, futures, ownership, raylets, pull/push resolution, lineage.
* :mod:`repro.ir`       — multi-level IR (MLIR substitute) with fusion and
  multi-backend lowering.
* :mod:`repro.flowgraph`— logical FlowGraph and physical sharded graph.
* :mod:`repro.frontends`— SQL, dataframe, graph, streaming, ML tiers.
* :mod:`repro.telemetry`— metrics plane, causal span tracing, critical path.
* :mod:`repro.core`     — the Skadi facade.

Quick start::

    from repro import Skadi
    from repro.caching import RecordBatch

    skadi = Skadi()
    orders = RecordBatch.from_pydict({"k": [1, 2, 1], "x": [1.0, 2.0, 3.0]})
    out = skadi.sql("SELECT k, SUM(x) AS s FROM orders GROUP BY k ORDER BY k",
                    {"orders": orders})
"""

from .caching import RecordBatch, Schema
from .cluster import (
    build_logical_disagg,
    build_physical_disagg,
    build_serverful,
    build_tightly_coupled,
)
from .core import QueryReport, Skadi
from .frontends.dataframe import DataFrame, from_batch, from_table
from .ir import col, lit
from .runtime import (
    Generation,
    ObjectRef,
    ResolutionMode,
    RuntimeConfig,
    SchedulingPolicy,
    ServerlessRuntime,
)

__version__ = "0.1.0"

__all__ = [
    "Skadi",
    "QueryReport",
    "RecordBatch",
    "Schema",
    "DataFrame",
    "from_table",
    "from_batch",
    "col",
    "lit",
    "ServerlessRuntime",
    "RuntimeConfig",
    "Generation",
    "ResolutionMode",
    "SchedulingPolicy",
    "ObjectRef",
    "build_serverful",
    "build_logical_disagg",
    "build_physical_disagg",
    "build_tightly_coupled",
    "__version__",
]
