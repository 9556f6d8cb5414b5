"""Benchmark harness: workload generators, result tables, Table 1 data."""

from .harness import ResultTable, fmt_bytes, fmt_seconds
from .related_work import RELATED_WORK, SystemRow, render_table1, skadi_unique_claim
from .workloads import (
    bursty_trace,
    customers_table,
    lineitem_like_table,
    orders_table,
    poisson_trace,
)

__all__ = [
    "ResultTable",
    "fmt_seconds",
    "fmt_bytes",
    "RELATED_WORK",
    "SystemRow",
    "render_table1",
    "skadi_unique_claim",
    "orders_table",
    "customers_table",
    "lineitem_like_table",
    "bursty_trace",
    "poisson_trace",
]
