"""Per-run telemetry summary tables (reuses the bench ResultTable look).

``TelemetryReport`` renders a runtime's metrics plane — task counts and
latency quantiles, object-store traffic, per-link fabric utilization,
incident counts — and optionally a critical-path attribution table, in
the same fixed-column style the paper-table benchmarks print.
"""

from __future__ import annotations

from typing import List, Optional

# import the module, not the package: repro.bench.__init__ pulls in
# workload builders that sit above this layer
from ..bench.harness import ResultTable, fmt_bytes, fmt_seconds
from .critical_path import ATTRIBUTION_BUCKETS, CriticalPathResult
from .metrics import MetricsRegistry

__all__ = ["TelemetryReport", "link_utilization"]


def link_utilization(registry: MetricsRegistry, elapsed: float, link: str) -> float:
    """Fraction of the run a link spent serializing bytes.

    A flow books its busy seconds when it starts and its bytes when it
    lands, so read mid-run (flows in flight) busy time runs ahead of the
    clock and the fraction can exceed 1; it is exact at quiescence."""
    if elapsed <= 0:
        return 0.0
    busy = registry.value("skadi_link_busy_seconds_total", link=link)
    return busy / elapsed


class TelemetryReport:
    """Summary tables over a :class:`ServerlessRuntime`'s telemetry."""

    def __init__(self, runtime, critical_path: Optional[CriticalPathResult] = None):
        self.runtime = runtime
        self.registry: MetricsRegistry = runtime.telemetry.registry
        self.critical_path = critical_path

    # -- tables --------------------------------------------------------------

    def task_table(self) -> ResultTable:
        reg = self.registry
        table = ResultTable(
            "telemetry: tasks", ["metric", "count"]
        )
        for label, name in (
            ("submitted", "skadi_tasks_submitted_total"),
            ("finished", "skadi_tasks_finished_total"),
            ("failed", "skadi_tasks_failed_total"),
            ("retried", "skadi_tasks_retried_total"),
            ("speculated", "skadi_speculations_total"),
            ("lineage replays", "skadi_lineage_replays_total"),
            ("actor restarts", "skadi_actor_restarts_total"),
        ):
            table.add_row(label, int(reg.value(name)))
        return table

    def latency_table(self) -> ResultTable:
        table = ResultTable(
            "telemetry: task latency", ["histogram", "count", "p50", "p95", "p99"]
        )
        for name in ("skadi_task_latency_seconds", "skadi_task_input_stall_seconds"):
            family = self.registry.family(name)
            if family is None:
                continue
            for inst in family.instruments():
                table.add_row(
                    name,
                    inst.count,
                    fmt_seconds(inst.percentile(0.5)) if inst.count else "-",
                    fmt_seconds(inst.percentile(0.95)) if inst.count else "-",
                    fmt_seconds(inst.percentile(0.99)) if inst.count else "-",
                )
        return table

    def network_table(self) -> ResultTable:
        reg = self.registry
        elapsed = self.runtime.sim.now
        table = ResultTable(
            "telemetry: fabric links",
            ["link", "bytes", "messages", "busy", "utilization"],
        )
        bytes_family = reg.family("skadi_link_bytes_total")
        if bytes_family is None:
            return table
        for inst in bytes_family.instruments():
            link = inst.labels_dict.get("link", "")
            table.add_row(
                link,
                fmt_bytes(inst.value),
                int(reg.value("skadi_link_messages_total", link=link)),
                fmt_seconds(reg.value("skadi_link_busy_seconds_total", link=link)),
                f"{link_utilization(reg, elapsed, link):.1%}",
            )
        return table

    def incident_table(self) -> ResultTable:
        table = ResultTable("telemetry: incidents", ["kind", "count"])
        family = self.registry.family("skadi_incidents_total")
        if family is not None:
            for inst in family.instruments():
                table.add_row(inst.labels_dict.get("kind", "?"), int(inst.value))
        return table

    def critical_path_table(self) -> Optional[ResultTable]:
        if self.critical_path is None:
            return None
        result = self.critical_path
        table = ResultTable(
            "telemetry: critical-path attribution",
            ["bucket", "time", "fraction"],
        )
        fractions = result.fractions
        for bucket in ATTRIBUTION_BUCKETS:
            table.add_row(
                bucket,
                fmt_seconds(result.breakdown[bucket]),
                f"{fractions[bucket]:.1%}",
            )
        table.add_row("total", fmt_seconds(result.total), "100.0%")
        return table

    def tables(self) -> List[ResultTable]:
        tables = [
            self.task_table(),
            self.latency_table(),
            self.network_table(),
            self.incident_table(),
        ]
        cp = self.critical_path_table()
        if cp is not None:
            tables.append(cp)
        return tables

    # -- rendering -----------------------------------------------------------

    def to_text(self) -> str:
        return "\n\n".join(t.to_text() for t in self.tables())

    def show(self) -> None:
        print()
        print(self.to_text())
