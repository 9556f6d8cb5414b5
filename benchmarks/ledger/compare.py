"""Compare two ledger summaries (``run.py --out`` files), metric by metric.

One row per (workload, end-to-end metric): both medians, B/A with A as the
base, the bound from ``BENCHMARK.json`` and a verdict:

* ``unresolved`` — the round-to-round spread of either side (quartile
  distance over median) is wider than the bound, so the runs cannot say;
* ``worse`` / ``better`` — B is beyond the bound on the bad / good side of A;
* ``unchanged`` — within the bound.

``setup_s`` may also always move by ``SETUP_FLOOR_S``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ledger.manifest import SETUP_FLOOR_S


def _spread(cell: Dict[str, Any]) -> float:
    if cell.get("q1") is None or not cell["value"]:
        return 0.0
    return (cell["q3"] - cell["q1"]) / abs(cell["value"])


def verdict(metric: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> str:
    bound = metric["bound"]
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    worse_by = b["value"] - a["value"]
    if metric["better"] == "higher":
        worse_by = -worse_by
    allowed = bound * abs(a["value"])
    if metric["name"] == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    if worse_by > allowed:
        return "worse"
    if worse_by < -allowed:
        return "better"
    return "unchanged"


def compare(manifest: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for workload in (w["name"] for w in manifest["workloads"]):
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            continue
        for metric in manifest["end_to_end"]:
            ca, cb = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": ca["value"],
                    "b": cb["value"],
                    "ratio": cb["value"] / ca["value"] if ca["value"] else float("nan"),
                    "bound": metric["bound"],
                    "verdict": verdict(metric, ca, cb),
                }
            )
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<15} {'metric':<20} {'A':>14} {'B':>14} {'B/A (base A)':>13} "
        f"{'bound':>6}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<15} {r['metric']:<20} {r['a']:>14.6g} {r['b']:>14.6g} "
            f"{r['ratio']:>13.4f} {r['bound']:>6.3f}  {r['verdict']} [{r['unit']}]"
        )
    return "\n".join(lines)
