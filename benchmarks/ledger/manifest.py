"""What ``BENCHMARK.json`` cannot say: how each metric is computed from a
repetition record (see ``child.py``), and which end-to-end metric each
per-layer metric is expected to move, on which workload.

Names, units, directions and bounds live in ``BENCHMARK.json`` only; this
module reads them from there.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

ROOT = Path(__file__).resolve().parents[2]

# setup_s may always move by this much: its bound is "25 % or 50 ms,
# whichever is larger" (the 25 % is BENCHMARK.json's bound)
SETUP_FLOOR_S = 0.05

# CPU seconds one sample of child.py's calibration kernel takes on the box the
# first baseline was measured on, in its fast state.  A repetition's
# ``host_speed`` is this over the mean of the samples taken inside and around
# its timed window; every host-clock time is multiplied by it (run.py,
# ``normalise``), which divides out the sandbox's slow phases (up to 1.7x).
HOST_REF_KERNEL_S = 5.3e-4

Rep = Dict[str, Any]


def load() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _ops(rep: Rep) -> int:
    return max(rep["ok_ops"], 1)


# -- end-to-end metrics: computed from one untraced repetition, median over rounds ------

END_TO_END: Dict[str, Callable[[Rep], float]] = {
    "setup_s": lambda rep: rep["setup_s"],
    "ops_per_cpu_s": lambda rep: rep["ok_ops"] / rep["window_s"],
    "peak_rss_mb": lambda rep: rep["peak_rss_mb"],
    "sim_makespan_s": lambda rep: rep["counts"]["sim_s"],
    "sim_latency_p50_ms": lambda rep: rep["latency_p50_s"] * 1e3,
    "sim_latency_p99_ms": lambda rep: rep["latency_p99_s"] * 1e3,
    "fabric_bytes_per_op": lambda rep: rep["counts"]["link_bytes"] / _ops(rep),
    "control_msgs_per_op": lambda rep: rep["counts"]["messages"] / _ops(rep),
}
# ... except these two, which are this field summed over all rounds / ops
# attempted in all rounds: a median would hide one crashed round out of five
POOLED = {"ok_share": "ok_ops", "slo_ok_share": "slo_ok_ops"}
# host-clock metrics vary between rounds; the rest must repeat exactly
HOST_CLOCK = ("setup_s", "ops_per_cpu_s", "peak_rss_mb")


# -- per-layer metrics -------------------------------------------------------------------

PLAIN, TRACED = "plain", "traced"  # which kind of repetition a metric reads


def count(key: str):
    return PLAIN, lambda rep: rep["counts"].get(key, 0)


def per_op(key: str):
    return PLAIN, lambda rep: rep["counts"].get(key, 0) / _ops(rep)


def host_s(key: str):
    return PLAIN, lambda rep: rep["host_s"].get(key, 0.0)


def self_s(*layers: str):
    return TRACED, lambda rep: sum(rep["layers"][name]["self_s"] for name in layers)


def calls_per_op(layer: str):
    return TRACED, lambda rep: rep["layers"][layer]["calls"] / _ops(rep)


def us_per_call(layer: str):
    def fn(rep: Rep) -> float:
        row = rep["layers"][layer]
        return row["self_s"] / row["calls"] * 1e6 if row["calls"] else 0.0

    return TRACED, fn


def us_per_op(layer: str):
    return TRACED, lambda rep: rep["layers"][layer]["self_s"] / _ops(rep) * 1e6


_PLAN_LAYERS = (
    "sql.plan", "ir.passes", "ir.lowering", "core.planner",
    "flowgraph.optimize", "flowgraph.physical",
)


def _plan_build_ms(rep: Rep) -> float:
    queries = rep["counts"].get("queries", 0)
    return self_s(*_PLAN_LAYERS)[1](rep) / queries * 1e3 if queries else 0.0


def _tasks_per_query(rep: Rep) -> float:
    queries = rep["counts"].get("queries", 0)
    return rep["counts"].get("physical_tasks", 0) / queries if queries else 0.0


def _unattributed(rep: Rep) -> float:
    root = rep["layers"]["repetition"]
    return root["self_s"] / root["total_s"] if root["total_s"] else 0.0


# name -> ((kind of repetition, function), end-to-end metric it should move,
# workload it should move it on).  Everywhere else the prediction is
# "no change"; the README has the table with the reasons.
PER_LAYER: Dict[str, Tuple[Tuple[str, Callable[[Rep], float]], str, str]] = {
    "simtime.events_per_op": (per_op("events"), "ops_per_cpu_s", "shuffle"),
    "simtime.events_per_cpu_s": (
        (PLAIN, lambda rep: rep["counts"].get("events", 0) / rep["window_s"]),
        "ops_per_cpu_s",
        "shuffle",
    ),
    "simtime.run_self_s": (self_s("simtime.run"), "ops_per_cpu_s", "shuffle"),
    "simtime.inline_steps": (count("inline_steps"), "ops_per_cpu_s", "shuffle"),
    "network.transfers_per_op": (per_op("transfers"), "sim_makespan_s", "shuffle"),
    "network.link_bytes_per_op": (per_op("link_bytes"), "fabric_bytes_per_op", "shuffle"),
    "network.payload_bytes_per_op": (
        per_op("payload_bytes"), "fabric_bytes_per_op", "shuffle",
    ),
    "network.messages_per_op": (per_op("messages"), "control_msgs_per_op", "taskgraph_pull"),
    "network.multicast_bytes_saved": (
        count("multicast_bytes_saved"), "fabric_bytes_per_op", "shuffle",
    ),
    "network.call_self_s": (self_s("network.call"), "ops_per_cpu_s", "shuffle"),
    "raylet.fetch_dedup_hits": (count("fetch_dedup_hits"), "fabric_bytes_per_op", "shuffle"),
    "scheduler.placements_per_op": (per_op("placements"), "ops_per_cpu_s", "taskgraph_push"),
    "scheduler.place_self_s": (self_s("scheduler.place"), "ops_per_cpu_s", "taskgraph_push"),
    "scheduler.place_us_per_call": (
        us_per_call("scheduler.place"), "ops_per_cpu_s", "taskgraph_push",
    ),
    "ownership.calls_per_op": (calls_per_op("ownership"), "ops_per_cpu_s", "taskgraph_pull"),
    "ownership.self_s": (self_s("ownership"), "ops_per_cpu_s", "taskgraph_pull"),
    "runtime.submit_us_per_op": (us_per_op("runtime.submit"), "ops_per_cpu_s", "taskgraph_push"),
    "runtime.submit_self_s": (self_s("runtime.submit"), "ops_per_cpu_s", "taskgraph_push"),
    "runtime.get_self_s": (self_s("runtime.get"), "ops_per_cpu_s", "taskgraph_push"),
    "runtime.retries_per_op": (per_op("retries"), "sim_makespan_s", "chaos_soak"),
    "runtime.tasks_failed": (count("tasks_failed"), "ok_share", "chaos_soak"),
    "runtime.tasks_cancelled": (count("tasks_cancelled"), "slo_ok_share", "serving"),
    "runtime.lineage_replays": (count("lineage_replays"), "sim_makespan_s", "chaos_soak"),
    "runtime.actor_restarts": (count("actor_restarts"), "sim_makespan_s", "chaos_soak"),
    "object_store.ops_per_op": (calls_per_op("object_store"), "ops_per_cpu_s", "shuffle"),
    "object_store.self_s": (self_s("object_store"), "ops_per_cpu_s", "sql_suite"),
    "telemetry.calls_per_op": (calls_per_op("telemetry"), "ops_per_cpu_s", "taskgraph_push"),
    "telemetry.self_s": (self_s("telemetry"), "ops_per_cpu_s", "taskgraph_push"),
    "health.beats_received": (count("beats_received"), "ops_per_cpu_s", "chaos_soak"),
    "health.suspicions": (count("suspicions"), "sim_makespan_s", "chaos_soak"),
    "chaos.faults_injected": (count("faults_injected"), "sim_makespan_s", "chaos_soak"),
    "serving.offered": (count("serving_offered"), "slo_ok_share", "serving"),
    "serving.completed": (count("serving_completed"), "slo_ok_share", "serving"),
    "serving.shed": (count("serving_shed"), "slo_ok_share", "serving"),
    "serving.failed": (count("serving_failed"), "ok_share", "serving"),
    "serving.offer_self_s": (self_s("serving.offer"), "ops_per_cpu_s", "serving"),
    "serving.workload_gen_s": (host_s("workload_gen_s"), "setup_s", "serving"),
    "overload.admission_rejected": (
        count("admission_rejected"), "sim_latency_p99_ms", "serving",
    ),
    "overload.retry_budget_exhausted": (
        count("retry_budget_exhausted"), "ok_share", "serving",
    ),
    "sql.plan_self_s": (self_s("sql.plan"), "ops_per_cpu_s", "sql_suite"),
    "ir.passes_self_s": (self_s("ir.passes"), "ops_per_cpu_s", "sql_suite"),
    "ir.lowering_self_s": (self_s("ir.lowering"), "ops_per_cpu_s", "sql_suite"),
    "core.planner_self_s": (self_s("core.planner"), "ops_per_cpu_s", "sql_suite"),
    "flowgraph.optimize_self_s": (self_s("flowgraph.optimize"), "ops_per_cpu_s", "sql_suite"),
    "flowgraph.physical_self_s": (self_s("flowgraph.physical"), "ops_per_cpu_s", "sql_suite"),
    "flowgraph.launch_self_s": (self_s("flowgraph.launch"), "ops_per_cpu_s", "sql_suite"),
    "planner.plan_build_ms_per_query": ((TRACED, _plan_build_ms), "ops_per_cpu_s", "sql_suite"),
    "flowgraph.physical_tasks_per_query": (
        (PLAIN, _tasks_per_query), "control_msgs_per_op", "sql_suite",
    ),
    "ir.interpreter_self_s": (self_s("ir.interpreter"), "ops_per_cpu_s", "sql_suite"),
    "caching.columnar_self_s": (self_s("caching.columnar"), "ops_per_cpu_s", "sql_suite"),
    # the harness's own honesty rows; overhead_share needs both kinds of
    # repetition and is computed in run.py
    "harness.host_speed": ((PLAIN, lambda rep: rep["host_speed"]), "ops_per_cpu_s", "shuffle"),
    "trace.overhead_share": ((TRACED, lambda rep: 0.0), "ops_per_cpu_s", "taskgraph_pull"),
    "trace.unattributed_share": ((TRACED, _unattributed), "ops_per_cpu_s", "sql_suite"),
    "trace.spans": ((TRACED, lambda rep: rep["span_count"]), "ops_per_cpu_s", "taskgraph_pull"),
}
