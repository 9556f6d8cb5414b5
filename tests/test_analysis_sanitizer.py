"""The physical-plan sanitizer and the runtime's strict-plans mode."""

import numpy as np
import pytest

from repro.analysis import PlanSanitizerError, sanitize_plan
from repro.caching.columnar import RecordBatch
from repro.cluster.cluster import build_physical_disagg
from repro.cluster.hardware import DeviceKind
from repro.flowgraph.launch import launch_physical_graph
from repro.flowgraph.logical import FlowGraph
from repro.flowgraph.physical import PhysicalTask, to_physical
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import ServerlessRuntime


def _plan(shards=2, keyed=False):
    graph = FlowGraph("plan")
    src = graph.add_vertex("src", source_table="t", parallelism=shards)
    comp = graph.add_vertex("f", py_func=lambda v: v, parallelism=shards)
    graph.add_edge(src, comp, key="k" if keyed else None)
    return graph, to_physical(graph)


def _cluster():
    return build_physical_disagg()


def _table(rows=64):
    return RecordBatch.from_pydict(
        {"k": np.arange(rows, dtype="int64"), "v": np.arange(rows, dtype="float64")}
    )


# -- structure -------------------------------------------------------------------


def test_clean_plan_is_clean():
    _, pgraph = _plan(keyed=True)
    diags = sanitize_plan(pgraph, devices=_cluster().all_devices())
    assert not diags, diags.render()


def test_unknown_input():
    _, pgraph = _plan()
    task = pgraph.tasks["v1.0"]
    task.inputs[0].append("phantom.7")
    diags = sanitize_plan(pgraph)
    assert "unknown-input" in diags.codes()


def test_no_input_compute():
    _, pgraph = _plan()
    pgraph.tasks["v1.0"].inputs = []
    diags = sanitize_plan(pgraph)
    assert "no-input-compute" in diags.codes()


def test_plan_cycle():
    _, pgraph = _plan()
    # v0.0 -> v1.0 exists; make v0.0 read v1.0 back
    pgraph.tasks["v0.0"].inputs = [["v1.0"]]
    diags = sanitize_plan(pgraph)
    assert "plan-cycle" in diags.codes()


def test_orphan_task():
    graph, pgraph = _plan()
    orphan = PhysicalTask(
        ptask_id="orphan.0",
        kind="compute",
        vertex_id="v1",
        name="orphan",
        shard=0,
        parallelism=1,
        inputs=[["v0.0"]],
    )
    pgraph.add(orphan)
    diags = sanitize_plan(pgraph)
    assert "orphan-task" in diags.codes()
    assert diags.ok  # orphan is a warning, not an error


# -- placement -------------------------------------------------------------------


def test_pin_unknown_device():
    _, pgraph = _plan()
    pgraph.tasks["v1.0"].pinned_device = "ghost"
    diags = sanitize_plan(pgraph, devices=_cluster().all_devices())
    assert "pin-unknown-device" in diags.codes()


def test_pin_dead_device():
    cluster = _cluster()
    target = cluster.all_devices()[0].device_id
    _, pgraph = _plan()
    pgraph.tasks["v1.0"].pinned_device = target
    diags = sanitize_plan(
        pgraph, devices=cluster.all_devices(), blacklisted={target}
    )
    assert "pin-dead-device" in diags.codes()


def test_pin_kind_mismatch():
    cluster = _cluster()
    gpu = cluster.devices_of_kind(DeviceKind.GPU)[0]
    _, pgraph = _plan()
    task = pgraph.tasks["v1.0"]  # py_func vertex: CPU only
    task.pinned_device = gpu.device_id
    diags = sanitize_plan(pgraph, devices=cluster.all_devices())
    assert "pin-kind-mismatch" in diags.codes()


def test_unplaceable_kind():
    cluster = _cluster()
    _, pgraph = _plan()
    pgraph.tasks["v1.0"].supported_kinds = frozenset({DeviceKind.FPGA})
    fpga_ids = {d.device_id for d in cluster.devices_of_kind(DeviceKind.FPGA)}
    diags = sanitize_plan(
        pgraph, devices=cluster.all_devices(), blacklisted=fpga_ids
    )
    assert "unplaceable-kind" in diags.codes()


def test_input_unresolvable_propagates_from_producer():
    cluster = _cluster()
    _, pgraph = _plan()
    pgraph.tasks["v0.0"].pinned_device = "ghost"  # producer unplaceable
    diags = sanitize_plan(pgraph, devices=cluster.all_devices())
    assert "pin-unknown-device" in diags.codes()
    assert "input-unresolvable" in diags.codes()
    [finding] = diags.by_code("input-unresolvable")
    assert "v0.0" in finding.message


def test_placement_checks_skipped_without_devices():
    _, pgraph = _plan()
    pgraph.tasks["v1.0"].pinned_device = "ghost"
    assert sanitize_plan(pgraph).ok  # structural checks only


# -- capacity --------------------------------------------------------------------


def test_device_memory_oversubscription():
    cluster = _cluster()
    device = cluster.all_devices()[0]
    _, pgraph = _plan()
    task = pgraph.tasks["v1.0"]
    task.pinned_device = device.device_id
    task.output_nbytes = device.spec.memory_bytes + 1
    diags = sanitize_plan(pgraph, devices=cluster.all_devices())
    assert "device-memory-oversubscribed" in diags.codes()
    assert not diags.ok


def test_kind_memory_oversubscription_is_warning():
    cluster = _cluster()
    budget = sum(
        d.spec.memory_bytes for d in cluster.devices_of_kind(DeviceKind.CPU)
    )
    _, pgraph = _plan()
    task = pgraph.tasks["v1.0"]
    task.supported_kinds = frozenset({DeviceKind.CPU})
    task.output_nbytes = budget + 1
    diags = sanitize_plan(pgraph, devices=cluster.all_devices())
    assert "kind-memory-oversubscribed" in diags.codes()
    assert diags.ok  # aggregate over-subscription is advisory


# -- strict mode / scheduler integration ----------------------------------------


def test_scheduler_sanitize_plan_sees_blacklist():
    runtime = ServerlessRuntime(_cluster())
    victim = runtime.scheduler._devices[0].device_id
    runtime.scheduler.blacklist(victim)
    _, pgraph = _plan()
    pgraph.tasks["v1.0"].pinned_device = victim
    diags = runtime.scheduler.sanitize_plan(pgraph)
    assert "pin-dead-device" in diags.codes()


def test_strict_launch_refuses_hazardous_plan():
    runtime = ServerlessRuntime(_cluster(), RuntimeConfig(strict_plans=True))
    _, pgraph = _plan()
    pgraph.tasks["v1.0"].pinned_device = "ghost"
    with pytest.raises(PlanSanitizerError) as info:
        launch_physical_graph(runtime, pgraph, tables={"t": _table()})
    assert "pin-unknown-device" in str(info.value)
    assert not info.value.diagnostics.ok


def test_strict_launch_allows_clean_plan():
    runtime = ServerlessRuntime(_cluster(), RuntimeConfig(strict_plans=True))
    graph, pgraph = _plan()
    outputs = launch_physical_graph(runtime, pgraph, tables={"t": _table()})
    values = runtime.get(outputs["v1"])
    assert sum(v.num_rows for v in values) == 64


def test_explicit_strict_overrides_config():
    runtime = ServerlessRuntime(_cluster())  # strict_plans defaults off
    _, pgraph = _plan()
    pgraph.tasks["v1.0"].pinned_device = "ghost"
    with pytest.raises(PlanSanitizerError):
        launch_physical_graph(runtime, pgraph, tables={"t": _table()}, strict=True)


def test_consumers_helper():
    _, pgraph = _plan(shards=1)
    table = pgraph.consumers()
    assert table["v0.0"] == ["v1.0"]
    assert table["v1.0"] == []
