"""E10 — control-plane behaviours: dispatch under load and gang scheduling.

§2.3: "For workloads with frequent short operators (e.g., ML), [the
control plane] determines performance... If necessary, it could also
integrate gang-scheduling to support SPMD-style sub-graph."
"""

from __future__ import annotations

from repro.bench import ResultTable, fmt_seconds
from repro.cluster import DeviceKind, build_physical_disagg
from repro.runtime import (
    Generation,
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
)

N_TASKS = 96
OP_COST = 2e-5


def dispatch_burst(generation: Generation) -> float:
    """Independent short accelerator ops; control handling is the limit."""
    cluster = build_physical_disagg(n_gpu_cards=2, n_fpga_cards=2)
    rt = ServerlessRuntime(
        cluster,
        RuntimeConfig(generation=generation, resolution=ResolutionMode.PUSH),
    )
    accel = [
        d.device_id
        for d in cluster.all_devices()
        if d.kind in (DeviceKind.GPU, DeviceKind.FPGA)
    ]
    refs = [
        rt.submit(
            lambda i=i: i,
            compute_cost=OP_COST,
            pinned_device=accel[i % len(accel)],
            name=f"op{i}",
        )
        for i in range(N_TASKS)
    ]
    assert sum(rt.get(refs)) == sum(range(N_TASKS))
    return rt.sim.now


def test_e10_short_op_dispatch_rate(benchmark):
    def both():
        return dispatch_burst(Generation.GEN1), dispatch_burst(Generation.GEN2)

    t1, t2 = benchmark.pedantic(both, rounds=1, iterations=1)

    table = ResultTable(
        f"E10a: {N_TASKS} independent {OP_COST * 1e6:.0f}us accelerator ops",
        ["control plane", "makespan", "ops/sec"],
    )
    table.add_row("CPU(DPU)-centric (Gen-1)", fmt_seconds(t1), f"{N_TASKS / t1:,.0f}")
    table.add_row("device-centric (Gen-2)", fmt_seconds(t2), f"{N_TASKS / t2:,.0f}")
    table.show()

    # the device-centric control plane sustains a higher dispatch rate
    assert t2 < t1


def test_e10_gang_scheduling_spmd(benchmark):
    """An SPMD sub-graph: gang scheduling gives all ranks distinct devices
    and a simultaneous start (lock-step), unlike independent submission."""

    def run(gang: bool):
        cluster = build_physical_disagg(n_fpga_cards=2, n_gpu_cards=0)
        rt = ServerlessRuntime(
            cluster, RuntimeConfig(resolution=ResolutionMode.PULL)
        )
        n_ranks = 4
        refs = [
            rt.submit(
                lambda r=r: r,
                compute_cost=1e-3,
                supported_kinds=frozenset({DeviceKind.FPGA}),
                gang_group="spmd" if gang else None,
                name=f"rank{r}",
            )
            for r in range(n_ranks)
        ]
        if gang:
            rt.launch_gang("spmd")
        rt.get(refs)
        timelines = [rt.timeline_of(r) for r in refs]
        devices = {t.device for t in timelines}
        starts = [t.started for t in timelines]
        return devices, max(starts) - min(starts)

    def both():
        return run(gang=False), run(gang=True)

    (free_devices, free_skew), (gang_devices, gang_skew) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )

    table = ResultTable(
        "E10b: 4-rank SPMD sub-graph",
        ["scheduling", "distinct devices", "start-time skew"],
    )
    table.add_row("independent tasks", len(free_devices), fmt_seconds(free_skew))
    table.add_row("gang-scheduled", len(gang_devices), fmt_seconds(gang_skew))
    table.show()

    # the gang always gets distinct devices and a lock-step start
    assert len(gang_devices) == 4
    assert gang_skew <= free_skew
    assert gang_skew < 1e-4
