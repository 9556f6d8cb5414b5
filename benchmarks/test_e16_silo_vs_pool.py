"""E16 — computing silos vs. a shared disaggregated pool (§1's second
principle and its conflict).

"Such computing silos can be tightly-coupled clusters... This can result
in suboptimal cluster utilization, which conflicts with the disaggregation
and pooling principle.  It also makes sharing DSAs across distinct data
systems more difficult."

Workload: two data systems with complementary phases — an analytics system
(CPU-heavy, occasional GPU bursts) and an ML system (GPU-heavy, occasional
CPU work).  Deployed two ways over the *same total hardware*:

* silos — each system owns half the devices exclusively (its tasks may
  only use its own silo);
* pooled — one disaggregated pool; the shared scheduler places any task on
  any eligible device.

Expected shape: pooling finishes sooner and uses the accelerators harder,
because each system borrows the other's idle devices.
"""

from __future__ import annotations

from repro.bench import ResultTable, fmt_seconds
from repro.cluster import DeviceKind, build_physical_disagg
from repro.runtime import ResolutionMode, RuntimeConfig, ServerlessRuntime

N_TASKS = 32  # per system
CPU_COST = 1e-3
GPU_COST = 40e-3  # CPU-equivalents; ~1 ms on a 40x GPU


def submit_mixed(rt, gpu_devices, cpu_devices, tag):
    """One data system's job mix over the devices it is allowed to use."""
    refs = []
    for i in range(N_TASKS):
        if (tag == "ml") == (i % 4 != 0):  # ml: 3/4 GPU; analytics: 1/4 GPU
            refs.append(
                rt.submit(
                    lambda i=i: i,
                    compute_cost=GPU_COST,
                    pinned_device=gpu_devices[i % len(gpu_devices)],
                    name=f"{tag}-gpu{i}",
                )
            )
        else:
            refs.append(
                rt.submit(
                    lambda i=i: i,
                    compute_cost=CPU_COST,
                    pinned_device=cpu_devices[i % len(cpu_devices)],
                    name=f"{tag}-cpu{i}",
                )
            )
    return refs


def run_deployment(pooled: bool):
    cluster = build_physical_disagg(n_servers=2, n_gpu_cards=2, n_fpga_cards=0)
    rt = ServerlessRuntime(
        cluster,
        RuntimeConfig(resolution=ResolutionMode.PUSH),
    )
    gpus = [d.device_id for d in cluster.devices_of_kind(DeviceKind.GPU)]
    cpus = [d.device_id for d in cluster.devices_of_kind(DeviceKind.CPU)]
    if pooled:
        # both systems share every device
        refs = submit_mixed(rt, gpus, cpus, "analytics")
        refs += submit_mixed(rt, gpus, cpus, "ml")
    else:
        # silo split: each system owns one GPU card and one server
        refs = submit_mixed(rt, gpus[:1], cpus[:1], "analytics")
        refs += submit_mixed(rt, gpus[1:], cpus[1:], "ml")
    rt.get(refs)
    makespan = rt.sim.now
    gpu_util = sum(
        cluster.device(d).utilization(makespan) for d in gpus
    ) / len(gpus)
    return makespan, gpu_util


def test_e16_silo_vs_pool(benchmark):
    def both():
        return run_deployment(pooled=False), run_deployment(pooled=True)

    (t_silo, util_silo), (t_pool, util_pool) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )

    table = ResultTable(
        "E16: two data systems, same hardware, two deployments",
        ["deployment", "makespan", "mean GPU utilization"],
    )
    table.add_row("computing silos", fmt_seconds(t_silo), f"{util_silo:.1%}")
    table.add_row("shared disaggregated pool", fmt_seconds(t_pool), f"{util_pool:.1%}")
    table.show()

    # pooling borrows the other system's idle devices:
    assert t_pool < t_silo
    assert util_pool > util_silo
