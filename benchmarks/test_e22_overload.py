"""E22 — overload: metastable retry storms vs. graceful degradation (§2.3).

The failure mode under test is *metastability*: a transient 2x arrival
spike lands on a briefly-slowed device, attempts start timing out, and the
retries of the timed-out work — stacked on top of an undiminished
open-loop offered load — keep the device saturated long after both the
spike and the slowdown have ended.  Goodput stays collapsed in a window
where nothing is wrong anymore.

Scenario: one 16-slot CPU server (capacity ~800 tasks/s at the 2e-2 task
cost).  A steady 480 tasks/s open-loop stream runs throughout; at t=0.30 a
0.15 s spike doubles capacity's worth of extra arrivals while a chaos
straggler slows the CPU 4x for 0.10 s.  Goodput is counted in the
post-burst window [0.45, 0.75] — after the spike AND the slowdown are
over — against a burst-free baseline of the same steady stream.

* **switches off** (legacy config): the retry storm keeps post-burst
  goodput under 50% of baseline;
* **admission control + retry budgets on**: the storm is shed at the
  door instead of amplified, goodput recovers to >= 90%.

Numbers land in ``BENCH_E22.json`` for the perf trajectory.
"""

from __future__ import annotations

import os

from repro.bench import ResultTable
from repro.chaos import ChaosMonkey, ChaosSchedule
from repro.cluster import build_serverful
from repro.runtime import ResolutionMode, RuntimeConfig, ServerlessRuntime

SEED = 22
TASK_COST = 2e-2  # 16 slots / 2e-2 s => ~800 tasks/s of capacity
STEADY_TASKS = 144  # 480 tasks/s for 0.30 s (0.6x capacity)
SPIKE_TASKS = 240  # +1600 tasks/s for 0.15 s (2x capacity on top)
WINDOW = (0.45, 0.75)  # spike and straggler both long gone

# depth 16 = one slot-wave: admitted work queues for at most ~one compute
# quantum, keeping admitted latency far from the timeout cliff.  (A depth
# near 48 admits enough backlog that queueing alone pushes attempts into
# timeout range, and the storm re-ignites *inside* the admission gate.)
OVERLOAD_SWITCHES = dict(
    admission_control=True,
    admission_queue_depth=16,
    retry_budget=True,
    retry_budget_ratio=0.1,
    retry_budget_cap=20.0,
)


def make_schedule(spike: bool) -> ChaosSchedule:
    schedule = ChaosSchedule().burst(0.0, STEADY_TASKS, duration=0.30, seed=SEED)
    if spike:
        schedule.burst(0.30, SPIKE_TASKS, duration=0.15, seed=SEED + 1)
        schedule.slow_device(0.31, "server0/cpu", 4.0, duration=0.10)
    schedule.burst(0.45, STEADY_TASKS, duration=0.30, seed=SEED + 2)
    return schedule


def run_scenario(spike: bool = True, **overrides):
    """Fire the open-loop load at one server and drain the simulator."""
    rt = ServerlessRuntime(
        build_serverful(n_servers=1),
        RuntimeConfig(
            resolution=ResolutionMode.PULL,
            task_timeout=0.08,
            max_retries=8,
            retry_backoff_base=5e-3,
            **overrides,
        ),
    )

    def source(i: int) -> None:
        rt.submit(lambda i=i: i, compute_cost=TASK_COST, name=f"load{i}")

    monkey = ChaosMonkey(rt, make_schedule(spike), task_source=source).arm()
    rt.sim.run()
    return rt, monkey


def completions_in(rt: ServerlessRuntime, lo: float, hi: float) -> int:
    return sum(1 for t in rt.timelines if lo <= t.end < hi)


def test_e22_overload(write_result):
    base_rt, _ = run_scenario(spike=False)  # burst-free capacity witness
    off_rt, off_monkey = run_scenario(spike=True)
    on_rt, on_monkey = run_scenario(spike=True, **OVERLOAD_SWITCHES)

    lo, hi = WINDOW
    base_goodput = completions_in(base_rt, lo, hi)
    assert base_goodput > 0
    off_ratio = completions_in(off_rt, lo, hi) / base_goodput
    on_ratio = completions_in(on_rt, lo, hi) / base_goodput

    shed = on_rt.tasks_shed + on_monkey.load_rejected

    table = ResultTable(
        "E22: 2x burst + straggler — legacy retry storm vs. overload control",
        ["scenario", "post-burst goodput", "retries", "failed", "shed/rejected"],
    )
    table.add_row("no burst (baseline)", "100%", base_rt.tasks_retried, 0, 0)
    table.add_row(
        "burst, switches off",
        f"{off_ratio:.0%}",
        off_rt.tasks_retried,
        off_rt.tasks_failed,
        0,
    )
    table.add_row(
        "burst, admission+budget",
        f"{on_ratio:.0%}",
        on_rt.tasks_retried,
        on_rt.tasks_failed,
        shed,
    )
    table.show()

    # the legacy config goes metastable: the storm outlives its trigger
    assert off_ratio < 0.5, f"expected a goodput collapse, got {off_ratio:.0%}"
    assert off_rt.tasks_retried > on_rt.tasks_retried
    # overload control actually engaged (shed at the door, not amplified)...
    assert on_monkey.load_rejected > 0
    assert on_rt.telemetry.registry.value(
        "skadi_shed_tasks_total", reason="admission_reject"
    ) == float(on_monkey.load_rejected)
    # ...and goodput recovers once the burst passes
    assert on_ratio >= 0.9, f"expected recovery, got {on_ratio:.0%}"

    results = {
        "experiment": "E22",
        "capacity_tasks_per_s": 16 / TASK_COST,
        "steady_tasks_per_s": STEADY_TASKS / 0.30,
        "spike_tasks_per_s": SPIKE_TASKS / 0.15,
        "window": list(WINDOW),
        "baseline_goodput_tasks": base_goodput,
        "off": {
            "goodput_ratio": off_ratio,
            "retries": off_rt.tasks_retried,
            "failed": off_rt.tasks_failed,
        },
        "on": {
            "goodput_ratio": on_ratio,
            "retries": on_rt.tasks_retried,
            "failed": on_rt.tasks_failed,
            "rejected": on_monkey.load_rejected,
            "shed": on_rt.tasks_shed,
        },
    }
    write_result("BENCH_E22.json", results)

    # CI sanitizes dumped protocol traces offline (the burst ends mid-run
    # for shed work, so the trace is partial by construction)
    artifacts = os.environ.get("BENCH_ARTIFACTS")
    if artifacts:
        traced_rt, _ = run_scenario(spike=True, sanitizers=("trace",))
        traced_rt.probe.trace.dump(
            os.path.join(artifacts, "e22_dist_trace.json")
        )
