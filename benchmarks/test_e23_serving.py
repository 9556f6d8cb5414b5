"""E23 — serving: tail latency vs. offered load, multi-tenant frontend (§2.4).

The question: when "millions of users" hit the single-driver runtime
open-loop, what happens to the *tail*?  A naive pass-through frontend
(every request's DAG submitted the instant it arrives) has no defense at
or past saturation: a transient trigger — a 2x arrival spike landing on a
briefly-slowed device, E22's recipe expressed as serving *requests* —
pushes attempts into timeout range, and the retry storm stacked on an
undiminished open-loop stream turns overload into outright request
failures long after the trigger has passed.

The serving frontend holds the tail instead: pacing bounds how much work
is in the runtime at once, the bounded waiting room sheds the excess at
the door in weighted-fair order, and admission control + retry budgets
underneath catch whatever still leaks through.  A request carries no
deadline into the runtime: its latency is measured at the frontend.

Scenario: one 16-slot CPU server (~800 tasks/s at the 2e-2 task cost; the
stock template mix averages 2 tasks/request, so ~400 req/s of capacity).
A seeded Poisson request stream is offered at 70% / 100% / 130% of that
for 0.5 s.  The >= 100% points add the metastability trigger: a 2x-
capacity request spike for 0.15 s (a chaos ``LoadBurst`` record played
through the workload generator — the serving and chaos layers share one
arrival vocabulary) plus a 4x device slowdown for 0.10 s.  The on-config
is additionally swept across three tenant-population sizes (10k / 100k /
1M — the registry mints tenants lazily, so a million-tenant namespace
costs only what it touches).

* **switches off**: the >= 100% points go metastable — most requests die
  in the retry storm (or the tail runs away past 100x p50) and the drain
  outlives the trigger by seconds;
* **serving + admission on**: p999 stays within 10x p50 at every load
  point and every population size, with (near-)zero failed requests.

Numbers land in ``BENCH_E23.json`` for the perf trajectory.
"""

from __future__ import annotations

import math

from repro.bench import ResultTable
from repro.chaos import ChaosMonkey, ChaosSchedule
from repro.chaos.events import LoadBurst
from repro.cluster import build_serverful
from repro.runtime import ResolutionMode, RuntimeConfig, ServerlessRuntime
from repro.serving import ServingFrontend, TenantRegistry, WorkloadGenerator

SEED = 23
TASK_COST = 2e-2  # 16 slots / 2e-2 s => ~800 tasks/s of task capacity
CAPACITY_REQ_S = 400.0  # stock template mix averages 2 tasks per request
DURATION = 0.5
LOAD_POINTS = (0.7, 1.0, 1.3)  # fraction of request capacity offered
POPULATIONS = (10_000, 100_000, 1_000_000)
SPIKE_REQS = 120  # 800 req/s for 0.15 s: 2x capacity on top of the steady load

# pacing at 8 requests (~16 tasks, one slot-wave) keeps the runtime's own
# queues shallow, so overload is absorbed by the frontend's waiting room —
# shed in weighted-fair order — rather than amplified into a retry storm.
SERVING_SWITCHES = dict(
    serving_fair_queueing=True,
    serving_tenant_isolation=True,
    serving_max_inflight=8,
    serving_queue_depth=32,
    admission_control=True,
    admission_queue_depth=16,
    retry_budget=True,
    retry_budget_ratio=0.1,
    retry_budget_cap=20.0,
)


def run_serving(
    load: float, trigger: bool, n_tenants: int = POPULATIONS[0], **overrides
):
    """Offer ``load`` x capacity to one server through the frontend,
    optionally with the E22 metastability trigger (spike + straggler)."""
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
    bursts = (
        (LoadBurst(0.30, n_tasks=SPIKE_REQS, duration=0.15, seed=SEED + 1),)
        if trigger
        else ()
    )
    tenants = TenantRegistry(n_tenants)
    workload = WorkloadGenerator(
        tenants, rate=load * CAPACITY_REQ_S, duration=DURATION, seed=SEED,
        bursts=bursts,
    )
    fe = ServingFrontend(rt, tenants).play(workload.requests())
    if trigger:
        schedule = ChaosSchedule().slow_device(0.31, "server0/cpu", 4.0, duration=0.10)
        ChaosMonkey(rt, schedule).arm()
    rt.sim.run()
    return fe


def tail_ratio(pcts: dict) -> float:
    if not pcts["p50"] or math.isnan(pcts["p50"]):
        return float("nan")
    return pcts["p999"] / pcts["p50"]


def test_e23_serving(write_result):
    table = ResultTable(
        "E23: tail latency vs. offered load — pass-through vs. serving frontend",
        ["scenario", "offered", "ok/failed/shed", "p50", "p99", "p999", "p999/p50"],
    )
    results = {
        "experiment": "E23",
        "capacity_req_per_s": CAPACITY_REQ_S,
        "duration_s": DURATION,
        "seed": SEED,
        "loads": [],
        "populations": [],
    }

    by_load = {}
    for load in LOAD_POINTS:
        trigger = load >= 1.0
        off = run_serving(load, trigger)
        on = run_serving(load, trigger, **SERVING_SWITCHES)
        by_load[load] = (off, on)
        suffix = "+trigger" if trigger else ""
        for label, fe in (("off", off), ("on", on)):
            pcts = fe.latency_percentiles()
            table.add_row(
                f"{load:.0%}{suffix}, {label}",
                fe.offered,
                f"{fe.completed}/{fe.failed}/{sum(fe.shed.values())}",
                f"{pcts['p50'] * 1e3:.1f}ms",
                f"{pcts['p99'] * 1e3:.1f}ms",
                f"{pcts['p999'] * 1e3:.1f}ms",
                f"{tail_ratio(pcts):.1f}x",
            )
        off_p, on_p = off.latency_percentiles(), on.latency_percentiles()
        results["loads"].append(
            {
                "offered_ratio": load,
                "rate_req_per_s": load * CAPACITY_REQ_S,
                "trigger": trigger,
                "off": {
                    **off_p,
                    "offered": off.offered,
                    "completed": off.completed,
                    "failed": off.failed,
                    "shed": sum(off.shed.values()),
                    "drain_ends": off.rt.sim.now,
                },
                "on": {
                    **on_p,
                    "offered": on.offered,
                    "completed": on.completed,
                    "failed": on.failed,
                    "shed": sum(on.shed.values()),
                    "drain_ends": on.rt.sim.now,
                },
            }
        )

    # population sweep: the overload point, serving on, 10k -> 1M tenants
    for n_tenants in POPULATIONS:
        load = LOAD_POINTS[-1]
        fe = (
            by_load[load][1]
            if n_tenants == POPULATIONS[0]
            else run_serving(load, True, n_tenants=n_tenants, **SERVING_SWITCHES)
        )
        pcts = fe.latency_percentiles()
        table.add_row(
            f"{n_tenants:,} tenants, on",
            fe.offered,
            f"{fe.completed}/{fe.failed}/{sum(fe.shed.values())}",
            f"{pcts['p50'] * 1e3:.1f}ms",
            f"{pcts['p99'] * 1e3:.1f}ms",
            f"{pcts['p999'] * 1e3:.1f}ms",
            f"{tail_ratio(pcts):.1f}x",
        )
        results["populations"].append(
            {
                "n_tenants": n_tenants,
                "tenants_touched": fe.tenants.touched,
                **pcts,
                "offered": fe.offered,
                "shed": sum(fe.shed.values()),
            }
        )
        # the tail holds at every population size
        assert tail_ratio(pcts) <= 10.0, (
            f"{n_tenants} tenants: p999 {pcts['p999']:.3f}s vs p50 "
            f"{pcts['p50']:.3f}s"
        )

    table.show()

    for load in LOAD_POINTS:
        off, on = by_load[load]
        on_p = on.latency_percentiles()
        # the frontend holds the tail at every load point...
        assert tail_ratio(on_p) <= 10.0, (
            f"{load:.0%} load: serving p999/p50 = {tail_ratio(on_p):.1f}x"
        )
        if load >= 1.0:
            # ...where the pass-through goes metastable: the retry storm
            # kills requests outright, or the tail runs away
            off_p = off.latency_percentiles()
            assert off.failed > 0 or tail_ratio(off_p) > 100.0, (
                f"{load:.0%} load: expected metastable pass-through, got "
                f"failed={off.failed}, p999/p50={tail_ratio(off_p):.1f}x"
            )
            # overload defense actually engaged, not just lucky timing...
            assert sum(on.shed.values()) > 0
            # ...and admitted requests survive what killed the pass-through
            assert on.failed <= on.offered * 0.05
            # the off drain outlives the trigger; the on drain does not
            assert off.rt.sim.now > on.rt.sim.now + 1.0

    write_result("BENCH_E23.json", results)
