"""The six ledger workloads: seeded inputs, drivers and oracles.

Every workload is a list of independent *episodes* (one for five of them,
several fault-injected ones for ``chaos_soak``).  The harness in
``child.py`` calls, per episode and in this order::

    ep = generate(seed, scale)[i]          # inputs only, nothing of the program
    state = build(ep)                      # cluster + runtime; part of setup_s
    out = run(ep, state)                   # the timed window, public API only
    ok_ops = check(ep, state, out)         # the oracle, outside the timed window
    obs = observe(ep, state, out, ok_ops)  # public counters, read after the run

``generate`` is the only place ``--seed`` enters; the program sees only what
it returns.  Each workload's ``why`` lives in ``BENCHMARK.json`` and the
README; the comments here record sizing decisions.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import Skadi
from repro.bench.workloads import customers_table, lineitem_like_table, orders_table
from repro.caching import ReplicationScheme
from repro.chaos import ChaosMonkey, ChaosSchedule, NodeCrash
from repro.chaos.events import LoadBurst
from repro.cluster import DeviceKind, build_physical_disagg, build_serverful
from repro.frontends.sql import sql_to_ir
from repro.ir import FrameType, run_function
from repro.runtime import (
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
    make_reliable_cache,
)
from repro.serving import ServingFrontend, TenantRegistry, WorkloadGenerator

# Virtual seconds a driver-side get() may wait.  Far above every fault-free
# makespan here (the longest is ~0.5 s), so it only fires on a hang.
GET_TIMEOUT = 60.0


class OracleError(AssertionError):
    """The program's output disagrees with the oracle."""


@dataclass
class Observation:
    """What ``observe`` reads off a finished episode (all virtual or counts)."""

    counts: Dict[str, float]  # exact: must repeat from round to round
    latencies_s: List[float]  # virtual arrival/submit -> completion, per op
    slo_ok_ops: int  # ops completed correctly within the workload's limit
    signature: str  # digest of the runtime's event log
    host_cpu_s: Dict[str, float] = field(default_factory=dict)  # host-clock extras


def _family_total(registry, name: str) -> float:
    family = registry.family(name)
    return 0.0 if family is None else sum(i.value for i in family.instruments())


def runtime_counts(rt: ServerlessRuntime) -> Dict[str, float]:
    """The per-layer counters one runtime exposes publicly."""
    stats = rt.net.stats
    registry = rt.telemetry.registry
    return {
        "sim_s": rt.sim.now,
        "events": rt.sim.events_executed(),
        "inline_steps": rt.sim.inline_steps,
        "transfers": stats.transfers,
        "link_bytes": sum(stats.bytes_by_link.values()),
        "payload_bytes": rt.bytes_moved,
        "messages": rt.control_messages,
        "multicast_bytes_saved": stats.multicast_bytes_saved,
        "fetch_dedup_hits": _family_total(registry, "skadi_fetch_dedup_total"),
        "placements": _family_total(registry, "skadi_placements_total"),
        "retries": rt.tasks_retried,
        "tasks_failed": rt.tasks_failed,
        "tasks_cancelled": rt.tasks_cancelled,
        "lineage_replays": rt.lineage.replays,
        "actor_restarts": rt.actor_restarts,
        "beats_received": rt.health.beats_received if rt.health is not None else 0,
        "suspicions": rt.log.count("node_suspected"),
        "admission_rejected": rt.log.count("admission_rejected"),
        "retry_budget_exhausted": rt.log.count("retry_budget_exhausted"),
    }


def _signature(rt: ServerlessRuntime) -> str:
    return hashlib.sha1(repr(rt.log.signature()).encode()).hexdigest()


def _task_observation(rt: ServerlessRuntime, ok_ops: int) -> Observation:
    """Observation of a task-graph episode: one op per task, and a task
    meets its limit when the driver's get() returned inside GET_TIMEOUT."""
    return Observation(
        counts=runtime_counts(rt),
        latencies_s=[t.latency for t in rt.timelines],
        slo_ok_ops=ok_ops,
        signature=_signature(rt),
    )


class Workload:
    """Interface of one workload; see the module docstring for call order."""

    name = ""

    def generate(self, seed: int, scale: float) -> List[Any]:
        raise NotImplementedError

    def build(self, ep: Any) -> Any:
        raise NotImplementedError

    def ops(self, ep: Any, state: Any) -> int:
        """Ops this episode attempts."""
        raise NotImplementedError

    def run(self, ep: Any, state: Any) -> Any:
        raise NotImplementedError

    def check(self, ep: Any, state: Any, out: Any) -> int:
        """Ops that completed correctly; raises OracleError on a wrong answer."""
        raise NotImplementedError

    def observe(self, ep: Any, state: Any, out: Any, ok_ops: int) -> Observation:
        raise NotImplementedError


# -- taskgraph_push / taskgraph_pull -------------------------------------------------


@dataclass
class TaskGraph:
    """``tasks[i] = (deps, const, pin)``: task i returns sum(deps) + const;
    ``pin`` is None or an index into the cluster's server CPUs."""

    tasks: List[Tuple[Tuple[int, ...], int, Optional[int]]]
    compute_cost: float  # virtual seconds per task
    expected: int


def task_graph(seed: int, n_tasks: int) -> TaskGraph:
    """Chain lanes of depth ~100, one all-to-all stage, one fan-in join."""
    rng = random.Random(seed)
    # near-zero work, seeded so that no two seeds give the same virtual times
    compute_cost = rng.uniform(0.8e-5, 1.2e-5)
    n_lanes = max(2, round(n_tasks / 102))
    width = min(16, n_lanes)
    tasks: List[Tuple[Tuple[int, ...], int, Optional[int]]] = []
    tails: List[int] = []
    lane_sums: List[int] = []
    # seeded lane depths of 90-110 that always sum to 100 per lane, so the op
    # count (and pull's quadratic readiness scans) does not vary with the seed
    depths = [rng.randint(90, 110) for _ in range(n_lanes)]
    excess = sum(depths) - 100 * n_lanes
    for i in range(abs(excess)):
        depths[i % n_lanes] -= 1 if excess > 0 else -1
    for depth in depths:
        consts = [rng.randint(1, 9) for _ in range(depth)]
        prev: Tuple[int, ...] = ()
        for const in consts:
            tasks.append((prev, const, None))
            prev = (len(tasks) - 1,)
        tails.append(prev[0])
        lane_sums.append(sum(consts))
    # all-to-all: `width` scatter tasks over a seeded split of the lane tails,
    # then `width` gather tasks that each read every scatter task.  The
    # scatter side is pinned alternately to the two servers: default push +
    # locality otherwise keeps the whole graph on one CPU and the fabric
    # metrics would read exactly zero.
    order = list(range(n_lanes))
    rng.shuffle(order)
    scatter_sum = 0
    scatter: List[int] = []
    for i in range(width):
        mine = order[i::width]
        const = rng.randint(1, 9)
        tasks.append((tuple(tails[lane] for lane in mine), const, i % 2))
        scatter.append(len(tasks) - 1)
        scatter_sum += sum(lane_sums[lane] for lane in mine) + const
    gather: List[int] = []
    gather_sum = 0
    for _ in range(width):
        const = rng.randint(1, 9)
        tasks.append((tuple(scatter), const, None))
        gather.append(len(tasks) - 1)
        gather_sum += scatter_sum + const
    tasks.append((tuple(gather) + tuple(tails), 0, None))
    return TaskGraph(tasks, compute_cost, expected=gather_sum + sum(lane_sums))


def _adder(const: int):
    def add(*xs: int) -> int:
        return sum(xs) + const

    return add


class TaskGraphWorkload(Workload):
    """Op = task.  Closed loop, one driver: every task submitted up front,
    then one get()."""

    def __init__(self, name: str, n_tasks: int, resolution: ResolutionMode):
        self.name = name
        self.n_tasks = n_tasks
        self.resolution = resolution

    def generate(self, seed: int, scale: float) -> List[TaskGraph]:
        return [task_graph(seed, max(40, round(self.n_tasks * scale)))]

    def ops(self, ep: TaskGraph, rt: ServerlessRuntime) -> int:
        return len(ep.tasks)

    def build(self, ep: TaskGraph) -> ServerlessRuntime:
        # everything but the resolution mode is the default gen2/locality config
        return ServerlessRuntime(
            build_physical_disagg(), RuntimeConfig(resolution=self.resolution)
        )

    def run(self, ep: TaskGraph, rt: ServerlessRuntime) -> int:
        cpus = ("server0/cpu", "server1/cpu")
        refs: List[Any] = []
        for deps, const, pin in ep.tasks:
            refs.append(
                rt.submit(
                    _adder(const),
                    tuple(refs[d] for d in deps),
                    compute_cost=ep.compute_cost,
                    output_nbytes=64,
                    pinned_device=None if pin is None else cpus[pin],
                )
            )
        return rt.get(refs[-1], timeout=GET_TIMEOUT)

    def check(self, ep: TaskGraph, rt: ServerlessRuntime, out: int) -> int:
        if out != ep.expected:
            raise OracleError(f"join returned {out}, closed form says {ep.expected}")
        if rt.tasks_failed:
            raise OracleError(f"{rt.tasks_failed} tasks failed")
        return len(ep.tasks)

    def observe(self, ep, rt, out, ok_ops) -> Observation:
        return _task_observation(rt, ok_ops)


# -- shuffle -----------------------------------------------------------------------------

MIB = 1 << 20
_MOD = 1_000_003


@dataclass
class Shuffle:
    """Stage 0 holds producer values; stage r task c returns
    ``sum(stage r-1) * mult % _MOD``.  Every task has a virtual output size
    and a server it is pinned to."""

    values: List[int]
    stages: List[List[Tuple[int, int, int]]]  # per task: (mult, nbytes, server)
    producers: List[Tuple[int, int]]  # per producer: (nbytes, server)
    expected: int


def shuffle_plan(seed: int, width: int, rounds: int, n_servers: int) -> Shuffle:
    rng = random.Random(seed)

    def nbytes() -> int:  # ~8 MiB virtual objects, seeded so makespans differ by seed
        return rng.randint(7 * MIB, 9 * MIB)

    values = [rng.randint(1, 1000) for _ in range(width)]
    offset = rng.randrange(n_servers)
    producers = [(nbytes(), (i + offset) % n_servers) for i in range(width)]
    stages = []
    prev = values
    for _r in range(rounds):
        offset = rng.randrange(n_servers)
        stage = [
            (rng.randint(2, 9), nbytes(), (c + offset) % n_servers)
            for c in range(width)
        ]
        total = sum(prev)
        prev = [total * mult % _MOD for mult, _, _ in stage]
        stages.append(stage)
    return Shuffle(values, stages, producers, expected=sum(prev))


def _const(value: int):
    return lambda: value


def _scaled_sum(mult: int):
    return lambda *xs: sum(xs) * mult % _MOD


class ShuffleWorkload(Workload):
    """Op = task.  Closed loop, one driver: every task submitted up front,
    then one get()."""

    name = "shuffle"
    # 64 producers feed 8 all-to-all rounds of 64 consumers (each round reads
    # the previous one), ~8 MiB virtual outputs: ~4 GiB of payload delivered,
    # ~32 GiB summed over link hops, ~600 k kernel events per repetition.
    WIDTH = 64
    ROUNDS = 8
    SERVERS = 8

    def generate(self, seed: int, scale: float) -> List[Shuffle]:
        rounds = max(1, round(self.ROUNDS * scale))
        width = self.WIDTH if scale >= 0.5 else 16
        return [shuffle_plan(seed, width, rounds, self.SERVERS)]

    def ops(self, ep: Shuffle, rt: ServerlessRuntime) -> int:
        return len(ep.producers) + sum(len(s) for s in ep.stages) + 1

    def build(self, ep: Shuffle) -> ServerlessRuntime:
        return ServerlessRuntime(build_serverful(n_servers=self.SERVERS), RuntimeConfig())

    def run(self, ep: Shuffle, rt: ServerlessRuntime) -> int:
        prev = [
            rt.submit(
                _const(value),
                compute_cost=1e-4,
                output_nbytes=nbytes,
                pinned_device=f"server{server}/cpu",
            )
            for value, (nbytes, server) in zip(ep.values, ep.producers, strict=True)
        ]
        for stage in ep.stages:
            prev = [
                rt.submit(
                    _scaled_sum(mult),
                    tuple(prev),
                    compute_cost=1e-4,
                    output_nbytes=nbytes,
                    pinned_device=f"server{server}/cpu",
                )
                for mult, nbytes, server in stage
            ]
        total = rt.submit(lambda *xs: sum(xs), tuple(prev), compute_cost=1e-4, output_nbytes=64)
        return rt.get(total, timeout=GET_TIMEOUT)

    def check(self, ep: Shuffle, rt: ServerlessRuntime, out: int) -> int:
        if out != ep.expected:
            raise OracleError(f"shuffle returned {out}, closed form says {ep.expected}")
        if rt.tasks_failed:
            raise OracleError(f"{rt.tasks_failed} tasks failed")
        return self.ops(ep, rt)

    def observe(self, ep, rt, out, ok_ops) -> Observation:
        return _task_observation(rt, ok_ops)


# -- sql_suite ---------------------------------------------------------------------------

# the four E15 query shapes; top-k breaks amount ties on oid so that the
# distributed plan and the oracle must agree row for row
QUERIES = {
    "scan_agg": (
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
        "SUM(l_extendedprice) AS sum_price, AVG(l_discount) AS avg_disc, "
        "COUNT(*) AS n FROM lineitem "
        "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag"
    ),
    "selective_filter": (
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
        "WHERE l_discount BETWEEN 0.02 AND 0.04 AND l_quantity < 24"
    ),
    "join_group": (
        "SELECT region, SUM(amount) AS revenue, COUNT(*) AS n FROM orders "
        "JOIN customers ON cust = cid WHERE amount > 10 "
        "GROUP BY region ORDER BY region"
    ),
    "top_k": "SELECT oid, amount FROM orders ORDER BY amount DESC, oid DESC LIMIT 10",
}
SQL_PASSES = 3


@dataclass
class SqlState:
    skadi: Skadi
    tables: Dict[str, Any]


@dataclass
class QueryResult:
    query: str
    batch: Any
    sim_seconds: float
    physical_tasks: int


class SqlSuiteWorkload(Workload):
    """Op = query.  Closed loop, one client: the next query starts when the
    last one returned."""

    name = "sql_suite"

    def generate(self, seed: int, scale: float) -> List[Dict[str, Any]]:
        rng = random.Random(seed)

        def rows(base: int) -> int:  # +-3 % so bytes and makespan differ by seed
            return max(200, round(base * scale * rng.uniform(0.97, 1.03)))

        return [
            {
                "lineitem": lineitem_like_table(rows(300_000), seed=seed),
                "orders": orders_table(rows(200_000), num_customers=1000, seed=seed + 1),
                "customers": customers_table(1000, seed=seed + 2),
            }
        ]

    def ops(self, ep, state: SqlState) -> int:
        return SQL_PASSES * len(QUERIES)

    def build(self, ep) -> SqlState:
        return SqlState(Skadi(shards=4), ep)

    def run(self, ep, state: SqlState) -> List[QueryResult]:
        results = []
        for _pass in range(SQL_PASSES):
            for name, sql in QUERIES.items():
                batch = state.skadi.sql(sql, state.tables)
                report = state.skadi.last_report
                results.append(
                    QueryResult(name, batch, report.sim_seconds, report.physical_tasks)
                )
        return results

    def check(self, ep, state: SqlState, out: List[QueryResult]) -> int:
        catalog = {
            name: FrameType(tuple((f.name, f.dtype.name) for f in batch.schema.fields))
            for name, batch in ep.items()
        }
        oracle = {
            name: run_function(sql_to_ir(sql, catalog), tables=ep)[0]
            for name, sql in QUERIES.items()
        }
        problems = []
        for result in out:
            want, got = oracle[result.query], result.batch
            if got.num_rows != want.num_rows or got.schema != want.schema:
                problems.append(f"{result.query}: rows/schema differ")
                continue
            for column in got.schema.names:
                a, b = got.column(column), want.column(column)
                same = (
                    np.allclose(a, b, rtol=1e-9, atol=0.0)
                    if a.dtype.kind == "f"
                    else np.array_equal(a, b)
                )
                if not same:
                    problems.append(f"{result.query}: column {column} differs")
                    break
        if len(out) != self.ops(ep, state):
            problems.append(f"{len(out)} of {self.ops(ep, state)} queries returned")
        if problems:
            raise OracleError("; ".join(sorted(set(problems))))
        return len(out)

    def observe(self, ep, state: SqlState, out, ok_ops) -> Observation:
        rt = state.skadi.runtime
        counts = runtime_counts(rt)
        counts["queries"] = len(out)
        counts["physical_tasks"] = sum(r.physical_tasks for r in out)
        return Observation(
            counts=counts,
            latencies_s=[r.sim_seconds for r in out],
            slo_ok_ops=ok_ops,
            signature=_signature(rt),
        )


# -- serving -----------------------------------------------------------------------------

# the E23 frontend configuration (pacing, fair queueing, quotas, SLO deadlines,
# admission control, retry budgets)
SERVING_SWITCHES = dict(
    serving_fair_queueing=True,
    serving_tenant_isolation=True,
    serving_slo_deadlines=True,
    serving_max_inflight=8,
    serving_queue_depth=32,
    admission_control=True,
    admission_queue_depth=16,
    retry_budget=True,
    retry_budget_ratio=0.1,
    retry_budget_cap=20.0,
)
SERVING_RATE = 360.0  # req/s: 0.9 x the 400 req/s a 16-slot server sustains
SERVING_DURATION = 20.0  # virtual seconds of arrivals
SERVING_SLO = 0.25  # virtual seconds; the benchmark's own limit, not a tenant's
SERVING_DRAIN = 5.0  # virtual seconds the queue may take to empty afterwards
# The trigger's slowdown.  4x turns a 2e-2 s task into 8e-2 s = task_timeout, so
# every task *started* inside the window times out once.  E23 holds it for
# 0.10 s, which lets the retries (5 ms backoff) start inside the window too and
# time out again: 16-26 retries depending on the seed, and on about one seed
# in thirty more than the retry budget's cap of 20, which cancels the
# requests.  At 0.07 s (< task_timeout) a retry always starts after the window,
# so there is one wave of at most serving_max_inflight x 2 parallel stages =
# 16 retries < 20 on every seed: the retry path runs, and no request fails.
SERVING_SLOW_FACTOR = 4.0
SERVING_SLOW_S = 0.07


@dataclass
class ServingSpec:
    seed: int
    duration: float


@dataclass
class ServingState:
    rt: ServerlessRuntime
    frontend: ServingFrontend
    monkey: ChaosMonkey
    requests: list
    horizon: float
    workload_gen_cpu_s: float


class ServingWorkload(Workload):
    """Op = offered request.  Open loop in virtual time: seeded Poisson
    arrivals pinned to the virtual clock, so the generator is never late."""

    name = "serving"

    def generate(self, seed: int, scale: float) -> List[ServingSpec]:
        return [ServingSpec(seed, max(0.3, SERVING_DURATION * scale))]

    @staticmethod
    def _generator(ep: ServingSpec, tenants: TenantRegistry) -> WorkloadGenerator:
        # one E23 trigger mid-run: a 2x-capacity spike for 0.15 s ...
        spike = LoadBurst(ep.duration / 2, n_tasks=120, duration=0.15, seed=ep.seed + 1)
        return WorkloadGenerator(
            tenants, rate=SERVING_RATE, duration=ep.duration, seed=ep.seed, bursts=(spike,)
        )

    def build(self, ep: ServingSpec) -> ServingState:
        # server0 is the head (control plane only), server1 the one 16-slot
        # worker: control frames then cross the fabric, which keeps
        # fabric_bytes_per_op off zero without changing serving capacity
        rt = ServerlessRuntime(
            build_serverful(n_servers=2),
            RuntimeConfig(
                resolution=ResolutionMode.PULL,
                task_timeout=0.08,
                max_retries=8,
                retry_backoff_base=5e-3,
                **SERVING_SWITCHES,
            ),
        )
        rt.scheduler.blacklist("server0/cpu")
        tenants = TenantRegistry(100_000)
        started = time.process_time()
        requests = self._generator(ep, tenants).requests()
        workload_gen_cpu_s = time.process_time() - started
        # ... landing on a device slowed 4x for 0.07 s
        slow = ChaosSchedule().slow_device(
            ep.duration / 2 + 0.01, "server1/cpu", SERVING_SLOW_FACTOR, duration=SERVING_SLOW_S
        )
        monkey = ChaosMonkey(rt, slow).arm()
        return ServingState(
            rt,
            ServingFrontend(rt, tenants),
            monkey,
            requests,
            ep.duration + SERVING_DRAIN,
            workload_gen_cpu_s,
        )

    def ops(self, ep: ServingSpec, state: ServingState) -> int:
        return len(state.requests)

    def run(self, ep: ServingSpec, state: ServingState) -> ServingFrontend:
        state.frontend.play(state.requests)
        state.rt.sim.run(until=state.horizon)
        return state.frontend

    def check(self, ep, state: ServingState, fe: ServingFrontend) -> int:
        shed = sum(fe.shed.values())
        if fe.offered != len(state.requests):
            raise OracleError(f"offered {fe.offered} of {len(state.requests)} requests")
        if fe.offered != fe.completed + fe.failed + shed:
            # requests still open when the virtual drain limit expired
            raise OracleError(
                f"offered {fe.offered} != completed {fe.completed} + failed "
                f"{fe.failed} + shed {shed}"
            )
        # a refused request is not a failed op (it misses the latency limit
        # instead); a request that died inside the runtime is
        return fe.offered - fe.failed

    def observe(self, ep, state: ServingState, fe: ServingFrontend, ok_ops) -> Observation:
        counts = runtime_counts(state.rt)
        counts.update(
            faults_injected=len(state.monkey.injected),
            serving_offered=fe.offered,
            serving_completed=fe.completed,
            serving_shed=sum(fe.shed.values()),
            serving_failed=fe.failed,
        )
        return Observation(
            counts=counts,
            latencies_s=list(fe.latencies),
            slo_ok_ops=sum(1 for lat in fe.latencies if lat <= SERVING_SLO),
            signature=_signature(state.rt),
            host_cpu_s={"workload_gen_s": state.workload_gen_cpu_s},
        )


# -- chaos_soak --------------------------------------------------------------------------

CHAOS_EPISODES = 16
CHAOS_LANES = 16
CHAOS_DEPTH = 20
CHAOS_TASK_COST = 4e-3
CHAOS_SERVERS = 4
CHAOS_SCHEDULE_SEEDS = 1024

# ChaosSchedule.random seeds in range(CHAOS_SCHEDULE_SEEDS) that crash the
# runtime itself at the commit this benchmark was written against, with an
# untyped "KeyError: object ... not in store" or "'NoneType' object has no
# attribute 'end_fetch'" (a pull still in flight when its task is re-queued).
# The soak draws its episodes from the remaining seeds, because the benchmark
# contract wants workloads on which no operation fails; the failure isolation
# below still records any crash a later commit introduces, and the smoke test
# replays one of these seeds to prove it.  See the README, "Known crashes".
CHAOS_CRASHING_SEEDS: frozenset = frozenset(
    (
        6, 20, 22, 23, 25, 32, 54, 77, 138, 201, 248, 251, 255, 268, 272, 276, 306,
        329, 338, 362, 375, 387, 399, 402, 419, 432, 436, 454, 460, 486, 510, 528,
        536, 540, 573, 608, 615, 617, 644, 671, 672, 736, 757, 764, 772, 785, 786,
        830, 834, 846, 867, 921, 927, 936, 938, 939, 967, 991, 996, 1005, 1012,
        1016, 1018,
    )
)


class Auditor:
    """Idempotent accumulator actor: at-least-once re-execution is harmless.
    Module-level because checkpointing pickles actor state."""

    def __init__(self):
        self.seen = set()


def mark(state: Auditor, lane: int) -> int:
    state.seen.add(lane)
    return len(state.seen)


def audit_size(state: Auditor) -> int:
    return len(state.seen)


def _lane_start(value: int):
    return lambda: value


def _increment(x: int) -> int:
    return x + 1


@dataclass
class ChaosEpisode:
    schedule_seed: int
    lane_starts: List[int]


@dataclass
class ChaosState:
    rt: ServerlessRuntime
    monkey: ChaosMonkey
    auditor: Any


class ChaosSoakWorkload(Workload):
    """Op = task.  Closed loop, one driver per episode: tasks submitted up
    front, then get()."""

    name = "chaos_soak"

    def generate(self, seed: int, scale: float) -> List[ChaosEpisode]:
        rng = random.Random(seed)
        pool = sorted(set(range(CHAOS_SCHEDULE_SEEDS)) - CHAOS_CRASHING_SEEDS)
        n = max(1, round(CHAOS_EPISODES * scale))
        return [
            ChaosEpisode(s, [rng.randint(0, 99) for _ in range(CHAOS_LANES)])
            for s in rng.sample(pool, n)
        ]

    def ops(self, ep: ChaosEpisode, state: ChaosState) -> int:
        # lane tasks + join + one actor call per lane + the audit read
        return CHAOS_LANES * CHAOS_DEPTH + 1 + CHAOS_LANES + 1

    @staticmethod
    def schedule(schedule_seed: int) -> ChaosSchedule:
        fallible = [f"server{i}" for i in range(1, CHAOS_SERVERS)]  # never the head
        return ChaosSchedule.random(
            schedule_seed,
            node_ids=fallible,
            device_ids=[f"{node}/cpu" for node in fallible],
            horizon=CHAOS_DEPTH * CHAOS_TASK_COST,  # ~ the fault-free makespan
            n_crashes=2,
            n_partitions=1,
            n_stragglers=1,
        )

    def build(self, ep: ChaosEpisode) -> ChaosState:
        cluster = build_serverful(n_servers=CHAOS_SERVERS)
        rt = ServerlessRuntime(
            cluster,
            RuntimeConfig(
                resolution=ResolutionMode.PULL,
                heartbeat_interval=1e-3,
                heartbeat_miss_threshold=3,
                max_retries=10,
                retry_backoff_base=2e-3,
                speculation_factor=4.0,
                actor_checkpoint_every=1,
            ),
            reliable_cache=make_reliable_cache(cluster, ReplicationScheme(2)),
        )
        schedule = self.schedule(ep.schedule_seed)
        monkey = ChaosMonkey(rt, schedule).arm()
        # home the auditor on a node the schedule will crash
        victim = next(f.node_id for f in schedule if isinstance(f, NodeCrash))
        home = cluster.node(victim).first_of_kind(DeviceKind.CPU)
        auditor = rt.create_actor(Auditor, pinned_device=home.device_id)
        return ChaosState(rt, monkey, auditor)

    def run(self, ep: ChaosEpisode, state: ChaosState) -> Tuple[int, int]:
        rt = state.rt
        tails = []
        for start in ep.lane_starts:
            ref = rt.submit(_lane_start(start), compute_cost=CHAOS_TASK_COST)
            for _ in range(CHAOS_DEPTH - 1):
                ref = rt.submit(_increment, (ref,), compute_cost=CHAOS_TASK_COST)
            tails.append(ref)
        total = rt.submit(lambda *xs: sum(xs), tuple(tails), compute_cost=1e-3)
        audits = [
            state.auditor.call(mark, lane, compute_cost=1e-3)
            for lane in range(CHAOS_LANES)
        ]
        answer = rt.get(total, timeout=GET_TIMEOUT)
        rt.get(audits, timeout=GET_TIMEOUT)
        audited = rt.get(
            state.auditor.call(audit_size, compute_cost=1e-3), timeout=GET_TIMEOUT
        )
        return answer, audited

    def check(self, ep: ChaosEpisode, state: ChaosState, out: Tuple[int, int]) -> int:
        answer, audited = out
        expected = sum(ep.lane_starts) + CHAOS_LANES * (CHAOS_DEPTH - 1)
        if answer != expected:
            raise OracleError(f"soak returned {answer}, closed form says {expected}")
        if audited != CHAOS_LANES:
            raise OracleError(f"auditor saw {audited} of {CHAOS_LANES} lanes")
        if state.rt.tasks_failed:
            raise OracleError(f"{state.rt.tasks_failed} tasks failed")
        return self.ops(ep, state)

    def observe(self, ep, state: ChaosState, out, ok_ops) -> Observation:
        obs = _task_observation(state.rt, ok_ops)
        obs.counts["faults_injected"] = len(state.monkey.injected)
        return obs


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # ~10 k near-zero-work tasks: ~1.4 s of host time at ~140 us/task
        TaskGraphWorkload("taskgraph_push", 10_000, ResolutionMode.PUSH),
        # pull pays ~1.2 ms/task (quadratic readiness scans), so 2 k tasks
        TaskGraphWorkload("taskgraph_pull", 2_000, ResolutionMode.PULL),
        ShuffleWorkload(),
        SqlSuiteWorkload(),
        ServingWorkload(),
        ChaosSoakWorkload(),
    )
}

