"""BENCH_SIMCORE — events/sec on the simulator core vs. the frozen seed.

The flagship scenarios (E17 soak, E21 data plane, E22/E23 overload+serving,
E25 HA) all bottom out in ``repro.cluster.simtime``; at serving scale the
event loop *is* the hardware.  This module measures the loop itself on
process soups shaped like the flagship scenarios' event mixes — stripped of
model code so the numbers attribute to the kernel, not to scheduler or
placement logic (the "Runtime vs Scheduler" decomposition from the Dask
overhead paper, applied to our own substrate).

Four kernels:

* ``e17_soak_loop`` — the E17 chaos-soak mix, heartbeat-dominated like the
  real soak: per-endpoint senders and blade probes every 1 ms shipping
  multi-hop control messages, a monitor tick, and DAG task lanes with
  execution-slot grants, scattered compute timeouts, chaos interrupts and
  retries.
* ``e21_transfer_loop`` — the E21 data-plane mix: chunked cut-through
  pipelines as channel/grant/timeout chains over contended links.
* ``zero_delay_loop`` — pure same-instant traffic: resolved-future yields,
  ``timeout(0)`` hops, channel ping-pong.  Stresses the microtask ring and
  the inline resumption fast path.
* ``idle_poll`` — 1 ms pollers over long idle spans with sparse real work.
  Stresses the opt-in idle fast-forward.

Each kernel runs under three stages::

    seed        the frozen pre-rebuild kernel (bench/legacy_simtime.py)
    live        repro.cluster.simtime as shipped
    fastforward live + analytic idle skip (only meaningful for idle_poll)

``seed`` and ``live`` must produce a bit-for-bit identical execution — the
kernels record completion traces and the harness asserts the checksums
match (fast-forward is exempt: it coalesces poller wake-ups by design, so
only its model-visible trace is compared).

Run directly for a table + JSON::

    python -m repro.bench.simcore --json BENCH_SIMCORE.json
    python -m repro.bench.simcore --check new.json baselines/BENCH_SIMCORE.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench import legacy_simtime
from repro.cluster import simtime

__all__ = [
    "STAGES",
    "KERNELS",
    "run_stage",
    "run_kernel",
    "run_benchmarks",
    "compare_results",
]

STAGES: List[str] = ["seed", "live", "fastforward"]


def _checksum(trace: List) -> str:
    return hashlib.md5(repr(trace).encode()).hexdigest()[:16]


def _cancel_grant(resource: Any, grant: Any) -> None:
    """Withdraw a resource grant, portably across kernel generations.

    The live kernel has ``Resource.cancel``; the frozen seed kernel predates
    it (the slot-leak satellite fix), so the same logic is applied by hand
    there to keep the executions comparable.
    """
    cancel = getattr(resource, "cancel", None)
    if cancel is not None:
        cancel(grant)
        return
    try:
        resource._queue.remove(grant)
    except ValueError:
        resource.release()


# ---------------------------------------------------------------------------
# kernels — each takes the simtime module to run against (the live one or
# the frozen seed) and returns (full_trace, model_trace).  full_trace must
# be bit-for-bit stable across every exact stage *and* the seed kernel;
# model_trace additionally across fast-forward (it excludes poller-
# observation timing).
# ---------------------------------------------------------------------------


def e17_soak_kernel(mod: Any, sim: Any, scale: float = 1.0) -> Tuple[List, List]:
    """The E17 chaos-soak event mix as a pure kernel loop.

    Shaped like the real soak (``benchmarks/test_e17_chaos_soak.py``):
    build_serverful(4) with ``heartbeat_interval=1e-3`` means the event
    stream is dominated by liveness traffic — per-endpoint heartbeat
    senders and per-blade probes every millisecond, each shipping a
    multi-hop message process — over a bed of DAG task lanes contending for
    capacity-2 execution slots, with chaos interrupts forcing retries.
    """
    rng = random.Random(0xE17)
    n_servers = 4
    n_endpoints = 10  # raylet endpoints beating (serverful(4): cpus + head)
    n_blades = 4
    lanes = 16
    depth = max(1, int(100 * scale))
    hb_interval = 1e-3
    hop_latency = 25e-6
    slots = [
        mod.Resource(sim, capacity=2, name=f"server{i}") for i in range(n_servers)
    ]
    active = [True]
    trace: List = []
    # Hoist the factory lookups once for the whole kernel: the metric
    # targets the event loop, so the harness keeps its own attribute-lookup
    # overhead out of the measurement (the event mix is unchanged — both
    # kernel generations run this exact code).
    timeout = sim.timeout
    process = sim.process
    uniform = rng.uniform
    rand = rng.random

    # Every message terminates in the head node's inbox, exactly like the
    # real soak (beats land in the health monitor's receive loop, results in
    # the owning raylet's) — each delivery is a zero-delay channel hand-off,
    # which is what makes ``schedule(0.0, ...)`` ~half of all pushes in real
    # runs (see ISSUE/ROADMAP item 3).
    inbox = mod.Channel(sim, name="head_inbox")
    beats = [0]

    def hop_message(payload):  # the 2-hop message body, hop loop unrolled
        yield timeout(hop_latency)
        yield timeout(hop_latency)
        inbox.put(payload)

    def hop_message1(payload):
        yield timeout(hop_latency)
        inbox.put(payload)

    def head_receiver():
        while active[0]:
            yield inbox.get()
            beats[0] += 1

    def heartbeat_sender(endpoint: int):
        while active[0]:
            yield timeout(hb_interval)
            # beat to the head node: serialize + 2 hops, fire-and-forget
            process(hop_message(endpoint), name="hb")

    def blade_prober(blade: int):
        while active[0]:
            yield timeout(hb_interval)
            process(hop_message1(blade), name="probe")

    def monitor():
        while active[0]:
            yield timeout(hb_interval)

    def task(lane: int, d: int):
        server = (lane + d) % n_servers
        grant = slots[server].request()
        try:
            yield grant
        except mod.Interrupt:
            _cancel_grant(slots[server], grant)
            return "killed"
        try:
            try:
                yield timeout(uniform(2e-3, 8e-3))
            finally:
                slots[server].release()
            # ship the result over two hops, then surface a resolved future
            yield process(hop_message((lane, d)), name="result")
        except mod.Interrupt:
            return "killed"
        ready = mod.Signal(sim)
        ready.succeed(d)
        yield ready  # a consumer waiting on an already-resolved object
        return "ok"

    def killer(victim: Any, after: float):
        yield timeout(after)
        if not victim.triggered:
            victim.interrupt("chaos")

    def lane_proc(lane: int):
        for d in range(depth):
            for attempt in (0, 1):
                p = process(task(lane, d), name=f"task{lane}.{d}")
                if attempt == 0 and rand() < 0.10:
                    process(killer(p, uniform(5e-4, 4e-3)), name="chaos")
                outcome = yield p
                if outcome == "ok":
                    break
            trace.append((lane, d, round(sim.now, 9)))

    for e in range(n_endpoints):
        sim.process(heartbeat_sender(e), name=f"hb{e}")
    for b in range(n_blades):
        sim.process(blade_prober(b), name=f"blade{b}")
    sim.process(monitor(), name="monitor")
    sim.process(head_receiver(), name="head_rx")

    def workload():
        yield mod.AllOf(sim, [sim.process(lane_proc(ln)) for ln in range(lanes)])
        active[0] = False

    sim.process(workload(), name="workload")
    sim.run()
    trace.append(beats[0])
    trace.append(round(sim.now, 9))
    return trace, trace


def e21_transfer_kernel(mod: Any, sim: Any, scale: float = 1.0) -> Tuple[List, List]:
    """The E21 data-plane mix: chunked cut-through pipelines.

    Each route is a 4-stage forwarder chain (channel get → link grant →
    per-chunk latency → release → downstream put) over a shared pool of
    links, so chunk arrivals pile onto shared instants under contention.
    """
    n_routes = max(1, int(48 * scale))
    n_chunks = 24
    hops = 4
    chunk_time = 4e-5
    links = [mod.Resource(sim, capacity=1, name=f"link{i}") for i in range(6)]
    trace: List = []

    def forwarder(route: int, hop: int, inbox: Any, outbox: Optional[Any]):
        link = links[(route + hop) % len(links)]
        for _ in range(n_chunks):
            chunk = yield inbox.get()
            yield link.request()
            try:
                yield sim.timeout(chunk_time)
            finally:
                link.release()
            if outbox is not None:
                outbox.put(chunk)
            else:
                trace.append((route, chunk, round(sim.now, 9)))

    def source(route: int, inbox: Any):
        for c in range(n_chunks):
            inbox.put(c)
            yield sim.timeout(chunk_time)

    for r in range(n_routes):
        chans = [mod.Channel(sim, name=f"r{r}h{h}") for h in range(hops)]
        sim.process(source(r, chans[0]), name=f"src{r}")
        for h in range(hops):
            nxt = chans[h + 1] if h + 1 < hops else None
            sim.process(forwarder(r, h, chans[h], nxt), name=f"fwd{r}.{h}")
    sim.run()
    trace.append(round(sim.now, 9))
    return trace, trace


def zero_delay_kernel(mod: Any, sim: Any, scale: float = 1.0) -> Tuple[List, List]:
    """Pure same-instant traffic: ring + inline-resumption stress."""
    n_workers = 64
    rounds = max(1, int(400 * scale))
    ch = mod.Channel(sim, name="ring")
    trace: List = []

    def worker(i: int):
        total = 0
        for k in range(rounds):
            sig = mod.Signal(sim)
            sig.succeed(k)
            total += yield sig  # resolved future: inline fast path
            yield sim.timeout(0.0)  # explicit trampoline hop
            ch.put((i, k))
            got = yield ch.get()
            total += got[1]
        trace.append((i, total))

    for i in range(n_workers):
        sim.process(worker(i), name=f"w{i}")
    sim.run()
    trace.append(round(sim.now, 9))
    return trace, trace


def idle_poll_kernel(mod: Any, sim: Any, scale: float = 1.0) -> Tuple[List, List]:
    """Pollers every 1 ms across long idle spans; work every 250 ms.

    The poller bodies are pure observations, so the idle fast-forward may
    coalesce their wake-ups; ``model_trace`` holds only the work-visible
    part, which must be identical with and without fast-forward.
    """
    n_pollers = 8
    n_work = max(1, int(8 * scale))
    active = [True]
    observed = [0]
    model_trace: List = []
    poll = getattr(sim, "poll_timeout", sim.timeout)  # seed kernel: plain tick

    def poller(i: int):
        while active[0]:
            yield poll(1e-3)
            observed[0] += 1

    def worker():
        for k in range(n_work):
            yield sim.timeout(0.25)
            model_trace.append((k, round(sim.now, 9)))
        active[0] = False

    for i in range(n_pollers):
        sim.process(poller(i), name=f"poll{i}")
    sim.process(worker(), name="worker")
    sim.run()
    # The final drain time (the last poller wake-up after the work ends) is
    # exact-stage state, not model state: a deferred tick re-arms from its
    # jump target, so its successor differs from the accumulated tick chain
    # in the last float ulp.  The exact stages still pin it via ``full``.
    full = model_trace + [round(sim.now, 9), observed[0]]
    return full, list(model_trace)


KERNELS: List[Tuple[str, Callable[[Any, Any, float], Tuple[List, List]]]] = [
    ("e17_soak_loop", e17_soak_kernel),
    ("e21_transfer_loop", e21_transfer_kernel),
    ("zero_delay_loop", zero_delay_kernel),
    ("idle_poll", idle_poll_kernel),
]


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def run_stage(
    kernel: Callable[[Any, Any, float], Tuple[List, List]],
    stage: str,
    scale: float,
) -> Dict[str, Any]:
    if stage == "seed":
        mod: Any = legacy_simtime
        sim = legacy_simtime.Simulator()
    else:
        mod = simtime
        sim = simtime.Simulator()
        sim.fast_forward = stage == "fastforward"
    t0 = time.perf_counter()
    full_trace, model_trace = kernel(mod, sim, scale)
    wall = time.perf_counter() - t0
    if stage == "seed":
        # the frozen kernel predates events_executed(): every scheduled
        # event except the still-pending ones was dispatched
        events = sim._seq - len(sim._queue)
        inline = 0
    else:
        events = sim.events_executed()
        inline = sim.inline_steps
    result: Dict[str, Any] = {
        "wall_s": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "inline_steps": inline,
        "checksum": _checksum(full_trace),
        "model_checksum": _checksum(model_trace),
    }
    if stage == "fastforward":
        result["ff_jumps"] = sim.ff_jumps
        result["ff_ticks_deferred"] = sim.ff_ticks_deferred
    return result


def run_kernel(
    name: str,
    kernel: Callable[[Any, Any, float], Tuple[List, List]],
    scale: float,
    repeats: int = 1,
) -> Dict[str, Any]:
    # Interleave the repeats round-robin across stages (not stage-by-stage):
    # machine-speed drift within one benchmark run then biases every stage
    # equally instead of penalizing whichever stage happens to run last;
    # best-of-rounds per stage does the rest.
    stages: Dict[str, Dict[str, Any]] = {}
    for _ in range(max(1, repeats)):
        for stage in STAGES:
            r = run_stage(kernel, stage, scale)
            best = stages.get(stage)
            if best is None or r["wall_s"] < best["wall_s"]:
                stages[stage] = r

    # Bit-for-bit witness: the live kernel replays the frozen seed kernel's
    # execution.
    exact = [s for s in STAGES if s != "fastforward"]
    checks = {stages[s]["checksum"] for s in exact}
    if len(checks) != 1:
        raise AssertionError(
            f"{name}: stages diverged: "
            + ", ".join(f"{s}={stages[s]['checksum']}" for s in exact)
        )
    # Fast-forward must preserve the model-visible execution.
    if stages["fastforward"]["model_checksum"] != stages["live"]["model_checksum"]:
        raise AssertionError(f"{name}: fast-forward changed the model-visible trace")

    base = stages["seed"]["events_per_sec"]
    for s, r in stages.items():
        r["speedup_vs_seed"] = r["events_per_sec"] / base if base > 0 else 0.0
    # Wall-clock attribution for fast-forward (it *removes* events, so
    # events/sec is the wrong lens for it).
    ff, live = stages["fastforward"], stages["live"]
    ff["wall_speedup_vs_live"] = (
        live["wall_s"] / ff["wall_s"] if ff["wall_s"] > 0 else 0.0
    )
    return {
        "scale": scale,
        "events": stages["seed"]["events"],
        "stages": stages,
        "speedup_total": stages["live"]["speedup_vs_seed"],
    }


def run_benchmarks(scale: float = 1.0, repeats: int = 1) -> Dict[str, Any]:
    kernels = {
        name: run_kernel(name, fn, scale, repeats=repeats) for name, fn in KERNELS
    }
    return {"experiment": "SIMCORE", "scale": scale, "kernels": kernels}


# ---------------------------------------------------------------------------
# regression check (CI)
# ---------------------------------------------------------------------------

REGRESSION_TOLERANCE = 0.20  # >20% speedup-vs-seed drop vs. baseline fails


def compare_results(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = REGRESSION_TOLERANCE,
) -> List[str]:
    """Return a list of regression messages (empty = within tolerance).

    Compares each stage's ``speedup_vs_seed``, not raw events/sec: the
    frozen seed kernel runs in the same process, so the ratio cancels out
    machine speed and a CI runner can be meaningfully held against a
    baseline committed from a faster box.  A >``tolerance`` drop in the
    ratio means the fast path itself regressed relative to the seed.
    """
    problems: List[str] = []
    for name, base_k in baseline.get("kernels", {}).items():
        cur_k = current.get("kernels", {}).get(name)
        if cur_k is None:
            problems.append(f"{name}: kernel missing from current results")
            continue
        for stage, base_s in base_k.get("stages", {}).items():
            cur_s = cur_k.get("stages", {}).get(stage)
            if cur_s is None:
                problems.append(f"{name}/{stage}: stage missing from current results")
                continue
            base_ratio = base_s.get("speedup_vs_seed", 0.0)
            cur_ratio = cur_s.get("speedup_vs_seed", 0.0)
            if base_ratio > 0 and cur_ratio < base_ratio * (1.0 - tolerance):
                problems.append(
                    f"{name}/{stage}: {cur_ratio:.2f}x vs seed is "
                    f"{(1 - cur_ratio / base_ratio) * 100:.0f}% below the "
                    f"baseline's {base_ratio:.2f}x"
                )
    return problems


def render_table(results: Dict[str, Any]) -> str:
    from repro.bench.harness import ResultTable

    table = ResultTable(
        "SIMCORE: simulator-core events/sec, live kernel vs. the frozen seed",
        ["kernel", "stage", "events", "wall", "M ev/s", "vs seed"],
    )
    for name, k in results["kernels"].items():
        for stage, r in k["stages"].items():
            extra = ""
            if stage == "fastforward":
                extra = (
                    f" ({r['ff_jumps']} jumps, "
                    f"{r['wall_speedup_vs_live']:.1f}x wall vs live)"
                )
            table.add_row(
                name,
                stage,
                r["events"],
                f"{r['wall_s'] * 1e3:7.1f} ms",
                f"{r['events_per_sec'] / 1e6:6.3f}",
                f"{r['speedup_vs_seed']:5.2f}x" + extra,
            )
    return table.to_text()


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=1.0, help="kernel size multiplier")
    ap.add_argument("--repeats", type=int, default=1, help="take best-of-N walls")
    ap.add_argument("--json", metavar="PATH", help="write results JSON here")
    ap.add_argument(
        "--check",
        nargs=2,
        metavar=("CURRENT", "BASELINE"),
        help="compare two result JSONs; exit 1 on >20%% speedup-vs-seed regression",
    )
    args = ap.parse_args(argv)

    if args.check:
        with open(args.check[0]) as fh:
            current = json.load(fh)
        with open(args.check[1]) as fh:
            baseline = json.load(fh)
        problems = compare_results(current, baseline)
        if problems:
            print("BENCH_SIMCORE regression vs. committed baseline:")
            for p in problems:
                print(f"  REGRESSION {p}")
            return 1
        print("BENCH_SIMCORE: within tolerance of the committed baseline")
        return 0

    results = run_benchmarks(scale=args.scale, repeats=args.repeats)
    print(render_table(results))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
