"""BENCH_SIMCORE — events/sec on the simulator core, checked against goldens.

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
  Stresses the calendar with timer-heavy traffic: every tick is simulated.

Every run is a determinism witness: :data:`GOLDEN` holds the trace checksum
and executed-event count the frozen pre-rebuild kernel (one binary heap,
dataclass events, trampolined zero-delay hops) produced for each kernel at
each recorded scale, and :func:`run_kernel` raises unless the live kernel
reproduces both.  Kernel speed across commits is the ledger's
``simtime.events_per_cpu_s``; the events/sec printed here is this host's.

Run directly for a table + JSON (exit 1 on a golden mismatch or a scale
with no golden)::

    python -m repro.bench.simcore --scale 0.1
    python -m repro.bench.simcore --json BENCH_SIMCORE.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster import simtime

__all__ = [
    "GOLDEN",
    "KERNELS",
    "check_golden",
    "checksum",
    "run_kernel",
    "run_benchmarks",
]

# (kernel, scale) -> (trace checksum, events executed), as the frozen
# pre-rebuild kernel ran them.
GOLDEN: Dict[Tuple[str, float], Tuple[str, int]] = {
    ("e17_soak_loop", 0.1): ("819272d0716f7680", 8514),
    ("e17_soak_loop", 0.5): ("534f26e16a04864f", 42125),
    ("e17_soak_loop", 1.0): ("562f4ede1fc3f337", 84570),
    ("e21_transfer_loop", 0.1): ("777433f073505396", 1268),
    ("e21_transfer_loop", 0.5): ("7213980ca7c229fd", 7608),
    ("e21_transfer_loop", 1.0): ("9b36686211d7273d", 15216),
    ("zero_delay_loop", 0.1): ("ef739b8a909cfb33", 7744),
    ("zero_delay_loop", 0.5): ("d7395bfb974f598f", 38464),
    ("zero_delay_loop", 1.0): ("934f190998f592c6", 76864),
    ("idle_poll", 0.1): ("b405aeef9c335e53", 2010),
    ("idle_poll", 0.5): ("2e12cb444956673f", 8013),
    ("idle_poll", 1.0): ("1d5c4a91456b3082", 16025),
}


def checksum(trace: Any) -> str:
    return hashlib.md5(repr(trace).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# kernels — each runs on the simulator it is given and returns its
# completion trace.
# ---------------------------------------------------------------------------


def e17_soak_kernel(sim: simtime.Simulator, scale: float) -> List:
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
        simtime.Resource(sim, capacity=2, name=f"server{i}") for i in range(n_servers)
    ]
    active = [True]
    trace: List = []
    # Hoist the factory lookups once for the whole kernel: the metric
    # targets the event loop, so the harness keeps its own attribute-lookup
    # overhead out of the measurement.
    timeout = sim.timeout
    process = sim.process
    uniform = rng.uniform
    rand = rng.random

    # Every message terminates in the head node's inbox, exactly like the
    # real soak (beats land in the health monitor's receive loop, results in
    # the owning raylet's) — each delivery is a zero-delay channel hand-off,
    # which is what makes ``schedule(0.0, ...)`` ~half of all pushes in real
    # runs.
    inbox = simtime.Channel(sim, name="head_inbox")
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
        except simtime.Interrupt:
            slots[server].cancel(grant)
            return "killed"
        try:
            try:
                yield timeout(uniform(2e-3, 8e-3))
            finally:
                slots[server].release()
            # ship the result over two hops, then surface a resolved future
            yield process(hop_message((lane, d)), name="result")
        except simtime.Interrupt:
            return "killed"
        ready = simtime.Signal(sim)
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
        yield simtime.AllOf(sim, [sim.process(lane_proc(ln)) for ln in range(lanes)])
        active[0] = False

    sim.process(workload(), name="workload")
    sim.run()
    trace.append(beats[0])
    trace.append(round(sim.now, 9))
    return trace


def e21_transfer_kernel(sim: simtime.Simulator, scale: float) -> List:
    """The E21 data-plane mix: chunked cut-through pipelines.

    Each route is a 4-stage forwarder chain (channel get → link grant →
    per-chunk latency → release → downstream put) over a shared pool of
    links, so chunk arrivals pile onto shared instants under contention.
    """
    n_routes = max(1, int(48 * scale))
    n_chunks = 24
    hops = 4
    chunk_time = 4e-5
    links = [simtime.Resource(sim, capacity=1, name=f"link{i}") for i in range(6)]
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
        chans = [simtime.Channel(sim, name=f"r{r}h{h}") for h in range(hops)]
        sim.process(source(r, chans[0]), name=f"src{r}")
        for h in range(hops):
            nxt = chans[h + 1] if h + 1 < hops else None
            sim.process(forwarder(r, h, chans[h], nxt), name=f"fwd{r}.{h}")
    sim.run()
    trace.append(round(sim.now, 9))
    return trace


def zero_delay_kernel(sim: simtime.Simulator, scale: float) -> List:
    """Pure same-instant traffic: ring + inline-resumption stress."""
    n_workers = 64
    rounds = max(1, int(400 * scale))
    ch = simtime.Channel(sim, name="ring")
    trace: List = []

    def worker(i: int):
        total = 0
        for k in range(rounds):
            sig = simtime.Signal(sim)
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
    return trace


def idle_poll_kernel(sim: simtime.Simulator, scale: float) -> List:
    """Pollers every 1 ms across long idle spans; work every 250 ms."""
    n_pollers = 8
    n_work = max(1, int(8 * scale))
    active = [True]
    observed = [0]
    trace: List = []

    def poller(i: int):
        while active[0]:
            yield sim.timeout(1e-3)
            observed[0] += 1

    def worker():
        for k in range(n_work):
            yield sim.timeout(0.25)
            trace.append((k, round(sim.now, 9)))
        active[0] = False

    for i in range(n_pollers):
        sim.process(poller(i), name=f"poll{i}")
    sim.process(worker(), name="worker")
    sim.run()
    return trace + [round(sim.now, 9), observed[0]]


KERNELS: List[Tuple[str, Callable[[simtime.Simulator, float], List]]] = [
    ("e17_soak_loop", e17_soak_kernel),
    ("e21_transfer_loop", e21_transfer_kernel),
    ("zero_delay_loop", zero_delay_kernel),
    ("idle_poll", idle_poll_kernel),
]


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def check_golden(name: str, scale: float, trace_checksum: str, events: int) -> None:
    """Raise ``AssertionError`` unless a run reproduced ``GOLDEN[(name, scale)]``."""
    golden = GOLDEN.get((name, scale))
    if golden is None:
        raise AssertionError(f"{name}: no golden at scale {scale}")
    if (trace_checksum, events) != golden:
        raise AssertionError(
            f"{name} at scale {scale}: checksum {trace_checksum}, {events} events; "
            f"the golden is {golden[0]}, {golden[1]} events"
        )


def run_kernel(
    name: str,
    kernel: Callable[[simtime.Simulator, float], List],
    scale: float,
    repeats: int = 1,
) -> Dict[str, Any]:
    """Best-of-``repeats`` live run of one kernel, checked against its golden."""
    best: Dict[str, Any] = {}
    for _ in range(max(1, repeats)):
        sim = simtime.Simulator()
        t0 = time.perf_counter()
        trace = kernel(sim, scale)
        wall = time.perf_counter() - t0
        events = sim.events_executed()
        digest = checksum(trace)
        check_golden(name, scale, digest, events)
        if not best or wall < best["wall_s"]:
            best = {
                "scale": scale,
                "events": events,
                "wall_s": wall,
                "events_per_sec": events / wall if wall > 0 else 0.0,
                "inline_steps": sim.inline_steps,
                "checksum": digest,
            }
    return best


def run_benchmarks(scale: float = 1.0, repeats: int = 1) -> Dict[str, Any]:
    kernels = {
        name: run_kernel(name, fn, scale, repeats=repeats) for name, fn in KERNELS
    }
    return {"experiment": "SIMCORE", "scale": scale, "kernels": kernels}


def render_table(results: Dict[str, Any]) -> str:
    from repro.bench.harness import ResultTable

    table = ResultTable(
        "SIMCORE: simulator-core events/sec, live kernel (goldens reproduced)",
        ["kernel", "events", "wall", "M ev/s", "checksum"],
    )
    for name, r in results["kernels"].items():
        table.add_row(
            name,
            r["events"],
            f"{r['wall_s'] * 1e3:7.1f} ms",
            f"{r['events_per_sec'] / 1e6:6.3f}",
            r["checksum"],
        )
    return table.to_text()


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=1.0, help="kernel size multiplier")
    ap.add_argument("--repeats", type=int, default=1, help="take best-of-N walls")
    ap.add_argument("--json", metavar="PATH", help="write results JSON here")
    args = ap.parse_args(argv)

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
