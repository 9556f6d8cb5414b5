"""One repetition of one workload, in a process of its own.

import -> 5 %-scale untimed warm-up -> set-up -> gc.collect() -> timed
window(s) -> oracle -> counters -> one JSON line on stdout.  ``run.py`` starts
this file once per (workload, round); it is not meant to be run by hand.

Two JSON lines are printed: ``{"planned_ops": n}`` as soon as the inputs
exist (so the parent can charge the ops to ``failed`` if the wall watchdog has
to kill this process), and the repetition's record as the last line.

The host clock.  This sandbox is a small VM whose neighbours steal the CPU
(wall time of identical work varies up to 5x for seconds at a time) and slow
it down (CPU time of identical work varies up to 1.7x).  So the record's
times are *CPU seconds of this process* (the program is single-threaded and
never blocks, so on a quiet host that is the wall time), and a fixed
calibration kernel is sampled every 50 ms *inside* the timed window from a
timer signal (its own CPU time is subtracted).  ``run.py`` scales every time
by the kernel's reference time over its measured mean, which divides the
slow-downs out as well.  Raw wall seconds are kept beside them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import sys
from time import perf_counter, process_time

_IMPORT_STARTED = process_time()

if __package__ in (None, ""):
    # run as a script: sys.path[0] is this directory.  Swap it for the
    # program's sources and for the package's parent, so that ledger/trace.py
    # cannot shadow the stdlib's `trace`.
    _HERE = os.path.dirname(os.path.abspath(__file__))
    sys.path[0:1] = [os.path.join(_HERE, "..", "..", "src"), os.path.dirname(_HERE)]

from ledger import workloads  # noqa: E402
from ledger.trace import LayerTracer  # noqa: E402

_IMPORT_CPU_S = process_time() - _IMPORT_STARTED

WARMUP_SHARE = 0.05
TICK_S = 0.05  # the calibration kernel runs this often inside the timed window
EDGE_SAMPLES = 5  # and this many times on either side of it


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sample."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:160]}"


class HostSpeed:
    """Samples of a fixed slice of interpreter work (~0.6 ms of dict, list and
    integer operations), timed in CPU seconds.  A sample allocates no
    container, so it can never trigger (and be charged for) a collection of
    the program's heap."""

    def __init__(self) -> None:
        self.samples: list = []
        self.cpu_s = 0.0  # total CPU time spent sampling
        self._table: dict = {}
        self._ring = [0] * 1024

    def sample(self, _signum: int = 0, _frame: object = None) -> None:
        started = process_time()
        table, ring = self._table, self._ring
        acc = 0
        for i in range(4000):
            key = i & 1023
            table[key] = table.get(key, 0) + i
            ring[key] = acc
            acc += ring[(key * 7) & 1023] & 7
        took = process_time() - started
        self.samples.append(took)
        self.cpu_s += took

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)


def warm_up(wl: workloads.Workload, seed: int, scale: float) -> None:
    """Run the workload small once so lazy imports, numpy set-up and the
    interpreter's specialisation are paid before the timed window."""
    for ep in wl.generate(seed, scale * WARMUP_SHARE)[:1]:
        try:
            wl.run(ep, wl.build(ep))
        except Exception:  # the timed run reports failures; warm-up only warms
            return


def repetition(wl: workloads.Workload, seed: int, scale: float, tracer) -> dict:
    started = process_time()
    episodes = wl.generate(seed, scale)
    states = [wl.build(ep) for ep in episodes]
    build_cpu_s = process_time() - started
    planned = [wl.ops(ep, st) for ep, st in zip(episodes, states, strict=True)]
    print(json.dumps({"planned_ops": sum(planned)}), flush=True)

    gc.collect()
    speed = HostSpeed()
    previous_handler = signal.signal(signal.SIGALRM, speed.sample)
    for _ in range(EDGE_SAMPLES):
        speed.sample()
    outcomes = []  # per episode: (cpu_s, wall_s, output or None, failure or None)
    for ep, state in zip(episodes, states, strict=True):
        sampled_before = speed.cpu_s
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        cpu0, wall0 = process_time(), perf_counter()
        try:
            if tracer is not None:
                with tracer.root():
                    out = wl.run(ep, state)
            else:
                out = wl.run(ep, state)
            failure = None
        except Exception as exc:  # the benchmark records a crash, it does not die of one
            out, failure = None, _describe(exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        cpu_s = process_time() - cpu0 - (speed.cpu_s - sampled_before)
        outcomes.append((cpu_s, perf_counter() - wall0, out, failure))
    for _ in range(EDGE_SAMPLES):
        speed.sample()
    signal.signal(signal.SIGALRM, previous_handler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    ok_ops = slo_ok_ops = 0
    clean_cpu_s = clean_wall_s = 0.0
    clean_episodes = 0
    counts: dict = {}
    host_cpu_s: dict = {}
    latencies = []
    signatures = []
    for ep, state, ops, (cpu_s, wall_s, out, failure) in zip(
        episodes, states, planned, outcomes, strict=True
    ):
        if failure is None:
            try:
                ok = wl.check(ep, state, out)
                obs = wl.observe(ep, state, out, ok)
            except Exception as exc:  # a wrong answer fails the episode's ops
                failure = _describe(exc)
        if failure is not None:
            failures.append(failure)
            continue
        clean_episodes += 1
        clean_cpu_s += cpu_s
        clean_wall_s += wall_s
        ok_ops += ok
        slo_ok_ops += obs.slo_ok_ops
        latencies.extend(obs.latencies_s)
        signatures.append(obs.signature)
        for key, value in obs.counts.items():
            counts[key] = counts.get(key, 0) + value
        for key, value in obs.host_cpu_s.items():
            host_cpu_s[key] = host_cpu_s.get(key, 0) + value
        if ok < ops:
            failures.append(f"{ops - ok} of {ops} ops failed inside the program")

    latencies.sort()
    attempted = sum(planned)
    record = {
        "workload": wl.name,
        "seed": seed,
        "scale": scale,
        "traced": tracer is not None,
        # raw host clock; run.py turns these into reference-host seconds
        "import_cpu_s": _IMPORT_CPU_S,
        "build_cpu_s": build_cpu_s,
        "window_cpu_s": clean_cpu_s,
        "window_wall_s": clean_wall_s,
        "kernel_cpu_s": speed.mean_s(),
        "kernel_samples": len(speed.samples),
        "host_cpu_s": host_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        # ops
        "attempted": attempted,
        "failed": attempted - ok_ops,
        "ok_ops": ok_ops,
        "slo_ok_ops": slo_ok_ops,
        "episodes": len(episodes),
        "clean_episodes": clean_episodes,
        "failures": failures,
        # virtual clock and counts: must repeat exactly
        "latency_n": len(latencies),
        "latency_p50_s": percentile(latencies, 0.50) if latencies else None,
        "latency_p99_s": percentile(latencies, 0.99) if latencies else None,
        "counts": counts,
        "signature": "+".join(signatures),
    }
    if tracer is not None:
        record["layers"] = tracer.layers()  # wall seconds (perf_counter)
        record["span_count"] = tracer.span_count
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    tracer = LayerTracer().install() if args.traced else None
    try:
        warm_up(wl, args.seed, args.scale)
        record = repetition(wl, args.seed, args.scale, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None and args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        path = os.path.join(args.trace_dir, f"{args.workload}-seed{args.seed}.trace.json")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "scale": args.scale})
        record["trace_file"] = path
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
