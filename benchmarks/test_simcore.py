"""E26 — simulator-core throughput: the rebuilt kernel vs. the frozen seed.

Every flagship experiment now bottoms out in ``repro.cluster.simtime``
(ROADMAP item 3: the event loop *is* the hardware), so this experiment
benchmarks the kernel itself.  Each workload kernel runs under two
stages:

* **seed** — the frozen pre-rebuild kernel (``repro.bench.legacy_simtime``):
  one binary heap, dataclass events, trampolined zero-delay hops;
* **live** — ``repro.cluster.simtime`` as shipped: microtask ring, bucket
  calendar, same-instant batching, inline resumption.

``run_kernel`` enforces the bit-for-bit witness internally: seed and live
must produce an identical execution checksum.  Results land in
``BENCH_SIMCORE.json``; CI replays this at reduced scale and fails its
(non-blocking) step on a >20% events/sec regression vs. the committed
baseline.
"""

from __future__ import annotations

import json
import os

from repro.bench.simcore import render_table, run_benchmarks

# CI runners are slower and noisier than the baseline machine: a reduced
# scale keeps the step fast, and rate comparisons stay meaningful because
# every kernel's per-event cost is scale-invariant past ~0.25.
SCALE = float(os.environ.get("SIMCORE_SCALE", "0.5"))
REPEATS = int(os.environ.get("SIMCORE_REPEATS", "2"))


def test_e26_simcore_throughput():
    results = run_benchmarks(scale=SCALE, repeats=REPEATS)
    print(render_table(results))

    kernels = results["kernels"]
    # the live kernel is a multiple of the frozen seed on
    # the event-heavy loops (the committed scale-1.0 baseline shows >= 3x
    # on e17; the in-test bound is looser to absorb runner noise)
    assert kernels["e17_soak_loop"]["speedup_total"] >= 2.0
    assert kernels["e21_transfer_loop"]["speedup_total"] >= 2.0
    assert kernels["zero_delay_loop"]["speedup_total"] >= 2.0
    # every stage of every kernel actually executed events
    for name, k in kernels.items():
        for stage, r in k["stages"].items():
            assert r["events"] > 0, f"{name}/{stage} ran no events"

    artifacts = os.environ.get("BENCH_ARTIFACTS")
    out_dir = artifacts or os.path.join(os.path.dirname(__file__), "baselines")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "BENCH_SIMCORE.json"), "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
