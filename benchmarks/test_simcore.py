"""E26 — simulator-core throughput, with the live kernel checked against goldens.

Every flagship experiment bottoms out in ``repro.cluster.simtime`` (the
event loop *is* the hardware), so this experiment benchmarks the kernel
itself: ``repro.cluster.simtime`` as shipped — microtask ring, bucket
calendar, same-instant batching, inline resumption — on four workload
kernels.

``run_kernel`` enforces the determinism witness internally: every run must
reproduce the trace checksum and executed-event count the frozen
pre-rebuild kernel recorded (``repro.bench.simcore.GOLDEN``).  Results land
in ``BENCH_SIMCORE.json``.  The events/sec reported here is this host's;
kernel speed across commits is the ledger's ``simtime.events_per_cpu_s``.
"""

from __future__ import annotations

import os

from repro.bench.simcore import render_table, run_benchmarks

# a recorded scale (0.1, 0.5 or 1.0): the goldens exist only there
SCALE = float(os.environ.get("SIMCORE_SCALE", "0.5"))
REPEATS = int(os.environ.get("SIMCORE_REPEATS", "2"))


def test_e26_simcore_throughput(write_result):
    results = run_benchmarks(scale=SCALE, repeats=REPEATS)
    print(render_table(results))

    # every kernel actually executed events, at a measurable rate
    for name, r in results["kernels"].items():
        assert r["events"] > 0, f"{name} ran no events"
        assert r["events_per_sec"] > 0, f"{name} has no rate"

    write_result("BENCH_SIMCORE.json", results)
