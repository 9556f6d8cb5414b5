#!/usr/bin/env python3
"""MPMD pipeline-parallel training on a tightly-coupled GPU silo.

The paper's second motivating trend: "giant model training has evolved
from using SPMD to MPMD over multiple highly-specialized clusters".  A
3-stage MLP trains GPipe-style — one stage actor per GPU, microbatches
pipelined through — with results identical to serial training, and the
run's spans exported as a Chrome trace you can load in chrome://tracing
to see the pipeline ramp and bubble.

Run:  python examples/pipeline_training.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.bench import fmt_seconds
from repro.cluster import build_tightly_coupled
from repro.frontends.mpmd import PipelineParallelTrainer, serial_reference_training
from repro.runtime import ServerlessRuntime, write_chrome_trace

DIMS = (16, 32, 32, 1)
EPOCHS = 8
MICROBATCHES = 8


def main() -> None:
    rng = np.random.default_rng(0)
    X = rng.standard_normal((256, DIMS[0]))
    hidden = np.maximum(X @ rng.standard_normal((DIMS[0], 8)), 0)
    y = hidden @ rng.standard_normal(8) + 0.05 * rng.standard_normal(256)

    cluster = build_tightly_coupled(n_accel=len(DIMS) - 1)
    runtime = ServerlessRuntime(cluster)
    trainer = PipelineParallelTrainer(
        runtime, DIMS, lr=0.02, seed=3, stage_cost=0.05
    )
    print(f"{trainer.num_stages} stage actors on: "
          + ", ".join(h.device_id for h in trainer.handles))

    losses = [
        trainer.train_epoch(X, y, microbatches=MICROBATCHES)
        for _ in range(EPOCHS)
    ]
    print(f"\nloss over {EPOCHS} epochs ({MICROBATCHES} microbatches each):")
    print("  " + " -> ".join(f"{l:.3f}" for l in losses))
    print(f"virtual training time: {fmt_seconds(runtime.sim.now)}")

    # bit-identical to serial full-batch training
    reference = serial_reference_training(DIMS, X, y, epochs=EPOCHS, lr=0.02, seed=3)
    for W_dist, W_ref in zip(trainer.weights(), reference, strict=False):
        assert np.allclose(W_dist, W_ref)
    print("weights match the single-process oracle exactly")

    trace_path = os.path.join(tempfile.gettempdir(), "skadi_pipeline_trace.json")
    events = write_chrome_trace(runtime, trace_path)
    print(f"\nwrote {events} trace events to {trace_path}")
    print("open chrome://tracing and load it to see the pipeline schedule")


if __name__ == "__main__":
    main()
