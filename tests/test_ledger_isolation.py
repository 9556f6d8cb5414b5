"""The ledger's failure isolation, pinned in tier-1.

``benchmarks/ledger`` counts a crashing episode in ``failed``/``failures``
instead of dying of it.  Its own smoke test proved that by replaying a
chaos seed that used to crash the runtime; with that crash fixed, this test
keeps the behaviour covered with a workload whose ``run`` raises by itself.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

from ledger import child, trace, workloads  # noqa: E402


def test_raising_episode_is_recorded_not_raised(capsys):
    wl = workloads.ChaosSoakWorkload()
    lanes = list(range(workloads.CHAOS_LANES))
    wl.generate = lambda seed, scale: [
        workloads.ChaosEpisode(s, lanes) for s in (0, 1)
    ]
    healthy_run = wl.run

    def run(ep, state):
        if ep.schedule_seed == 1:
            raise KeyError("the program crashed under this episode")
        return healthy_run(ep, state)

    wl.run = run
    record = child.repetition(wl, seed=0, scale=1.0, tracer=None)
    capsys.readouterr()  # the planned_ops line
    assert record["clean_episodes"] == 1 and record["episodes"] == 2
    assert record["failed"] == record["attempted"] // 2 > 0
    assert any(f.startswith("KeyError") for f in record["failures"])


def test_every_traced_target_resolves():
    """The ledger's traced child patches every ``trace.TARGETS`` entry by
    name, and dies if one is gone or is no plain method.  Installing the
    tracer here makes a rename fail in tier-1 instead; uninstalling must
    put every original back."""
    tracer = trace.LayerTracer().install()
    patched = list(tracer._patched)
    try:
        holders = {(getattr(holder, "__name__", ""), attr) for holder, attr, _ in patched}
        for _layer, module_name, owner, attrs in trace.TARGETS:
            for attr in attrs:
                assert (owner or module_name, attr) in holders, (module_name, owner, attr)
    finally:
        tracer.uninstall()
    assert not tracer._patched
    for holder, attr, original in patched:
        assert holder.__dict__[attr] is original, (holder, attr)
