"""The sanitizer's two contracts, pinned end to end.

1. **Zero interference** — enabling ``RuntimeConfig(sanitizers=...)`` must
   not change what the runtime *does*: the EventLog signature (the repo's
   determinism contract) stays bit-for-bit identical on the flagship
   scenarios (E17 chaos soak, E21 data-plane fan-out, E22 overload burst,
   E23 serving).  The probe writes to a parallel stream, never the log.
2. **Detection** — a seeded scenario with a real protocol race (a driver
   ``free`` concurrent with an in-flight consumer read) is caught by the
   happens-before layer, while its sanctioned twin (``get`` before
   ``free``) stays clean.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.cluster import build_serverful
from repro.cluster.hardware import DeviceKind
from repro.runtime import ResolutionMode, RuntimeConfig, ServerlessRuntime

SANITIZERS = ("hb", "invariants")


def load_bench(name):
    """Import a benchmark scenario module by file path (benchmarks/ is not
    a package; these tests reuse its workload builders)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_sanequiv_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


class TestAllOnEquivalence:
    """Sanitizers fully on must replay the legacy signatures bit-for-bit."""

    def test_e17_chaos_soak(self):
        e17 = load_bench("test_e17_chaos_soak")
        legacy = e17.run_soak(e17.SEED, chaos=True)
        sanitized = e17.run_soak(e17.SEED, chaos=True, sanitizers=SANITIZERS)
        assert legacy["signature"] == sanitized["signature"]
        assert legacy["makespan"] == sanitized["makespan"]
        assert legacy["answer"] == sanitized["answer"]
        # and the soak itself is protocol-clean under the monitors
        report = sanitized["rt"].probe.report()
        assert report.violations == []
        assert report.races == []

    def test_e21_fast_data_plane_fanout(self):
        e21 = load_bench("test_e21_fast_data_plane")
        legacy = e21.run_fanout(e21.fanout_runtime(), spread=False)
        sanitized = e21.run_fanout(
            e21.fanout_runtime(sanitizers=SANITIZERS),
            spread=False,
        )
        assert legacy.log.signature() == sanitized.log.signature()
        assert legacy.net.stats.transfers == sanitized.net.stats.transfers
        assert legacy.sim.now == sanitized.sim.now
        assert sanitized.probe.report().clean

    def test_e22_overload_burst(self):
        e22 = load_bench("test_e22_overload")
        legacy, _ = e22.run_scenario(spike=True)
        sanitized, _ = e22.run_scenario(spike=True, sanitizers=SANITIZERS)
        assert legacy.log.signature() == sanitized.log.signature()
        assert legacy.sim.now == sanitized.sim.now
        # an open-loop burst ends mid-flight for shed work: partial verdict
        report = sanitized.probe.report(partial=True)
        assert report.violations == []

    def test_e23_serving(self):
        e23 = load_bench("test_e23_serving")
        legacy = e23.run_serving(1.0, trigger=False)
        sanitized = e23.run_serving(1.0, trigger=False, sanitizers=SANITIZERS)
        assert legacy.rt.log.signature() == sanitized.rt.log.signature()
        assert legacy.rt.sim.now == sanitized.rt.sim.now

    def test_trace_only_mode_is_also_inert(self):
        def run(**overrides):
            rt = ServerlessRuntime(
                build_serverful(n_servers=2),
                RuntimeConfig(resolution=ResolutionMode.PULL, **overrides),
            )
            a = rt.submit(lambda: 2, compute_cost=1e-3)
            fan = [rt.submit(lambda x, i=i: x + i, (a,)) for i in range(4)]
            assert rt.get(rt.submit(lambda *xs: sum(xs), tuple(fan))) == 14
            return rt

        legacy = run()
        traced = run(sanitizers=("trace",))
        assert legacy.log.signature() == traced.log.signature()
        assert len(traced.probe.trace) > 0


def run_free_scenario(sanctioned: bool):
    """A producer on server0, a consumer pinned cross-node, and a driver
    ``free`` landing while the consumer attempt is mid-compute.

    ``sanctioned=False`` frees 20ms in — causally concurrent with the
    consumer's directory read (a genuine use-after-free: the argument can
    vanish under the running attempt).  ``sanctioned=True`` waits for
    ``get(b)`` first, which closes the causal edge.

    The unsanctioned branch uses ``force=True``: the default ``free`` now
    quiesces in-flight consumers (see tests/test_dist_perturb.py), so the
    legacy unsafe drop — the race this fixture exists to seed — is only
    reachable through the force escape hatch.
    """
    cluster = build_serverful(n_servers=2)
    cpu0 = cluster.node("server0").first_of_kind(DeviceKind.CPU).device_id
    cpu1 = cluster.node("server1").first_of_kind(DeviceKind.CPU).device_id
    rt = ServerlessRuntime(
        cluster,
        RuntimeConfig(resolution=ResolutionMode.PULL, sanitizers=SANITIZERS),
    )
    a = rt.submit(lambda: 5, name="a", compute_cost=1e-4,
                  output_nbytes=1 << 22, pinned_device=cpu0)
    rt.get(a)
    b = rt.submit(lambda x: x + 1, args=(a,), name="b",
                  compute_cost=50e-3, pinned_device=cpu1)
    if sanctioned:
        assert rt.get(b) == 6
        rt.free(a)
    else:
        def _free_mid_flight():
            yield rt.sim.timeout(20e-3)
            rt.free(a, force=True)

        rt.sim.process(_free_mid_flight(), name="driver:free")
        rt.sim.run()
    return rt


class TestFreeRaceDetection:
    """The seeded detection scenario: free-vs-in-flight-read."""

    def test_unsanctioned_free_is_a_detected_race(self):
        rt = run_free_scenario(sanctioned=False)
        report = rt.probe.report(partial=True)
        race_kinds = {
            frozenset((r.first.kind, r.second.kind)) for r in report.races
        }
        # the consumer's stability-assuming read races the driver's free
        assert frozenset(("dir_read", "own_free")) in race_kinds
        # ... and so does the arrival it had already recorded
        assert frozenset(("own_add_location", "own_free")) in race_kinds

    def test_sanctioned_free_after_get_is_clean(self):
        rt = run_free_scenario(sanctioned=True)
        report = rt.probe.report(partial=True)
        assert report.races == []
        assert report.violations == []

    def test_detection_does_not_perturb_the_run(self):
        def run():
            rt = run_free_scenario(sanctioned=False)
            return rt.log.signature()

        first = run()
        cluster = build_serverful(n_servers=2)
        cpu0 = cluster.node("server0").first_of_kind(DeviceKind.CPU).device_id
        cpu1 = cluster.node("server1").first_of_kind(DeviceKind.CPU).device_id
        rt = ServerlessRuntime(
            cluster, RuntimeConfig(resolution=ResolutionMode.PULL)
        )
        a = rt.submit(lambda: 5, name="a", compute_cost=1e-4,
                      output_nbytes=1 << 22, pinned_device=cpu0)
        rt.get(a)
        rt.submit(lambda x: x + 1, args=(a,), name="b",
                  compute_cost=50e-3, pinned_device=cpu1)

        def _free_mid_flight():
            yield rt.sim.timeout(20e-3)
            rt.free(a, force=True)

        rt.sim.process(_free_mid_flight(), name="driver:free")
        rt.sim.run()
        assert rt.log.signature() == first
