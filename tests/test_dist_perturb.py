"""Schedule perturbation: the seeded tie-reranker and the hunt/shrink loop."""

from __future__ import annotations

import json

import pytest

from repro.analysis.dist.perturb import ddmin, default_predicate, hunt
from repro.analysis.dist.report import SanitizerReport
from repro.chaos.perturb import TiePerturbation, jitter_fraction, tie_rank
from repro.cluster import build_serverful
from repro.cluster.hardware import DeviceKind
from repro.cluster.simtime import SimulationError, Simulator
from repro.runtime import (
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
    TaskState,
)


class TestTiePerturbation:
    def test_ranks_are_seed_deterministic(self):
        assert tie_rank(1, 42) == tie_rank(1, 42)
        assert tie_rank(1, 42) != tie_rank(2, 42)
        assert 0.0 <= jitter_fraction(1, 42) <= 1.0

    def test_inactive_events_keep_legacy_rank(self):
        p = TiePerturbation(seed=1, active={5})
        assert p(4, 0.0) == (0, 0.0)
        rank, _ = p(5, 0.0)
        assert rank == tie_rank(1, 5)
        assert p.perturbed == 1
        assert p.last_seq == 5

    def test_jitter_stretches_only_positive_delays(self):
        p = TiePerturbation(seed=1, jitter=0.5)
        _, zero = p(1, 0.0)
        assert zero == 0.0  # run-to-completion steps stay immediate
        _, stretched = p(2, 1.0)
        assert 1.0 <= stretched <= 1.5

    def test_negative_jitter_is_rejected(self):
        with pytest.raises(ValueError, match="jitter"):
            TiePerturbation(seed=1, jitter=-0.1)


class TestSimulatorIntegration:
    def test_install_requires_idle_queue(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)

        sim.process(proc())
        with pytest.raises(SimulationError, match="idle simulator"):
            sim.set_perturbation(TiePerturbation(seed=1))

    def test_same_instant_ties_are_reordered_but_causality_holds(self):
        def run(perturbation):
            sim = Simulator()
            if perturbation is not None:
                sim.set_perturbation(perturbation)
            order = []

            def worker(name):
                yield sim.timeout(1e-3)  # all wake at the same instant
                order.append(name)

            for name in "abcd":
                sim.process(worker(name))
            sim.run()
            return order

        legacy = run(None)
        assert legacy == list("abcd")
        seen = {tuple(run(TiePerturbation(seed=s))) for s in range(1, 9)}
        assert all(sorted(o) == list("abcd") for o in seen)  # nothing lost
        assert len(seen) > 1  # some seed found a different linearization

    def test_perturbed_runtime_preserves_results(self):
        """Any linearization of the causal order computes the same answer."""

        def run(perturbation):
            cluster = build_serverful(n_servers=2)
            rt = ServerlessRuntime(
                cluster, RuntimeConfig(resolution=ResolutionMode.PULL)
            )
            if perturbation is not None:
                rt.sim.set_perturbation(perturbation)
            a = rt.submit(lambda: 2, compute_cost=1e-3)
            fan = [rt.submit(lambda x, i=i: x + i, (a,)) for i in range(4)]
            return rt.get(rt.submit(lambda *xs: sum(xs), tuple(fan)))

        expected = run(None)
        for seed in (1, 2, 3):
            assert run(TiePerturbation(seed=seed, jitter=0.05)) == expected


class TestDdmin:
    def test_shrinks_to_the_single_culprit(self):
        trials = []

        def test_fn(subset):
            trials.append(tuple(subset))
            return 7 in subset

        assert ddmin(test_fn, list(range(1, 33))) == (7,)

    def test_shrinks_a_conjunction(self):
        def test_fn(subset):
            return 3 in subset and 11 in subset

        assert sorted(ddmin(test_fn, list(range(1, 17)))) == [3, 11]

    def test_budget_bounds_trials(self):
        calls = [0]

        def test_fn(subset):
            calls[0] += 1
            return 5 in subset

        ddmin(test_fn, list(range(1, 129)), max_trials=10)
        assert calls[0] <= 10


class TestHunt:
    def test_default_predicate_wants_a_report(self):
        assert default_predicate(SanitizerReport()) is False
        dirty = SanitizerReport()
        dirty.dangling_recvs = 0
        from repro.analysis.dist.invariants import Violation

        dirty.violations.append(Violation(monitor="m", message="x"))
        assert default_predicate(dirty) is True
        with pytest.raises(TypeError, match="SanitizerReport"):
            default_predicate({"clean": True})

    def test_failing_baseline_short_circuits_with_empty_schedule(self):
        def scenario(perturbation):
            report = SanitizerReport()
            from repro.analysis.dist.invariants import Violation

            report.violations.append(Violation(monitor="m", message="always"))
            return report

        result = hunt(scenario, seeds=range(1, 4))
        assert result.baseline_failed
        assert result.minimal == ()
        assert result.found_failure
        assert "baseline already fails" in result.describe()

    def test_clean_scenario_reports_no_failure(self):
        result = hunt(lambda p: SanitizerReport(), seeds=range(1, 4))
        assert not result.found_failure
        assert result.failing_seed is None
        assert "no failure found" in result.describe()

    def test_hunt_finds_and_shrinks_an_order_bug(self):
        """A scenario whose bug is exposed only under one tie reordering:
        two same-instant writers; the legacy order hides the race window,
        a perturbed order where 'b' lands first trips the predicate."""

        def scenario(perturbation):
            sim = Simulator()
            if perturbation is not None:
                sim.set_perturbation(perturbation)
            order = []

            def worker(name):
                yield sim.timeout(1e-3)
                order.append(name)

            for name in "ab":
                sim.process(worker(name))
            sim.run()
            return order

        result = hunt(
            scenario,
            seeds=range(1, 20),
            predicate=lambda order: order == ["b", "a"],
        )
        assert result.found_failure and not result.baseline_failed
        assert result.failing_seed is not None
        assert result.minimal is not None and len(result.minimal) >= 1
        # the shrunk schedule still reproduces: replay it directly
        replayed = scenario(
            TiePerturbation(result.failing_seed, active=result.minimal)
        )
        assert replayed == ["b", "a"]
        assert "shrunk to" in result.describe()
        payload = result.to_dict()
        assert payload["failing_seed"] == result.failing_seed
        assert payload["minimal_schedule"] == list(result.minimal)

    def test_two_equal_hunts_write_the_same_result(self):
        """A failing result with no ``to_dict`` (here an object whose repr
        is its memory address) is written as its type name."""

        class Outcome:
            pass

        # both kept alive, so the two outcomes cannot share an address
        hunts = [hunt(lambda p: Outcome(), seeds=(1,), predicate=bool) for _ in range(2)]
        first, second = (json.dumps(h.to_dict()) for h in hunts)
        assert first == second
        assert json.loads(first)["minimal_result"] == "Outcome"


def free_under_consumer_scenario(perturbation, force=False, free_at=52e-3):
    """The free-vs-consumer ordering scenario, fixed and legacy variants.

    A driver frees an object ``free_at`` in while a cross-node consumer
    may still be reading it (b lands at ~50.8ms in the legacy schedule).
    The hunt in this file originally *found* the ordering bug here:
    delivery jitter that stretched b past the free made the argument
    vanish under the running attempt, unrecoverably (``free`` also drops
    the directory entry, so lineage cannot resurrect it).

    ``free`` now quiesces: a free targeting an object with in-flight
    consumers defers until the last one concludes, so the default path
    survives every schedule.  ``force=True`` replays the legacy unsafe
    drop — kept so the hunt and the HB sanitizer can still demonstrate
    the bug they were built to find.
    """
    cluster = build_serverful(n_servers=2)
    if perturbation is not None:
        cluster.sim.set_perturbation(perturbation)
    cpu0 = cluster.node("server0").first_of_kind(DeviceKind.CPU).device_id
    cpu1 = cluster.node("server1").first_of_kind(DeviceKind.CPU).device_id
    rt = ServerlessRuntime(
        cluster,
        RuntimeConfig(resolution=ResolutionMode.PULL,
                      sanitizers=("hb", "invariants")),
    )
    a = rt.submit(lambda: 5, name="a", compute_cost=1e-4,
                  output_nbytes=1 << 22, pinned_device=cpu0)
    rt.get(a)
    b = rt.submit(lambda x: x + 1, args=(a,), name="b",
                  compute_cost=50e-3, pinned_device=cpu1)

    def _free_later():
        yield rt.sim.timeout(free_at)
        rt.free(a, force=force)

    rt.sim.process(_free_later(), name="driver:free")
    rt.sim.run()
    return rt, rt._ctx_of_object[b.object_id]


def legacy_free_scenario(perturbation):
    return free_under_consumer_scenario(perturbation, force=True)


class TestFreeQuiescesConsumers:
    """Satellite fix: ``free`` defers until in-flight consumers drain.

    These tests used to pin the *bug* (the hunt reliably exposed it);
    they now assert the fix, and the legacy ``force=True`` path keeps the
    old behavior reproducible for the sanitizer's benefit.
    """

    def test_hunt_finds_no_failure_on_the_fixed_path(self):
        def consumer_broken(outcome):
            _rt, ctx = outcome
            return ctx.state != TaskState.FINISHED

        result = hunt(
            free_under_consumer_scenario,
            seeds=range(1, 13),
            jitter=0.25,
            predicate=consumer_broken,
            shrink_budget=24,
        )
        assert not result.baseline_failed
        assert not result.found_failure, (
            "free stopped quiescing in-flight consumers"
        )

    def test_deferred_free_completes_after_the_consumer(self):
        """A free that arrives mid-consumer defers, then lands: the
        consumer finishes, the bytes are released, and the HB layer sees
        no race (the GCS orders the drop after the done-report)."""
        rt, ctx = free_under_consumer_scenario(None, free_at=25e-3)
        assert ctx.state == TaskState.FINISHED
        kinds = [e.kind for e in rt.events]
        assert "free_deferred" in kinds
        assert "free_completed" in kinds
        deferred = next(e for e in rt.events if e.kind == "free_deferred")
        completed = next(e for e in rt.events if e.kind == "free_completed")
        assert completed.time > deferred.time
        assert completed["nbytes"] > 0  # the bytes really came back
        assert not rt.ownership.contains(completed["object"])
        report = rt.probe.report(partial=True)
        race_kinds = {
            frozenset((r.first.kind, r.second.kind)) for r in report.races
        }
        assert frozenset(("dir_read", "own_free")) not in race_kinds
        assert frozenset(("own_add_location", "own_free")) not in race_kinds


class TestHuntPinsLegacyFreeBug:
    """The hunt still exposes the legacy (``force=True``) ordering bug —
    proof the fix changed the protocol, not the detector."""

    def test_hunt_exposes_and_shrinks_the_timing_dependence(self):
        def consumer_broken(outcome):
            _rt, ctx = outcome
            return ctx.state != TaskState.FINISHED

        result = hunt(
            legacy_free_scenario,
            seeds=range(1, 13),
            jitter=0.25,
            predicate=consumer_broken,
            shrink_budget=24,
        )
        assert not result.baseline_failed  # legacy timing hides the bug
        assert result.found_failure, "jitter no longer exposes the free bug"
        assert result.minimal is not None and len(result.minimal) >= 1
        # the shrunk minimal schedule replays the failure deterministically
        replay = TiePerturbation(
            result.failing_seed, active=result.minimal, jitter=0.25
        )
        _rt, ctx = legacy_free_scenario(replay)
        assert ctx.state != TaskState.FINISHED

    def test_sanitizer_localizes_the_failing_schedule(self):
        """On any schedule where the free lands first, HB names the race."""
        result = hunt(
            legacy_free_scenario,
            seeds=range(1, 13),
            jitter=0.25,
            predicate=lambda outcome: outcome[1].state != TaskState.FINISHED,
            shrink=False,
        )
        assert result.found_failure
        rt, _ctx = result.minimal_result
        report = rt.probe.report(partial=True)
        kinds = {frozenset((r.first.kind, r.second.kind)) for r in report.races}
        assert frozenset(("dir_read", "own_free")) in kinds

    def test_baseline_race_is_flagged_even_when_timing_saves_the_run(self):
        """The unperturbed forced run passes, but only by accident — the
        HB layer still reports the free as concurrent with the consumer's
        reads."""
        rt, ctx = legacy_free_scenario(None)
        assert ctx.state == TaskState.FINISHED  # timing luck
        report = rt.probe.report(partial=True)
        kinds = {frozenset((r.first.kind, r.second.kind)) for r in report.races}
        assert frozenset(("dir_read", "own_free")) in kinds
