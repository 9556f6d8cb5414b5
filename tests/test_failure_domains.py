"""Device-granular failure domains: blade/DPU/accelerator faults.

Disaggregation changes the failure *unit* (§2.3): a GPU, a DPU, or a
memory blade can die while everything around it keeps running.  These
tests exercise each domain end to end — injection, detection (omniscient
and heartbeat-honest), degraded-mode scheduling, and recovery via lineage
or the reliable cache.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.caching.replication import ReplicationScheme
from repro.chaos import ChaosMonkey, ChaosSchedule
from repro.cluster.cluster import build_physical_disagg, build_serverful
from repro.cluster.hardware import GB, DeviceKind
from repro.runtime import (
    Generation,
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
)
from repro.runtime.ownership import ValueState
from repro.runtime.runtime import make_reliable_cache

GPU = frozenset({DeviceKind.GPU})


def omniscient_config(**overrides):
    """No failure detector: the chaos monkey tells the runtime directly."""
    base = dict(
        resolution=ResolutionMode.PULL,
        max_retries=10,
        retry_backoff_base=2e-3,
    )
    base.update(overrides)
    return RuntimeConfig(**base)


def detect_config(**overrides):
    """Heartbeat detection on, retry budget spanning the detection window."""
    base = dict(
        resolution=ResolutionMode.PULL,
        heartbeat_interval=1e-3,
        heartbeat_miss_threshold=3,
        max_retries=10,
        retry_backoff_base=2e-3,
    )
    base.update(overrides)
    return RuntimeConfig(**base)


def inject_now(rt, schedule, settle=1e-3):
    """Arm ``schedule`` (shifted to fire immediately) and let it land while
    nothing else is in flight — a race-free mid-experiment injection."""
    monkey = ChaosMonkey(rt, schedule).arm()
    rt.sim.run(until=rt.sim.now + settle)
    return monkey


class TestDeviceFailureOmniscient:
    """A GPU dies under a living host; the driver announces it."""

    def test_gpu_kill_degrades_capacity_without_failing_the_job(self):
        rt = ServerlessRuntime(
            build_serverful(n_servers=3, gpus_per_server=1), omniscient_config()
        )
        reg = rt.telemetry.registry
        base_slots = reg.value("skadi_scheduler_capacity_slots")
        base_devices = reg.value("skadi_scheduler_schedulable_devices")
        assert base_devices == 6  # 3 CPUs + 3 GPUs
        victim = "server1/gpu0"
        ChaosMonkey(rt, ChaosSchedule().fail_device(1e-3, victim)).arm()
        refs = [
            rt.submit(
                lambda i=i: i * i,
                compute_cost=2e-3,
                supported_kinds=GPU,
                name=f"sq{i}",
            )
            for i in range(12)
        ]
        assert rt.get(refs) == [i * i for i in range(12)]
        assert rt.tasks_failed == 0
        # only the dead device is blacklisted — its host node keeps working
        assert rt.scheduler.is_blacklisted(victim)
        assert not rt.scheduler.is_blacklisted("server1/cpu")
        dead = rt.log.of_kind("device_dead")
        assert dead and dead[0]["device"] == victim
        assert dead[0]["cause"] == "chaos device failure"
        assert rt.log.count("node_dead") == 0
        # degraded mode is telemetry-visible: one GPU's slots are gone
        gpu_slots = rt.cluster.device(victim).spec.slots
        assert reg.value("skadi_scheduler_capacity_slots") == base_slots - gpu_slots
        assert reg.value("skadi_scheduler_schedulable_devices") == base_devices - 1
        assert reg.value("skadi_device_failures_total", kind="gpu") == 1

    def test_device_recovery_restores_capacity(self):
        rt = ServerlessRuntime(
            build_serverful(n_servers=3, gpus_per_server=1), omniscient_config()
        )
        reg = rt.telemetry.registry
        base_slots = reg.value("skadi_scheduler_capacity_slots")
        victim = "server1/gpu0"
        sched = ChaosSchedule().fail_device(1e-3, victim, recover_after=6e-3)
        ChaosMonkey(rt, sched).arm()
        refs = [
            rt.submit(lambda i=i: i, compute_cost=4e-3, supported_kinds=GPU)
            for i in range(12)
        ]
        filler = rt.submit(lambda: 0, compute_cost=2e-2)  # outlives the window
        assert rt.get(refs) == list(range(12))
        assert rt.get(filler) == 0
        assert rt.log.count("device_alive") >= 1
        assert not rt.scheduler.is_blacklisted(victim)
        assert reg.value("skadi_scheduler_capacity_slots") == base_slots

    def test_lost_output_recovered_by_lineage_on_another_device(self):
        rt = ServerlessRuntime(
            build_serverful(n_servers=3, gpus_per_server=1), omniscient_config()
        )
        a = rt.submit(
            lambda: 7, compute_cost=1e-3, supported_kinds=GPU, output_nbytes=1024
        )
        assert rt.get(a) == 7
        victim = rt.ownership.entry(a.object_id).device_id
        assert victim.endswith("/gpu0")
        inject_now(rt, ChaosSchedule().fail_device(rt.sim.now + 1e-6, victim))
        assert rt.ownership.entry(a.object_id).state == ValueState.LOST
        b = rt.submit(lambda x: x + 1, (a,), compute_cost=1e-3)
        assert rt.get(b) == 8
        assert rt.lineage.replays >= 1
        recovered = [
            ev for ev in rt.log.of_kind("object_recovered") if ev["object"] == a.object_id
        ]
        assert recovered and recovered[0]["source"] == "lineage"
        reg = rt.telemetry.registry
        assert reg.value("skadi_recovered_objects_total", source="lineage") >= 1
        # the replay could not use the blacklisted device
        assert rt.ownership.entry(a.object_id).device_id != victim


class TestDeviceFailureDetected:
    """Heartbeat payloads carry device status: the GCS learns a GPU died
    under a healthy host without any extra probes."""

    def test_device_death_reported_by_next_heartbeat(self):
        rt = ServerlessRuntime(
            build_serverful(n_servers=3, gpus_per_server=1), detect_config()
        )
        reg = rt.telemetry.registry
        base_slots = reg.value("skadi_scheduler_capacity_slots")
        victim = "server1/gpu0"
        ChaosMonkey(rt, ChaosSchedule().fail_device(2e-3, victim)).arm()
        refs = [
            rt.submit(lambda i=i: i + 10, compute_cost=3e-2, supported_kinds=GPU)
            for i in range(12)
        ]
        assert rt.get(refs) == [i + 10 for i in range(12)]
        assert rt.tasks_failed == 0
        dead = rt.log.of_kind("device_dead")
        assert dead and dead[0]["device"] == victim
        assert dead[0]["cause"] == "reported by raylet"
        # the host raylet kept beating: no whole-node suspicion, no node death
        assert rt.log.count("node_suspected") == 0
        assert rt.log.count("node_dead") == 0
        assert rt.scheduler.is_blacklisted(victim)
        gpu_slots = rt.cluster.device(victim).spec.slots
        assert reg.value("skadi_scheduler_capacity_slots") == base_slots - gpu_slots

    def test_device_revival_reported_by_heartbeat(self):
        rt = ServerlessRuntime(
            build_serverful(n_servers=3, gpus_per_server=1), detect_config()
        )
        victim = "server1/gpu0"
        sched = ChaosSchedule().fail_device(2e-3, victim, recover_after=8e-3)
        ChaosMonkey(rt, sched).arm()
        refs = [
            rt.submit(lambda i=i: i, compute_cost=3e-2, supported_kinds=GPU)
            for i in range(12)
        ]
        filler = rt.submit(lambda: 0, compute_cost=4e-2)
        assert rt.get(refs) == list(range(12))
        assert rt.get(filler) == 0
        assert rt.log.count("device_dead") >= 1
        assert rt.log.count("device_alive") >= 1
        assert not rt.scheduler.is_blacklisted(victim)


class TestBladeFailure:
    """A memory blade dies: exactly the spilled objects are lost."""

    NB = 24 * GB  # 3 such outputs overflow the 64 GB head CPU store

    def _spilled_workload(self, rt):
        a = rt.submit(lambda: "A", compute_cost=1e-3, output_nbytes=self.NB)
        b = rt.submit(lambda: "B", compute_cost=1e-3, output_nbytes=self.NB)
        c = rt.submit(lambda: "C", compute_cost=1e-3, output_nbytes=self.NB)
        assert rt.get([a, b, c]) == ["A", "B", "C"]
        # the oldest object was LRU-spilled to the blade, and the directory
        # tracked the move
        assert rt._spill_store is not None and rt._spill_store.contains(a.object_id)
        assert rt.ownership.locations(a.object_id) == ["memblade0"]
        return a, b, c

    def _cluster(self):
        return build_physical_disagg(
            n_servers=1, n_gpu_cards=0, n_fpga_cards=0, n_mem_blades=1
        )

    def test_spill_upkeep_is_visible_to_the_sanitizer(self):
        # driver puts: the third evicts the first to the blade *inside* its
        # store.put, between the driver's create and mark_ready
        rt = ServerlessRuntime(self._cluster(), omniscient_config(sanitizers=("trace",)))
        refs = [rt.put(tag, nbytes=self.NB) for tag in "ABC"]
        spilled = refs[0].object_id
        assert rt.ownership.locations(spilled) == ["memblade0"]
        moves = [
            (e.site, e.kind, e.get("locations"))
            for e in rt.probe.trace
            if e.kind in ("own_add_location", "own_drop_location")
            and e.get("object") == spilled
        ]
        # the directory upkeep is the GCS acting ...
        assert moves == [("gcs", "own_add_location", 2), ("gcs", "own_drop_location", 1)]
        # ... and the put that forced it keeps its own attribution afterwards
        ready = [e for e in rt.probe.trace if e.kind == "own_mark_ready"][-1]
        assert (ready.site, ready.get("object")) == ("driver", refs[2].object_id)

    def test_blade_death_loses_only_spilled_objects(self):
        rt = ServerlessRuntime(self._cluster(), omniscient_config())
        a, b, c = self._spilled_workload(rt)
        inject_now(rt, ChaosSchedule().fail_blade(rt.sim.now + 1e-6, "memblade0"))
        assert rt.ownership.entry(a.object_id).state == ValueState.LOST
        assert rt.ownership.is_ready(b.object_id)
        assert rt.ownership.is_ready(c.object_id)
        dead = rt.log.of_kind("blade_dead")
        assert dead and dead[0]["objects_lost"] == 1
        assert rt.telemetry.registry.value("skadi_blade_failures_total") == 1

    def test_lost_spill_recovered_by_lineage(self):
        rt = ServerlessRuntime(self._cluster(), omniscient_config())
        a, b, c = self._spilled_workload(rt)
        inject_now(rt, ChaosSchedule().fail_blade(rt.sim.now + 1e-6, "memblade0"))
        rt.free([b, c])  # make room: the replay must land in live memory
        d = rt.submit(lambda x: x * 2, (a,), compute_cost=1e-3)
        assert rt.get(d) == "AA"
        assert rt.lineage.replays >= 1
        recovered = [
            ev for ev in rt.log.of_kind("object_recovered") if ev["object"] == a.object_id
        ]
        assert recovered and recovered[0]["source"] == "lineage"
        assert (
            rt.telemetry.registry.value("skadi_recovered_objects_total", source="lineage")
            >= 1
        )

    def test_replicated_cache_recovers_without_any_replay(self):
        cluster = self._cluster()
        cache = make_reliable_cache(cluster, ReplicationScheme(2))
        rt = ServerlessRuntime(cluster, omniscient_config(), reliable_cache=cache)
        a, b, c = self._spilled_workload(rt)
        inject_now(rt, ChaosSchedule().fail_blade(rt.sim.now + 1e-6, "memblade0"))
        rt.free([b, c])
        d = rt.submit(lambda x: x * 2, (a,), compute_cost=1e-3)
        assert rt.get(d) == "AA"
        # the paper's reliable-cache pitch: zero re-executed tasks
        assert rt.lineage.replays == 0
        recovered = [
            ev for ev in rt.log.of_kind("object_recovered") if ev["object"] == a.object_id
        ]
        assert recovered and recovered[0]["source"] == "reliable_cache"
        reg = rt.telemetry.registry
        assert reg.value("skadi_recovered_objects_total", source="reliable_cache") >= 1
        assert reg.value("skadi_recovered_bytes_total", source="reliable_cache") == self.NB

    def test_blade_death_detected_by_probes(self):
        rt = ServerlessRuntime(self._cluster(), detect_config())
        a, _b, _c = self._spilled_workload(rt)
        # blades never beat: only the GCS probe loop can notice the death
        sched = ChaosSchedule().fail_blade(
            rt.sim.now + 1e-6, "memblade0", recover_after=8e-3
        )
        ChaosMonkey(rt, sched).arm()
        filler = rt.submit(lambda: 0, compute_cost=2.5e-2)
        assert rt.get(filler) == 0
        assert rt.log.count("blade_suspected") >= 1
        dead = rt.log.of_kind("blade_dead")
        assert dead and dead[0]["cause"] == "missed probes"
        assert rt.ownership.entry(a.object_id).state == ValueState.LOST
        # after the recovery window a probe succeeded and cleared the blade
        assert rt.log.count("blade_unsuspected") >= 1
        assert rt.log.count("blade_alive") >= 1
        assert rt.health.probes_sent > 0


class TestDpuFailure:
    """Gen-1 homes the card raylet on the DPU; Gen-2 does not (§3)."""

    def _cluster(self):
        return build_physical_disagg(
            n_servers=1, n_gpu_cards=2, n_fpga_cards=0, n_mem_blades=1
        )

    def _gpu_work(self, rt, n=8, cost=3e-3):
        return [
            rt.submit(lambda i=i: i * 3, compute_cost=cost, supported_kinds=GPU)
            for i in range(n)
        ]

    def test_gen1_dpu_death_triggers_head_takeover(self):
        rt = ServerlessRuntime(
            self._cluster(), omniscient_config(generation=Generation.GEN1)
        )
        ChaosMonkey(rt, ChaosSchedule().fail_dpu(2e-3, "gpucard0")).arm()
        refs = self._gpu_work(rt)
        assert rt.get(refs) == [i * 3 for i in range(8)]
        assert rt.tasks_failed == 0
        takeovers = rt.log.of_kind("raylet_takeover")
        assert takeovers and takeovers[0]["devices"] == ["gpucard0/gpu0"]
        assert rt.telemetry.registry.value("skadi_raylet_takeovers_total") == 1
        # the orphaned GPU is adopted, not blacklisted: degraded, not dead
        head_raylet = rt._raylets_by_node["server0"][0]
        assert rt._raylet_of_device["gpucard0/gpu0"] is head_raylet
        assert not rt.scheduler.is_blacklisted("gpucard0/gpu0")
        assert "gpucard0/dpu" in rt.failures.dead_devices

    def test_gen1_dpu_recovery_hands_devices_back(self):
        rt = ServerlessRuntime(
            self._cluster(), omniscient_config(generation=Generation.GEN1)
        )
        sched = ChaosSchedule().fail_dpu(2e-3, "gpucard0", recover_after=6e-3)
        ChaosMonkey(rt, sched).arm()
        refs = self._gpu_work(rt, n=12, cost=4e-3)
        filler = rt.submit(lambda: 0, compute_cost=2.5e-2)
        assert rt.get(refs) == [i * 3 for i in range(12)]
        assert rt.get(filler) == 0
        assert rt.log.count("raylet_takeover") >= 1
        assert rt.log.count("raylet_takeover_end") >= 1
        assert not rt.failures.takeovers
        card_raylet = rt._raylets_by_node["gpucard0"][0]
        assert rt._raylet_of_device["gpucard0/gpu0"] is card_raylet

    def test_gen2_dpu_death_is_a_noop(self):
        rt = ServerlessRuntime(
            self._cluster(), omniscient_config(generation=Generation.GEN2)
        )
        ChaosMonkey(rt, ChaosSchedule().fail_dpu(2e-3, "gpucard0")).arm()
        refs = self._gpu_work(rt)
        assert rt.get(refs) == [i * 3 for i in range(8)]
        assert rt.tasks_failed == 0
        # per-device raylets never lived on the DPU: nothing to adopt — the
        # paper's single-point-of-control contrast between generations
        assert rt.log.count("raylet_takeover") == 0
        assert not rt.failures.takeovers

    def test_gen1_dpu_death_detected_by_triage_probes(self):
        rt = ServerlessRuntime(
            self._cluster(), detect_config(generation=Generation.GEN1)
        )
        ChaosMonkey(rt, ChaosSchedule().fail_dpu(2e-3, "gpucard0")).arm()
        refs = self._gpu_work(rt, n=12, cost=4e-3)
        filler = rt.submit(lambda: 0, compute_cost=2.5e-2)
        assert rt.get(refs) == [i * 3 for i in range(12)]
        assert rt.get(filler) == 0
        assert rt.tasks_failed == 0
        # silence -> probes split the card into dead DPU + live companion
        triages = [
            ev for ev in rt.log.of_kind("domain_triage") if ev["node"] == "gpucard0"
        ]
        assert triages and "gpucard0/dpu" in triages[0]["dead"]
        assert "gpucard0/gpu0" in triages[0]["live"]
        assert rt.log.count("raylet_takeover") >= 1
        # a live companion vetoed the whole-node verdict
        assert rt.log.count("node_dead") == 0


class TestStaleDirectoryReconciliation:
    """A fault can wipe a store and heal before any detector notices
    (device power-cycled while the cluster sat idle).  The directory then
    claims READY copies that do not exist; ``get`` must reconcile the
    phantom locations and recover instead of raising."""

    def test_undetected_wipe_is_reconciled_and_recovered(self):
        rt = ServerlessRuntime(
            build_serverful(n_servers=3, gpus_per_server=1), omniscient_config()
        )
        a = rt.submit(
            lambda: 7, compute_cost=1e-3, supported_kinds=GPU, output_nbytes=1024
        )
        assert rt.get(a) == 7
        victim = rt.ownership.entry(a.object_id).device_id
        # silent wipe: memory gone, device alive, nobody told the GCS
        rt._store_of_device[victim].clear()
        assert rt.ownership.is_ready(a.object_id)  # the directory is stale
        b = rt.submit(lambda x: x + 1, (a,), compute_cost=1e-3)
        assert rt.get(b) == 8
        reconciled = rt.log.of_kind("object_reconciled")
        assert reconciled and reconciled[0]["object"] == a.object_id
        assert reconciled[0]["stale_locations"] == [victim.rsplit("/", 1)[0]]
        recovered = [
            ev for ev in rt.log.of_kind("object_recovered") if ev["object"] == a.object_id
        ]
        assert recovered and recovered[0]["source"] == "lineage"


class TestSeededDeterminism:
    """Same seed + same workload -> identical event log and span trace,
    with all three device-granular fault domains in the schedule."""

    def _run(self, seed, config=detect_config, generation=Generation.GEN1):
        cluster = build_physical_disagg(
            n_servers=2, n_gpu_cards=2, n_fpga_cards=0, n_mem_blades=1
        )
        cache = make_reliable_cache(cluster, ReplicationScheme(2))
        rt = ServerlessRuntime(
            cluster,
            config(generation=generation),
            reliable_cache=cache,
        )
        schedule = ChaosSchedule.random(
            seed,
            node_ids=["server1"],
            device_ids=["gpucard0/gpu0", "gpucard1/gpu0"],
            horizon=2e-2,
            n_crashes=0,
            n_partitions=0,
            n_stragglers=0,
            n_device_failures=1,
            blade_ids=["memblade0"],
            n_blade_failures=1,
            dpu_ids=["gpucard0", "gpucard1"],
            n_dpu_failures=1,
        )
        ChaosMonkey(rt, schedule).arm()
        lanes = []
        for lane in range(4):
            ref = rt.submit(
                lambda lane=lane: lane, compute_cost=3e-3, supported_kinds=GPU
            )
            for _ in range(3):
                ref = rt.submit(lambda x: x + 1, (ref,), compute_cost=3e-3)
            lanes.append(ref)
        total = rt.submit(lambda *xs: sum(xs), tuple(lanes), compute_cost=1e-3)
        assert rt.get(total) == sum(lane + 3 for lane in range(4))
        return rt

    def _soak(self, seed):
        rt = self._run(seed)
        spans = tuple(
            (s.name, round(s.start, 12), round(s.end, 12))
            for s in rt.telemetry.tracer.finished_spans()
        )
        return rt.log.signature(), rt.sim.now, spans

    def test_same_seed_identical_log_and_spans(self):
        sig_a, now_a, spans_a = self._soak(11)
        sig_b, now_b, spans_b = self._soak(11)
        assert sig_a == sig_b
        assert now_a == now_b
        assert spans_a == spans_b

    def test_different_seed_diverges(self):
        sig_a, _, _ = self._soak(11)
        sig_c, _, _ = self._soak(12)
        assert sig_a != sig_c

    # sha1(repr(log.signature()))[:12] of seed 11 after a full drain, recorded
    # at the commit before failure domains left ServerlessRuntime (PR 14): the
    # same-commit comparisons above cannot see an event that moved in both runs
    PINNED = {
        (omniscient_config, Generation.GEN1): "79b6d2056deb",
        (omniscient_config, Generation.GEN2): "e055b35c2cae",
        (detect_config, Generation.GEN1): "c1202f233e9d",
        (detect_config, Generation.GEN2): "344e8ace8514",
    }

    @pytest.mark.parametrize(
        "config,generation", sorted(PINNED, key=lambda k: (k[0].__name__, k[1].name))
    )
    def test_signature_is_pinned_across_commits(self, config, generation):
        rt = self._run(11, config, generation)
        rt.sim.run()  # let every scheduled revival land
        digest = hashlib.sha1(repr(rt.log.signature()).encode()).hexdigest()
        assert digest[:12] == self.PINNED[config, generation]

    @pytest.mark.parametrize("generation", [Generation.GEN1, Generation.GEN2])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_failure_tables_drain_without_a_detector(self, seed, generation):
        """Every fault in the schedule recovers, so once the revivals land the
        control plane's failure view is empty again (quiescence, ROADMAP item
        4).  Omniscient only: with a detector the view legitimately stays
        stale once the loops stop."""
        rt = self._run(seed, omniscient_config, generation)
        rt.sim.run()
        failures = rt.failures
        assert not failures.dead_nodes
        assert not failures.dead_devices
        assert not failures.dead_blades
        assert not failures.takeovers
        assert not failures.adopted_from
