"""Recovery and object lifetime (``repro.runtime.recovery``).

The ledger only ever runs one recovery path (the driver's ``get`` reading the
reliable cache), so everything else — checkpoint restore and frontier, lineage,
proactive recovery from a verdict, the replay budget, deferred frees, spills
lost with their blade, stale-directory reconciliation — is pinned here across
commits, in both resolution modes.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.caching.replication import ReplicationScheme
from repro.cluster import DurableStore
from repro.cluster.cluster import build_physical_disagg, build_serverful
from repro.cluster.hardware import GB, MB, DeviceKind
from repro.runtime import ResolutionMode, RuntimeConfig, ServerlessRuntime
from repro.runtime.runtime import make_reliable_cache

from conftest import assert_recovery_drained

GPU = frozenset({DeviceKind.GPU})
PUSH, PULL = ResolutionMode.PUSH, ResolutionMode.PULL


def config(mode) -> RuntimeConfig:
    return RuntimeConfig(
        resolution=mode,
        max_retries=10,
        retry_backoff_base=2e-3,
        sanitizers=("trace", "invariants", "hb"),
    )


def outcome_of(thunk) -> str:
    try:
        return repr(thunk())
    except Exception as exc:  # the witness pins which typed error, and its text
        return f"{type(exc).__name__}: {exc}"


class TestCrossCommitWitness:
    """Every way a lost object comes back (or an object goes), pinned across
    commits: log records, protocol events, spans, metrics, the clock, the
    fabric counters and what the driver saw must all replay exactly."""

    @pytest.fixture(autouse=True)
    def _two_lineage_replays(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.runtime.MAX_LINEAGE_REPLAYS", 2)

    VICTIM = "gpucard0/gpu0"  # the chain's home; restores land on the head node
    CONSUMER = "server1/cpu"
    MECHANISMS = ("checkpoint", "frontier", "cache", "lineage", "unrecoverable")

    # recorded at the commit before recovery left ServerlessRuntime (PR 16),
    # identical under two PYTHONHASHSEEDs.
    # Re-recorded when a task's phases stopped being child spans (the Chrome
    # export draws them): only span ids moved, every other span is equal.
    # The PUSH cells of checkpoint-proactive, frontier, lineage and
    # unrecoverable were re-recorded when an arrival signal stopped outliving
    # its copy: a retry or replay onto the restored victim is pushed its input
    # again instead of finding a first-life signal, so (frontier, get) returns
    # 3 instead of giving up with "argument vanished", the proactive cells retry
    # half as often, and the get cells' replayed chain waits for each input.
    # The PUSH cells in which a push lands were re-recorded when a landing
    # started to send a ``land:`` message that the attempt it fed receives:
    # only the probe trace moved (one ``land`` event per landing, one receive).
    PINNED = {
        ('matrix', 'checkpoint', 'get', 'PUSH'): "4c675da94f75",
        ('matrix', 'checkpoint', 'get', 'PULL'): "df675e1da435",
        ('matrix', 'checkpoint', 'proactive', 'PUSH'): "f79c2d014289",
        ('matrix', 'checkpoint', 'proactive', 'PULL'): "52dd732554d0",
        ('matrix', 'frontier', 'get', 'PUSH'): "3fe4ff5f1145",
        ('matrix', 'frontier', 'get', 'PULL'): "a6f97b8344fa",
        ('matrix', 'frontier', 'proactive', 'PUSH'): "9549015fb26a",
        ('matrix', 'frontier', 'proactive', 'PULL'): "1f234cc19266",
        ('matrix', 'cache', 'get', 'PUSH'): "33eca6f18621",
        ('matrix', 'cache', 'get', 'PULL'): "a540bf31ef48",
        ('matrix', 'cache', 'proactive', 'PUSH'): "75d8888e0ed8",
        ('matrix', 'cache', 'proactive', 'PULL'): "567d8c8c83ee",
        ('matrix', 'lineage', 'get', 'PUSH'): "f4dc699a031f",
        ('matrix', 'lineage', 'get', 'PULL'): "7598fea3d5db",
        ('matrix', 'lineage', 'proactive', 'PUSH'): "099e0ec4e96f",
        ('matrix', 'lineage', 'proactive', 'PULL'): "9400d8b86b5e",
        ('matrix', 'unrecoverable', 'get', 'PUSH'): "e5e5dfffb887",
        ('matrix', 'unrecoverable', 'get', 'PULL'): "26e5cb418e86",
        ('matrix', 'unrecoverable', 'proactive', 'PUSH'): "c98105fa002b",
        ('matrix', 'unrecoverable', 'proactive', 'PULL'): "5279fd1745b8",
        ('deferred_free', 'PUSH'): "5301ed57de64",
        ('deferred_free', 'PULL'): "b1b03feb9c0e",
        ('spill_then_blade_death', False, 'PUSH'): "fead5f708e91",
        ('spill_then_blade_death', False, 'PULL'): "fead5f708e91",
        ('spill_then_blade_death', True, 'PUSH'): "3e386fab9b2e",
        ('spill_then_blade_death', True, 'PULL'): "f7aade62fc45",
        ('stale_entry', False, 'PUSH'): "09d2f4d437bb",
        ('stale_entry', False, 'PULL'): "09d2f4d437bb",
        ('stale_entry', True, 'PUSH'): "7f63890ddf0f",
        ('stale_entry', True, 'PULL'): "57436221674f",
    }

    @staticmethod
    def digest(rt: ServerlessRuntime, outcome: str) -> str:
        spans = [
            (
                s.span_id, s.parent_id, s.name, s.category, s.start, s.end,
                s.node, s.device, sorted(s.attrs.items()),
            )
            for s in rt.telemetry.tracer.spans
        ]
        blob = repr(
            (
                outcome, rt.log.signature(), rt.probe.trace.signature(), spans,
                sorted(rt.metrics_summary().items()), rt.sim.now,
                rt.net.stats.bytes_moved, rt.net.stats.transfers, rt.control_messages,
                rt.lineage.replays, rt._open_tasks,
            )
        )
        return hashlib.sha1(blob.encode()).hexdigest()[:12]

    # -- {mechanism} x {driver get, proactive} x {PUSH, PULL} ------------------

    def matrix(self, mechanism, trigger, mode):
        cluster = build_physical_disagg()
        stores = {}
        if mechanism in ("checkpoint", "frontier"):
            stores["durable_store"] = DurableStore(cluster.sim)
        if mechanism == "cache":
            stores["reliable_cache"] = make_reliable_cache(cluster, ReplicationScheme(2))
        rt = ServerlessRuntime(cluster, config(mode), **stores)

        def step(func, args, name, nbytes):
            return rt.submit(
                func, args, compute_cost=1e-3, output_nbytes=nbytes,
                supported_kinds=GPU, pinned_device=self.VICTIM, name=name,
            )

        x = step(lambda: 1, (), "x", MB)
        a = step(lambda v: v + 1, (x,), "a", MB)
        c = step(lambda v: v + 1, (a,), "c", 64 * MB)
        assert rt.get(c) == 3
        if mechanism == "checkpoint":
            rt.checkpoint(c)  # the target itself
        if mechanism == "frontier":
            rt.checkpoint(a)  # an ancestor: bounds the replay
        target = c
        if trigger == "proactive":
            # an open consumer still fetching ``c`` when its only copy dies:
            # the death verdict hands the loss to recovery, no ``get`` involved
            target = rt.submit(
                lambda v: v * 10, (c,), compute_cost=1e-3,
                pinned_device=self.CONSUMER, name="consumer",
            )
            rt.run(until=rt.sim.now + 5e-4)

        def strike():
            rt.fail_device(self.VICTIM)
            rt.restore_device(self.VICTIM)

        strikes_left = 3  # one more than MAX_LINEAGE_REPLAYS

        def saboteur(ready_oid):
            nonlocal strikes_left
            if ready_oid == c.object_id and strikes_left:
                strikes_left -= 1
                strike()

        if mechanism == "unrecoverable":
            rt.object_ready_hooks.append(saboteur)
        strike()
        outcome = outcome_of(lambda: rt.get(target))
        rt.sim.run()
        return rt, outcome

    # -- object lifetime and the two location-upkeep paths ---------------------

    def deferred_free(self, mode):
        rt = ServerlessRuntime(build_physical_disagg(), config(mode))
        p = rt.submit(
            lambda: 5, compute_cost=1e-3, output_nbytes=MB, pinned_device="server0/cpu"
        )
        assert rt.get(p) == 5
        slow = rt.submit(
            lambda v: v + 1, (p,), compute_cost=2e-2, pinned_device=self.CONSUMER
        )
        rt.run(until=rt.sim.now + 1e-3)
        assert rt.free(p) == 0  # a consumer is in flight: deferred
        outcome = outcome_of(lambda: rt.get(slow))
        rt.sim.run()
        assert rt.log.count("free_deferred") == rt.log.count("free_completed") == 1
        assert not rt.ownership.contains(p.object_id)
        return rt, outcome

    def spill_then_blade_death(self, consumer_open, mode):
        cluster = build_physical_disagg(
            n_servers=1, n_gpu_cards=0, n_fpga_cards=0, n_mem_blades=1
        )
        rt = ServerlessRuntime(cluster, config(mode))
        # three 24 GB outputs overflow the 64 GB head CPU store: the oldest spills
        a, b, c = (
            rt.submit(lambda t=tag: t, compute_cost=1e-3, output_nbytes=24 * GB)
            for tag in "ABC"
        )
        assert rt.get([a, b, c]) == ["A", "B", "C"]
        assert rt.ownership.locations(a.object_id) == ["memblade0"]
        target = a
        if consumer_open:
            target = rt.submit(lambda v: v * 2, (a,), compute_cost=1e-3)
            rt.run(until=rt.sim.now + 1e-4)
        rt.failures.fail_blade("memblade0", "killed by driver", announce=True)
        rt.free([b, c])  # make room: the replay must land in live memory
        outcome = outcome_of(lambda: rt.get(target))
        rt.sim.run()
        return rt, outcome

    def stale_entry(self, consumer_open, mode):
        rt = ServerlessRuntime(build_serverful(n_servers=3, gpus_per_server=1), config(mode))
        a = rt.submit(lambda: 7, compute_cost=1e-3, supported_kinds=GPU, output_nbytes=1024)
        assert rt.get(a) == 7
        # silent wipe: memory gone, device alive, nobody told the GCS
        rt._store_of_device[rt.ownership.entry(a.object_id).device_id].clear()
        target = a
        if consumer_open:  # the data plane's fetch finds the phantom, not ``get``
            target = rt.submit(lambda v: v + 1, (a,), compute_cost=1e-3)
        outcome = outcome_of(lambda: rt.get(target))
        rt.sim.run()
        assert rt.log.count("object_reconciled") == 1
        return rt, outcome

    SCENARIOS = [
        *(("matrix", m, t) for m in MECHANISMS for t in ("get", "proactive")),
        ("deferred_free",),
        ("spill_then_blade_death", False),
        ("spill_then_blade_death", True),
        ("stale_entry", False),
        ("stale_entry", True),
    ]

    @pytest.mark.parametrize("mode", [PUSH, PULL], ids=lambda m: m.name)
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: "-".join(map(str, s)))
    def test_every_recovery_path_replays_exactly(self, scenario, mode):
        name, *args = scenario
        rt, outcome = getattr(self, name)(*args, mode)
        assert self.digest(rt, outcome) == self.PINNED[(*scenario, mode.name)]
        assert_recovery_drained(rt)
