"""Recovery and object lifetime (``repro.runtime.recovery``).

The ledger only ever runs one recovery path (the driver's ``get`` reading the
reliable cache), so everything else — checkpoint restore and frontier, lineage,
proactive recovery from a verdict, the replay budget, deferred frees, spills
lost with their blade, stale-directory reconciliation — is pinned here across
commits, in both resolution modes.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Union

import pytest

from repro.caching.replication import ReplicationScheme
from repro.cluster import DurableStore
from repro.cluster.cluster import build_physical_disagg, build_serverful
from repro.cluster.hardware import GB, MB, DeviceKind
from repro.runtime import ResolutionMode, RuntimeConfig, ServerlessRuntime
from repro.runtime.runtime import make_reliable_cache

from asserts import assert_recovery_drained

GPU = frozenset({DeviceKind.GPU})
PUSH, PULL = ResolutionMode.PUSH, ResolutionMode.PULL


def config(mode) -> RuntimeConfig:
    return RuntimeConfig(
        resolution=mode,
        max_retries=10,
        retry_backoff_base=2e-3,
        sanitizers=("trace", "invariants", "hb"),
    )


def sha12(value) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()[:12]


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
    # The 13 PUSH cells with a push were re-recorded when push became one
    # protocol with no subscriber table: probe sites ``push:<oid>-><dev>``
    # became ``push:<oid>`` and push spans carry ``consumers``.  In the
    # proactive cells of checkpoint, frontier, lineage and unrecoverable and in
    # (spill_then_blade_death, True) the replay's commit is pushed to the
    # consumer whose first push is still in flight, and that push joins it: one
    # more ``skadi_fetch_dedup_total`` hit.  Log, clock, bytes, transfers,
    # messages, outcome, replays and open tasks did not move.
    # A cell pinned by one string has not moved since; a cell that moves is
    # re-pinned per component, so the next move names what it moved.
    # The 11 PUSH cells below given per component were re-pinned when a commit
    # started to signal the waiting readers whose device already holds the
    # object instead of launching a wave for them: the chain's steps on the
    # victim read their producer's output there, and their waves' ``push_start``
    # events are gone from the probe trace, the only component that moved in
    # the ten matrix cells.  In (spill_then_blade_death, True) the replay
    # commits on the consumer's own device, which is signalled at once instead
    # of joining the first push still in flight: the consumer finishes at
    # 0.00345 s instead of when that push ends, the clock (the push's end now)
    # goes 1.952258 -> 1.951208 s, the ``skadi_fetch_dedup_total`` hit is gone,
    # and the task span ends earlier.  Its log, bytes, messages and outcome did
    # not move.
    PINNED = {
        ('matrix', 'checkpoint', 'get', 'PUSH'): {
            "outcome": "bfea02c47de2", "log": "d8cdd1fe3b4f", "probe": "e35febcfd943",
            "spans": "438466c704e8", "metrics": "cd63720237a7", "clock": "9bd8a8cf7fc4",
            "bytes": "52faafd10264", "messages": "c1dfd96eea8c",
        },
        ('matrix', 'checkpoint', 'get', 'PULL'): "df675e1da435",
        ('matrix', 'checkpoint', 'proactive', 'PUSH'): {
            "outcome": "47f77b4fb3b7", "log": "28162d00def3", "probe": "b54d4b1df505",
            "spans": "fcd4b0914fff", "metrics": "2e423399e6d3", "clock": "9a1bcadd18b5",
            "bytes": "bf12930b23e2", "messages": "fa35e192121e",
        },
        ('matrix', 'checkpoint', 'proactive', 'PULL'): "52dd732554d0",
        ('matrix', 'frontier', 'get', 'PUSH'): {
            "outcome": "7e583957a7ea", "log": "734bed2b29d9", "probe": "0b8b97d3001c",
            "spans": "487553e36c31", "metrics": "3d6420e7d89e", "clock": "eef12d9d4318",
            "bytes": "28593d2da73e", "messages": "fe5dbbcea5ce",
        },
        ('matrix', 'frontier', 'get', 'PULL'): "a6f97b8344fa",
        ('matrix', 'frontier', 'proactive', 'PUSH'): {
            "outcome": "47f77b4fb3b7", "log": "f1217b6b0b69", "probe": "5c504554d23e",
            "spans": "6b4eb6959c33", "metrics": "2e423399e6d3", "clock": "008a6c38076d",
            "bytes": "bf12930b23e2", "messages": "fa35e192121e",
        },
        ('matrix', 'frontier', 'proactive', 'PULL'): "1f234cc19266",
        ('matrix', 'cache', 'get', 'PUSH'): {
            "outcome": "bfea02c47de2", "log": "2fb20ffed35d", "probe": "830f79bbac36",
            "spans": "78a40624f672", "metrics": "2a89e81fcd06", "clock": "b6e81c31c3a0",
            "bytes": "52faafd10264", "messages": "c1dfd96eea8c",
        },
        ('matrix', 'cache', 'get', 'PULL'): "a540bf31ef48",
        ('matrix', 'cache', 'proactive', 'PUSH'): {
            "outcome": "c0f552242bdd", "log": "bc73112d9ff8", "probe": "a4352e17269e",
            "spans": "239c1695bca2", "metrics": "144a989f4ffc", "clock": "2d4ae01339e9",
            "bytes": "78326d0a7298", "messages": "0ade7c2cf97f",
        },
        ('matrix', 'cache', 'proactive', 'PULL'): "567d8c8c83ee",
        ('matrix', 'lineage', 'get', 'PUSH'): {
            "outcome": "889bdee52bed", "log": "1e8a8a01a536", "probe": "e2bb6904b47f",
            "spans": "a3b8075afae0", "metrics": "d823650b11ab", "clock": "df864d60bf13",
            "bytes": "52faafd10264", "messages": "7b52009b64fd",
        },
        ('matrix', 'lineage', 'get', 'PULL'): "7598fea3d5db",
        ('matrix', 'lineage', 'proactive', 'PUSH'): {
            "outcome": "47f77b4fb3b7", "log": "abe5d264b73f", "probe": "0bb17ff4b08a",
            "spans": "ca0a8c87b99b", "metrics": "2e423399e6d3", "clock": "d0f1c8a404f9",
            "bytes": "bf12930b23e2", "messages": "fa35e192121e",
        },
        ('matrix', 'lineage', 'proactive', 'PULL'): "9400d8b86b5e",
        ('matrix', 'unrecoverable', 'get', 'PUSH'): {
            "outcome": "97e033160be2", "log": "e845c56b9cab", "probe": "1edfc119524a",
            "spans": "756d7bb30e7d", "metrics": "617b5d269a69", "clock": "3a91bd448bc2",
            "bytes": "52faafd10264", "messages": "4d134bc07221",
        },
        ('matrix', 'unrecoverable', 'get', 'PULL'): "26e5cb418e86",
        ('matrix', 'unrecoverable', 'proactive', 'PUSH'): {
            "outcome": "3b2b7d769063", "log": "e778d5f9a0a7", "probe": "46e814b769a6",
            "spans": "1330795cc571", "metrics": "33b6a9d8e92c", "clock": "5003ffcdd474",
            "bytes": "78326d0a7298", "messages": "f1f836cb4ea6",
        },
        ('matrix', 'unrecoverable', 'proactive', 'PULL'): "5279fd1745b8",
        ('deferred_free', 'PUSH'): "a0ac64528063",
        ('deferred_free', 'PULL'): "b1b03feb9c0e",
        ('spill_then_blade_death', False, 'PUSH'): "fead5f708e91",
        ('spill_then_blade_death', False, 'PULL'): "fead5f708e91",
        ('spill_then_blade_death', True, 'PUSH'): {
            "outcome": "b3b8b1e34e55", "log": "b33a51a9ee7c", "probe": "9b42177c0256",
            "spans": "85f01108f26e", "metrics": "9ad5bd0bb876", "clock": "118edbaa20e7",
            "bytes": "1e686433557e", "messages": "b1d5781111d8",
        },
        ('spill_then_blade_death', True, 'PULL'): "f7aade62fc45",
        ('stale_entry', False, 'PUSH'): "09d2f4d437bb",
        ('stale_entry', False, 'PULL'): "09d2f4d437bb",
        ('stale_entry', True, 'PUSH'): "e8bb62bbdcf2",
        ('stale_entry', True, 'PULL'): "57436221674f",
    }

    @staticmethod
    def digest(
        rt: ServerlessRuntime, outcome: str, pinned: Union[str, Dict[str, str]] = ""
    ) -> Union[str, Dict[str, str]]:
        """The run in the form ``pinned`` has: one hash of every component, or
        one hash per component."""
        spans = [
            (
                s.span_id, s.parent_id, s.name, s.category, s.start, s.end,
                s.node, s.device, sorted(s.attrs.items()),
            )
            for s in rt.telemetry.tracer.spans
        ]
        parts = {
            "outcome": (outcome, rt.lineage.replays, rt._open_tasks),
            "log": rt.log.signature(), "probe": rt.probe.trace.signature(), "spans": spans,
            "metrics": sorted(rt.metrics_summary().items()), "clock": rt.sim.now,
            "bytes": (rt.net.stats.bytes_moved, rt.net.stats.transfers),
            "messages": rt.control_messages,
        }
        if isinstance(pinned, str):
            (outcome, replays, open_tasks), *middle, (moved, transfers), messages = parts.values()
            return sha12((outcome, *middle, moved, transfers, messages, replays, open_tasks))
        return {name: sha12(value) for name, value in parts.items()}

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
        pinned = self.PINNED[(*scenario, mode.name)]
        assert self.digest(rt, outcome, pinned) == pinned
        assert_recovery_drained(rt)
