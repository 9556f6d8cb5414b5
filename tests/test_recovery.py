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
from repro.runtime import Generation, ResolutionMode, RuntimeConfig, ServerlessRuntime
from repro.runtime.runtime import make_reliable_cache
from repro.telemetry.spans import exported_attrs

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
    # Re-pinned when the directory started to record store ids.  The twenty
    # matrix cells: the victim's death drops its store's copies in one
    # ``own_drop_device`` event per entry (READY -> LOST) where it used to
    # sever the device columns and then drop the node location in a second
    # event; only the probe trace moved.  The stale_entry cells: the
    # ``object_reconciled`` record names the wiped store (``server0/gpu0``),
    # not its node, and with a consumer open the consumer's copy on
    # ``server0/cpu`` counts as a second location in the probe trace.
    # All thirty were re-pinned when the scheduler's running-task gauge
    # (``skadi_device_outstanding_tasks``) was deleted: only the metrics moved.
    PINNED = {
        ('matrix', 'checkpoint', 'get', 'PUSH'): {
            "outcome": "bfea02c47de2", "log": "d8cdd1fe3b4f", "probe": "3722137ba1c2",
            "spans": "438466c704e8", "metrics": "b4b1feb5b6c7", "clock": "9bd8a8cf7fc4",
            "bytes": "52faafd10264", "messages": "c1dfd96eea8c",
        },
        ('matrix', 'checkpoint', 'get', 'PULL'): {
            "outcome": "bfea02c47de2", "log": "7f9be96911cd", "probe": "59668280f0a5",
            "spans": "57e61b6beb7e", "metrics": "4d97f817b05e", "clock": "01473eeab566",
            "bytes": "52faafd10264", "messages": "c1dfd96eea8c",
        },
        ('matrix', 'checkpoint', 'proactive', 'PUSH'): {
            "outcome": "47f77b4fb3b7", "log": "28162d00def3", "probe": "08b4c02ae138",
            "spans": "fcd4b0914fff", "metrics": "8d2e378b0640", "clock": "9a1bcadd18b5",
            "bytes": "bf12930b23e2", "messages": "fa35e192121e",
        },
        ('matrix', 'checkpoint', 'proactive', 'PULL'): {
            "outcome": "47f77b4fb3b7", "log": "e6ee6f06937e", "probe": "33baf6cb5221",
            "spans": "ed1831a4df62", "metrics": "4cee58e1d94c", "clock": "d5e0fe99bd05",
            "bytes": "bf12930b23e2", "messages": "9e6a55b6b456",
        },
        ('matrix', 'frontier', 'get', 'PUSH'): {
            "outcome": "7e583957a7ea", "log": "734bed2b29d9", "probe": "4e9b8ec3924f",
            "spans": "487553e36c31", "metrics": "ea35d5a2f03e", "clock": "eef12d9d4318",
            "bytes": "28593d2da73e", "messages": "fe5dbbcea5ce",
        },
        ('matrix', 'frontier', 'get', 'PULL'): {
            "outcome": "7e583957a7ea", "log": "913fd96ee87f", "probe": "8f64a6a509b1",
            "spans": "e5d55858b8f2", "metrics": "01569b0fc9b4", "clock": "f5bb9185e122",
            "bytes": "28593d2da73e", "messages": "7b52009b64fd",
        },
        ('matrix', 'frontier', 'proactive', 'PUSH'): {
            "outcome": "47f77b4fb3b7", "log": "f1217b6b0b69", "probe": "adf62325dfe0",
            "spans": "6b4eb6959c33", "metrics": "8d2e378b0640", "clock": "008a6c38076d",
            "bytes": "bf12930b23e2", "messages": "fa35e192121e",
        },
        ('matrix', 'frontier', 'proactive', 'PULL'): {
            "outcome": "47f77b4fb3b7", "log": "1e4607fd6cd7", "probe": "201eba0a1e55",
            "spans": "1710bafc157d", "metrics": "4cee58e1d94c", "clock": "7da37a96868e",
            "bytes": "bf12930b23e2", "messages": "9e6a55b6b456",
        },
        ('matrix', 'cache', 'get', 'PUSH'): {
            "outcome": "bfea02c47de2", "log": "2fb20ffed35d", "probe": "e48be024f855",
            "spans": "78a40624f672", "metrics": "ed52ebb8b08a", "clock": "b6e81c31c3a0",
            "bytes": "52faafd10264", "messages": "c1dfd96eea8c",
        },
        ('matrix', 'cache', 'get', 'PULL'): {
            "outcome": "bfea02c47de2", "log": "f266b2bd1d7a", "probe": "640ed0dfd546",
            "spans": "7e52a3f6a978", "metrics": "e334f9ba28ed", "clock": "a4d163b3e786",
            "bytes": "52faafd10264", "messages": "c1dfd96eea8c",
        },
        ('matrix', 'cache', 'proactive', 'PUSH'): {
            "outcome": "c0f552242bdd", "log": "bc73112d9ff8", "probe": "d9b8d03693af",
            "spans": "239c1695bca2", "metrics": "6591a12baca2", "clock": "2d4ae01339e9",
            "bytes": "78326d0a7298", "messages": "0ade7c2cf97f",
        },
        ('matrix', 'cache', 'proactive', 'PULL'): {
            "outcome": "c0f552242bdd", "log": "4111e29bb80d", "probe": "76947cda383d",
            "spans": "002b8ac8805c", "metrics": "332bdcb32d1c", "clock": "f5794687497c",
            "bytes": "78326d0a7298", "messages": "0716d9708d32",
        },
        ('matrix', 'lineage', 'get', 'PUSH'): {
            "outcome": "889bdee52bed", "log": "1e8a8a01a536", "probe": "15e0aa499e9b",
            "spans": "a3b8075afae0", "metrics": "4665c0de1f08", "clock": "df864d60bf13",
            "bytes": "52faafd10264", "messages": "7b52009b64fd",
        },
        ('matrix', 'lineage', 'get', 'PULL'): {
            "outcome": "889bdee52bed", "log": "f97b4ca55590", "probe": "878d6b21eaec",
            "spans": "a88a9e87d663", "metrics": "3dc7cb829ece", "clock": "cd65ca4d6fcd",
            "bytes": "52faafd10264", "messages": "7b52009b64fd",
        },
        ('matrix', 'lineage', 'proactive', 'PUSH'): {
            "outcome": "47f77b4fb3b7", "log": "abe5d264b73f", "probe": "535f268dc29d",
            "spans": "ca0a8c87b99b", "metrics": "8d2e378b0640", "clock": "d0f1c8a404f9",
            "bytes": "bf12930b23e2", "messages": "fa35e192121e",
        },
        ('matrix', 'lineage', 'proactive', 'PULL'): {
            "outcome": "47f77b4fb3b7", "log": "9f6d23d457a5", "probe": "c1c6628e0434",
            "spans": "4b81c32650de", "metrics": "4cee58e1d94c", "clock": "c365d6083b63",
            "bytes": "bf12930b23e2", "messages": "9e6a55b6b456",
        },
        ('matrix', 'unrecoverable', 'get', 'PUSH'): {
            "outcome": "97e033160be2", "log": "e845c56b9cab", "probe": "244a0d5f7c6a",
            "spans": "756d7bb30e7d", "metrics": "64d192d4666a", "clock": "3a91bd448bc2",
            "bytes": "52faafd10264", "messages": "4d134bc07221",
        },
        ('matrix', 'unrecoverable', 'get', 'PULL'): {
            "outcome": "97e033160be2", "log": "e7b3ba09c924", "probe": "10257a232796",
            "spans": "007cd8272cdd", "metrics": "49fb749f8568", "clock": "2bbeed803acb",
            "bytes": "52faafd10264", "messages": "4d134bc07221",
        },
        ('matrix', 'unrecoverable', 'proactive', 'PUSH'): {
            "outcome": "3b2b7d769063", "log": "e778d5f9a0a7", "probe": "f43015329511",
            "spans": "1330795cc571", "metrics": "d6c28a929624", "clock": "5003ffcdd474",
            "bytes": "78326d0a7298", "messages": "f1f836cb4ea6",
        },
        ('matrix', 'unrecoverable', 'proactive', 'PULL'): {
            "outcome": "3b2b7d769063", "log": "f95224bf1fb2", "probe": "9b367d5e2059",
            "spans": "c2f7c277eac3", "metrics": "f49119921c88", "clock": "58b454913d06",
            "bytes": "78326d0a7298", "messages": "761f22b2c159",
        },
        ('deferred_free', 'PUSH'): "4fe00d0225b3",
        ('deferred_free', 'PULL'): "6c608dfbc493",
        ('spill_then_blade_death', False, 'PUSH'): "723b20bd4226",
        ('spill_then_blade_death', False, 'PULL'): "723b20bd4226",
        ('spill_then_blade_death', True, 'PUSH'): {
            "outcome": "b3b8b1e34e55", "log": "b33a51a9ee7c", "probe": "9b42177c0256",
            "spans": "85f01108f26e", "metrics": "80997212e983", "clock": "118edbaa20e7",
            "bytes": "1e686433557e", "messages": "b1d5781111d8",
        },
        ('spill_then_blade_death', True, 'PULL'): "4290497e94fd",
        ('stale_entry', False, 'PUSH'): {
            "outcome": "595ed3c1ed24", "log": "afd345788692", "probe": "72ae0957ebf4",
            "spans": "7bad6bd4cdf5", "metrics": "8b45d9389571", "clock": "fa78cf3e1471",
            "bytes": "52faafd10264", "messages": "c1dfd96eea8c",
        },
        ('stale_entry', False, 'PULL'): {
            "outcome": "595ed3c1ed24", "log": "afd345788692", "probe": "72ae0957ebf4",
            "spans": "7bad6bd4cdf5", "metrics": "8b45d9389571", "clock": "fa78cf3e1471",
            "bytes": "52faafd10264", "messages": "c1dfd96eea8c",
        },
        ('stale_entry', True, 'PUSH'): {
            "outcome": "bfec0743fbfb", "log": "4b119ed6532b", "probe": "38a172e14826",
            "spans": "f10daf365dc3", "metrics": "2f0d75039fa1", "clock": "583e1cb5aa9c",
            "bytes": "677e85a3d31a", "messages": "0ade7c2cf97f",
        },
        ('stale_entry', True, 'PULL'): {
            "outcome": "bfec0743fbfb", "log": "6384f8149ddf", "probe": "36a6ac366359",
            "spans": "fa01ba3b2ceb", "metrics": "bca592494129", "clock": "740d83fbe912",
            "bytes": "677e85a3d31a", "messages": "17ba0791499d",
        },
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
                s.node, s.device, sorted(exported_attrs(s).items()),
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
        assert rt.ownership.locations(a.object_id) == ["memblade0/mem"]
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


@pytest.mark.parametrize("mode", [PUSH, PULL], ids=lambda m: m.name)
def test_a_free_deletes_every_copy_on_one_card(mode):
    """Under Gen-1 one raylet serves both FPGAs of a card.  An object read on
    the sibling FPGA has a copy in each store; the directory names both, and
    a free deletes both and counts both."""
    rt = ServerlessRuntime(
        build_physical_disagg(), RuntimeConfig(resolution=mode, generation=Generation.GEN1)
    )
    fpga = frozenset({DeviceKind.FPGA})
    a = rt.submit(
        lambda: 1, compute_cost=1e-3, output_nbytes=MB, supported_kinds=fpga,
        pinned_device="fpgacard0/fpga0",
    )
    b = rt.submit(
        lambda v: v + 1, (a,), compute_cost=1e-3, supported_kinds=fpga,
        pinned_device="fpgacard0/fpga1",
    )
    assert rt.get(b) == 2
    assert rt.ownership.locations(a.object_id) == ["fpgacard0/fpga0", "fpgacard0/fpga1"]
    assert rt.free(a) == 2 * MB
    assert not any(store.contains(a.object_id) for store in rt._store_of_device.values())
    assert_recovery_drained(rt)
