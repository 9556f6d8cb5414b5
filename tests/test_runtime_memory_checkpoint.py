"""Tests for explicit free(), checkpointing, and the trace exporter."""

from __future__ import annotations

import io
import json

import pytest

from repro.cluster import DeviceKind, DurableStore, build_physical_disagg
from repro.runtime import (
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
    to_chrome_trace,
    write_chrome_trace,
)

from asserts import assert_recovery_drained


def runtime_with_durable():
    cluster = build_physical_disagg()
    return ServerlessRuntime(
        cluster,
        RuntimeConfig(resolution=ResolutionMode.PULL),
        durable_store=DurableStore(cluster.sim),
    )


class TestFree:
    def test_free_releases_bytes(self):
        rt = ServerlessRuntime(build_physical_disagg())
        ref = rt.submit(lambda: "x", output_nbytes=1 << 20)
        rt.get(ref)
        assert rt.free(ref) == 1 << 20
        assert_recovery_drained(rt)

    def test_freed_object_is_gone(self):
        rt = ServerlessRuntime(build_physical_disagg())
        ref = rt.submit(lambda: 1)
        rt.get(ref)
        rt.free(ref)
        with pytest.raises(KeyError):
            rt.get(ref)
        assert_recovery_drained(rt)

    def test_free_is_idempotent_and_accepts_lists(self):
        rt = ServerlessRuntime(build_physical_disagg())
        refs = [rt.submit(lambda i=i: i, output_nbytes=100) for i in range(3)]
        rt.get(refs)
        assert rt.free(refs) == 300
        assert rt.free(refs) == 0
        assert_recovery_drained(rt)

    def test_free_releases_device_memory(self):
        cluster = build_physical_disagg()
        rt = ServerlessRuntime(cluster)
        cpu = cluster.node("server0").first_of_kind(DeviceKind.CPU)
        used_before = cpu.memory_used
        ref = rt.submit(
            lambda: "big", output_nbytes=1 << 20, pinned_device=cpu.device_id
        )
        rt.get(ref)
        assert cpu.memory_used > used_before
        rt.free(ref)
        assert cpu.memory_used == used_before
        assert_recovery_drained(rt)


class TestCheckpoint:
    def chain(self, rt, device_id, length=8, checkpoint_at=None):
        ref = rt.submit(lambda: 0, compute_cost=1e-3, pinned_device=device_id)
        for i in range(1, length):
            ref = rt.submit(
                lambda x: x + 1, (ref,), compute_cost=1e-3, pinned_device=device_id
            )
            if checkpoint_at is not None and i == checkpoint_at:
                rt.get(ref)
                rt.checkpoint(ref)
        return ref

    def test_checkpoint_truncates_replay(self):
        rt = runtime_with_durable()
        cpu = rt.cluster.node("server0").first_of_kind(DeviceKind.CPU)
        ref = self.chain(rt, cpu.device_id, length=8, checkpoint_at=4)
        assert rt.get(ref) == 7
        rt.fail_node("server0")
        rt.restart_node("server0")
        assert rt.get(ref) == 7
        assert rt.lineage.replays == 3  # steps 5..7 only
        assert_recovery_drained(rt)

    def test_checkpointed_object_itself_restores_without_replay(self):
        rt = runtime_with_durable()
        cpu = rt.cluster.node("server0").first_of_kind(DeviceKind.CPU)
        ref = rt.submit(lambda: 42, pinned_device=cpu.device_id)
        rt.get(ref)
        rt.checkpoint(ref)
        rt.fail_node("server0")
        rt.restart_node("server0")
        assert rt.get(ref) == 42
        assert rt.lineage.replays == 0
        assert_recovery_drained(rt)

    def test_free_forgets_the_checkpoint(self):
        rt = runtime_with_durable()
        ref = rt.submit(lambda: 42)
        rt.get(ref)
        rt.checkpoint(ref)
        rt.free(ref)
        assert ref.object_id not in rt.recovery.checkpoints
        assert_recovery_drained(rt)

    def test_checkpoint_without_durable_store_rejected(self):
        rt = ServerlessRuntime(build_physical_disagg())
        ref = rt.submit(lambda: 1)
        rt.get(ref)
        with pytest.raises(RuntimeError, match="durable store"):
            rt.checkpoint(ref)
        assert_recovery_drained(rt)

    def test_checkpoint_costs_virtual_time(self):
        rt = runtime_with_durable()
        ref = rt.submit(lambda: "x", output_nbytes=8 << 20)
        rt.get(ref)
        before = rt.sim.now
        rt.checkpoint(ref)
        assert rt.sim.now > before  # durable write is not free
        assert_recovery_drained(rt)


class TestChromeTrace:
    def test_events_match_timelines(self):
        rt = ServerlessRuntime(build_physical_disagg())
        refs = [rt.submit(lambda i=i: i, name=f"t{i}") for i in range(4)]
        rt.get(refs)
        events = to_chrome_trace(rt)
        tasks = [e for e in events if e["ph"] == "X" and e["cat"] == "task"]
        assert len(tasks) == 4
        by_name = {tl.name: tl for tl in rt.timelines}
        for event in tasks:
            assert event["dur"] > 0
            assert event["tid"] == by_name[event["name"]].device_id  # device row
        assert_recovery_drained(rt)

    def test_write_to_file_object(self):
        rt = ServerlessRuntime(build_physical_disagg())
        rt.get(rt.submit(lambda: 1, name="solo"))
        buf = io.StringIO()
        count = write_chrome_trace(rt, buf)
        payload = json.loads(buf.getvalue())
        assert count == len(payload["traceEvents"])
        assert payload["traceEvents"][0]["name"] == "solo"
        assert_recovery_drained(rt)

    def test_write_to_path(self, tmp_path):
        rt = ServerlessRuntime(build_physical_disagg())
        rt.get(rt.submit(lambda: 1))
        path = tmp_path / "trace.json"
        write_chrome_trace(rt, str(path))
        assert json.loads(path.read_text())["traceEvents"]
        assert_recovery_drained(rt)
