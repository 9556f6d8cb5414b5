"""Tests for future resolution protocols and generation behaviours.

These check the *mechanisms* behind Figure 3 / §2.3.2; the quantitative
shapes live in benchmarks/test_fig3_gen1_gen2.py and test_e1_pull_vs_push.py.
"""

from __future__ import annotations


from repro.cluster.cluster import build_physical_disagg
from repro.cluster.hardware import DeviceKind
from repro.runtime import (
    Generation,
    ResolutionMode,
    RuntimeConfig,
    SchedulingPolicy,
    ServerlessRuntime,
)


def chain_runtime(generation, resolution):
    cluster = build_physical_disagg()
    return ServerlessRuntime(
        cluster,
        RuntimeConfig(
            generation=generation,
            resolution=resolution,
            scheduling=SchedulingPolicy.ROUND_ROBIN,
        ),
    )


def run_chain(rt, length=6, cost=1e-5, kinds=frozenset({DeviceKind.FPGA})):
    ref = rt.submit(lambda: 0, compute_cost=cost, supported_kinds=kinds, name="head")
    for i in range(length - 1):
        ref = rt.submit(
            lambda x: x + 1,
            (ref,),
            compute_cost=cost,
            supported_kinds=kinds,
            name=f"link{i}",
        )
    value = rt.get(ref)
    return value, rt.sim.now


class TestResolutionSemantics:
    def test_pull_and_push_same_answer(self):
        v_pull, _ = run_chain(chain_runtime(Generation.GEN2, ResolutionMode.PULL))
        v_push, _ = run_chain(chain_runtime(Generation.GEN2, ResolutionMode.PUSH))
        assert v_pull == v_push == 5

    def test_push_faster_for_short_ops(self):
        _, t_pull = run_chain(chain_runtime(Generation.GEN2, ResolutionMode.PULL))
        _, t_push = run_chain(chain_runtime(Generation.GEN2, ResolutionMode.PUSH))
        assert t_push < t_pull

    def test_push_fewer_control_messages(self):
        rt_pull = chain_runtime(Generation.GEN2, ResolutionMode.PULL)
        rt_push = chain_runtime(Generation.GEN2, ResolutionMode.PUSH)
        run_chain(rt_pull)
        run_chain(rt_push)
        assert rt_push.control_messages < rt_pull.control_messages

    def test_gen2_beats_gen1_on_chained_fpga_ops(self):
        _, t_gen1 = run_chain(chain_runtime(Generation.GEN1, ResolutionMode.PULL))
        _, t_gen2 = run_chain(chain_runtime(Generation.GEN2, ResolutionMode.PULL))
        assert t_gen2 < t_gen1

    def test_push_shrinks_producer_to_consumer_gap(self):
        """Time from producer finish to consumer finish is what push attacks
        (note: input_stall itself is not comparable across modes, because
        push dispatches consumers eagerly at submit)."""

        def gap(rt):
            run_chain(rt, length=2)
            producer, consumer = rt.timelines[0], rt.timelines[1]
            return consumer.end - producer.end

        gap_pull = gap(chain_runtime(Generation.GEN2, ResolutionMode.PULL))
        gap_push = gap(chain_runtime(Generation.GEN2, ResolutionMode.PUSH))
        assert gap_push < gap_pull

    def test_push_to_consumer_on_same_device_needs_no_transfer(self):
        cluster = build_physical_disagg()
        rt = ServerlessRuntime(
            cluster,
            RuntimeConfig(resolution=ResolutionMode.PUSH),
        )
        fpga = cluster.devices_of_kind(DeviceKind.FPGA)[0]
        a = rt.submit(lambda: 1, pinned_device=fpga.device_id, output_nbytes=1 << 20)
        b = rt.submit(lambda x: x, (a,), pinned_device=fpga.device_id)
        before = rt.bytes_moved
        rt.get(b)
        assert rt.bytes_moved == before  # both on one device: zero bytes

    def test_pull_transfers_bytes_cross_device(self):
        cluster = build_physical_disagg()
        rt = ServerlessRuntime(cluster, RuntimeConfig(resolution=ResolutionMode.PULL))
        f0, f1 = cluster.devices_of_kind(DeviceKind.FPGA)[:2]
        a = rt.submit(lambda: 1, pinned_device=f0.device_id, output_nbytes=1 << 20)
        b = rt.submit(lambda x: x, (a,), pinned_device=f1.device_id)
        rt.get(b)
        assert rt.bytes_moved >= 1 << 20


class TestGenerations:
    def test_gen1_single_raylet_per_card(self):
        rt = chain_runtime(Generation.GEN1, ResolutionMode.PULL)
        card_raylets = [
            r for r in rt._raylets if r.host_device.kind == DeviceKind.DPU
        ]
        assert card_raylets  # DPU-hosted raylets exist
        for raylet in card_raylets:
            assert all(d.kind != DeviceKind.DPU for d in raylet.devices)

    def test_gen2_raylet_per_device(self):
        rt = chain_runtime(Generation.GEN2, ResolutionMode.PULL)
        assert not any(r.host_device.kind == DeviceKind.DPU for r in rt._raylets)
        for raylet in rt._raylets:
            if raylet.host_device.kind in (DeviceKind.GPU, DeviceKind.FPGA):
                assert raylet.devices == [raylet.host_device]

    def test_gen1_serializes_control_at_dpu(self):
        """Two FPGA ops on one card contend on the DPU raylet in Gen-1."""
        rt = chain_runtime(Generation.GEN1, ResolutionMode.PULL)
        cluster = rt.cluster
        card = next(
            n
            for n in cluster.nodes.values()
            if len(n.devices_of_kind(DeviceKind.FPGA)) == 2
        )
        f0, f1 = card.devices_of_kind(DeviceKind.FPGA)
        assert rt.raylet_for_device(f0.device_id) is rt.raylet_for_device(f1.device_id)

    def test_ownership_entries_get_device_ids(self):
        rt = chain_runtime(Generation.GEN2, ResolutionMode.PULL)
        ref = rt.submit(lambda: 1, supported_kinds=frozenset({DeviceKind.GPU}))
        rt.get(ref)
        entry = rt.ownership.entry(ref.object_id)
        assert entry.device_id is not None and "gpu" in entry.device_id
        assert entry.device_handle is not None
