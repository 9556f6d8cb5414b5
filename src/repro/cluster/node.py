"""Nodes: servers, physically-disaggregated device cards, memory blades.

A node groups one or more :class:`~repro.cluster.hardware.Device` instances
behind a single network attachment point.  On a regular server the CPU is
the attachment point; on a disaggregated card the DPU is (Figure 3); on a
memory blade the blade controller is.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

from .hardware import Device, DeviceKind

__all__ = ["NodeKind", "Node"]


class NodeKind(enum.Enum):
    SERVER = "server"
    DISAGG_DEVICE = "disagg_device"  # DPU + dominant resource (GPU/FPGA/DRAM)
    MEMORY_BLADE = "memory_blade"
    ACCELERATOR = "accelerator"  # tightly-coupled cluster member


@dataclass
class Node:
    node_id: str
    kind: NodeKind
    devices: List[Device] = field(default_factory=list)

    def add_device(self, device: Device) -> None:
        self.devices.append(device)
        # attachment_device and dominant_device are resolved once per device set
        self.__dict__.pop("attachment_device", None)
        self.__dict__.pop("dominant_device", None)

    def devices_of_kind(self, kind: DeviceKind) -> List[Device]:
        return [d for d in self.devices if d.kind == kind]

    def first_of_kind(self, kind: DeviceKind) -> Optional[Device]:
        matches = self.devices_of_kind(kind)
        return matches[0] if matches else None

    @cached_property
    def attachment_device(self) -> Device:
        """The device that terminates the node's network link."""
        preferred = {
            NodeKind.SERVER: DeviceKind.CPU,
            NodeKind.DISAGG_DEVICE: DeviceKind.DPU,
            NodeKind.MEMORY_BLADE: DeviceKind.MEMORY_BLADE,
            NodeKind.ACCELERATOR: DeviceKind.GPU,
        }[self.kind]
        dev = self.first_of_kind(preferred)
        if dev is None:
            if not self.devices:
                raise ValueError(f"node {self.node_id!r} has no devices")
            dev = self.devices[0]
        return dev

    @property
    def attachment_endpoint(self) -> str:
        return self.attachment_device.device_id

    @cached_property
    def dominant_device(self) -> Device:
        """The device a scheduler targets when placing work on this node.

        For a disaggregated card that is the companion accelerator/DRAM,
        not the DPU fronting it.
        """
        if self.kind == NodeKind.DISAGG_DEVICE:
            for dev in self.devices:
                if dev.kind != DeviceKind.DPU:
                    return dev
        return self.attachment_device

    @property
    def total_memory(self) -> int:
        return sum(d.spec.memory_bytes for d in self.devices)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = ",".join(d.kind.value for d in self.devices)
        return f"Node({self.node_id}, {self.kind.value}, [{kinds}])"
