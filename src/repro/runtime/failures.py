"""Failure domains: what a fault does, and what the control plane does about it.

Disaggregation changes the failure unit (§2.3): a GPU, a DPU, or a memory
blade can die while everything around it lives.  A fault has two halves, and
this module is the only place that knows either:

* the **strike** — what the hardware does: which raylets, devices, stores
  and running attempts die (or come back) for a ``node | device | dpu |
  blade``, plus the head.  The driver API and the chaos monkey strike here.
* the **verdict** — what the control plane does once it knows, however it
  learned: the dead-set + blacklist view, directory drops, actor re-homing,
  interrupts, takeover/hand-back, proactive recovery.  The failure detector
  calls the verdicts directly.

One rule joins them (:meth:`FailureDomains._announced`).  The domains differ
on purpose; each verdict's docstring says how.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from ..cluster.hardware import Device
from ..cluster.node import Node, NodeKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .raylet import Raylet
    from .runtime import ServerlessRuntime

__all__ = ["FailureDomains"]


class FailureDomains:
    """Strikes, verdicts, and the control plane's failure view."""

    def __init__(self, runtime: "ServerlessRuntime"):
        self.rt = runtime
        # the control plane's view (detected or declared), not physical truth
        self.dead_nodes: Set[str] = set()
        self.dead_devices: Set[str] = set()
        self.dead_blades: Set[str] = set()  # memory-blade node ids
        self.takeovers: Dict[str, List[str]] = {}  # node -> adopted device ids
        self.adopted_from: Dict[str, "Raylet"] = {}  # device id -> original raylet
        # no detector: devices out of the view only because they are down
        self.unmanaged: Set[str] = set()
        # unreplicated, the GCS dies with the head; HA re-points this at itself
        self.head_lost: Callable[[str], None] = runtime._on_gcs_lost

    # -- strikes ---------------------------------------------------------------

    def _node(self, node_id: str, kind: Optional[NodeKind] = None) -> Node:
        """Targets come from outside the program (a driver script, a fault
        schedule): each is looked up before anything changes."""
        node = self.rt.cluster.nodes.get(node_id)
        if node is None or kind not in (None, node.kind):
            expected = "node" if kind is None else kind.value
            raise KeyError(f"no {expected} {node_id!r} in this cluster")
        return node

    def _device(self, device_id: str) -> Device:
        device = self.rt._device_by_id.get(device_id)
        if device is None:
            raise KeyError(f"no device {device_id!r} in this cluster")
        return device

    def _announced(self, announce: bool = False) -> bool:
        """Is this strike its own verdict?  Yes by fiat (the driver's ``fail_*``)
        or when no detector is listening; otherwise detection must earn it."""
        return announce or self.rt.health is None

    def _crash(self, node: Node, why: str) -> None:
        for raylet in self.rt._raylets_by_node.get(node.node_id, []):
            raylet.fail()
        for dev in node.devices:
            dev.fail()  # power loss takes every device down with the node
        # attempts running there die with it; their retry policy takes over.
        # An announced strike interrupts again from its verdict, whose cause
        # replaces this one before delivery (as in fail_device): keep both.
        self._interrupt_node(node.node_id, why)

    def fail_node(self, node_id: str, cause: str, announce: bool = False) -> List[str]:
        """Crash a whole node.  Returns the object ids a verdict made LOST."""
        self._crash(self._node(node_id), "crashed")
        return self.node_dead(node_id, cause) if self._announced(announce) else []

    def restart_node(self, node_id: str) -> None:
        for dev in self._node(node_id).devices:
            dev.restore()
        for raylet in self.rt._raylets_by_node.get(node_id, []):
            raylet.restart()
        if self._announced():
            self.node_alive(node_id)
            self._follow_raylets()  # a struck head had no verdict to undo

    def fail_head(self) -> None:
        """Crash the current head node — and the GCS with it.  The victim is
        resolved now (after a failover the head is the elected standby)."""
        node_id = self.rt.head_node_id
        self._crash(self._node(node_id), "head crashed")
        self._follow_raylets()  # no verdict will ever declare the head dead
        self.head_lost(node_id)

    def _wipe(self, device: Device) -> None:
        store = self.rt._store_of_device.get(device.device_id)
        if store is not None:
            store.clear()  # volatile memory died with the silicon

    def fail_device(self, device_id: str, cause: str, announce: bool = False) -> List[str]:
        """A GPU/FPGA/CPU dies under a living host."""
        device = self._device(device_id)
        device.fail()
        self._wipe(device)
        for raylet in self.rt._raylets_by_node.get(device.node_id, []):
            if raylet.host_device is device and raylet.alive:
                raylet.fail_control()  # companion memory survives
        self._interrupt_device(device_id, "device failed")
        return self._device_struck(device, cause, announce)

    def _device_struck(self, device: Device, cause: str, announce: bool) -> List[str]:
        if not self._announced(announce):
            return []
        lost = self.device_dead(device.device_id, cause)
        self.adopt_orphans(device.node_id, cause)
        return lost

    def _restore(self, device: Device) -> None:
        device.restore()  # back, but empty
        for raylet in self.rt._raylets_by_node.get(device.node_id, []):
            if raylet.host_device is device:
                raylet.restart()

    def restore_device(self, device_id: str) -> None:
        device = self._device(device_id)
        self._restore(device)
        if self._announced():
            self.undo_takeover(device.node_id)
            self.device_alive(device_id)

    def fail_blade(self, node_id: str, cause: str, announce: bool = False) -> List[str]:
        """A disaggregated-memory blade dies: spilled objects are gone."""
        blade = self._node(node_id, NodeKind.MEMORY_BLADE).attachment_device
        blade.fail()
        self._wipe(blade)
        return self.blade_dead(node_id, cause) if self._announced(announce) else []

    def restore_blade(self, node_id: str) -> None:
        self._node(node_id, NodeKind.MEMORY_BLADE).attachment_device.restore()
        if self._announced():
            self.blade_alive(node_id)

    def fail_dpu(self, node_id: str, cause: str, announce: bool = False) -> List[str]:
        """A card's DPU dies; companion silicon and memory survive.  Gen-1
        loses the card's raylet (hosted on the DPU) but not its stores, and
        the head adopts the companions; Gen-2 cards keep running untouched."""
        dpu = self._node(node_id, NodeKind.DISAGG_DEVICE).attachment_device
        dpu.fail()
        for raylet in self.rt._raylets_by_node.get(node_id, []):
            if raylet.host_device is dpu and raylet.alive:
                raylet.fail_control()  # stores live in companion memory
                self._interrupt_raylet(raylet, "dpu failed")
        return self._device_struck(dpu, cause, announce)

    def restore_dpu(self, node_id: str) -> None:
        dpu = self._node(node_id, NodeKind.DISAGG_DEVICE).attachment_device
        self._restore(dpu)
        if self._announced():
            # view first, hand-back second: the reverse of restore_device, and
            # both orders are in the pinned event logs
            self.device_alive(dpu.device_id)
            self.undo_takeover(node_id)

    # -- the view --------------------------------------------------------------

    def apply_view(
        self, kind: str, node: Optional[str] = None, device: Optional[str] = None
    ) -> None:
        """The one mutator of the failure *view* (dead sets + placement
        blacklist) for ``kind`` in ``{node,device,blade}_{dead,alive}``.  A
        failover replays a WAL replica's verdicts straight through it,
        without the reactions the old leader already ran."""
        dead = kind.endswith("_dead")
        scheduler = self.rt.scheduler
        if kind.startswith("device"):
            members, member, devices = self.dead_devices, device, [device]
        elif kind.startswith("node"):
            members, member = self.dead_nodes, node
            raylets = self.rt._raylets_by_node.get(node, [])
            devices = [dev.device_id for raylet in raylets for dev in raylet.devices]
        else:  # a blade only stores: there is no compute to blacklist
            members, member, devices = self.dead_blades, node, []
        (members.add if dead else members.discard)(member)
        for device_id in devices:
            (scheduler.blacklist if dead else scheduler.unblacklist)(device_id)
        self._follow_raylets()

    def _follow_raylets(self) -> None:
        """With no detector a strike is its own verdict down to the raylets: a
        device that is down, or whose raylet is (a struck head, a head whose
        host died, a death a failover did not replay), leaves the view until
        both are up.  What a verdict or the driver took out stays theirs."""
        if not self._announced():
            return
        rt, scheduler = self.rt, self.rt.scheduler
        for device_id, raylet in rt._raylet_of_device.items():
            down = not (raylet.alive and rt._device_by_id[device_id].alive)
            if down and not scheduler.is_blacklisted(device_id):
                self.unmanaged.add(device_id)
                scheduler.blacklist(device_id)
            elif not down and device_id in self.unmanaged:
                self.unmanaged.discard(device_id)
                scheduler.unblacklist(device_id)

    def reset_view(self) -> None:
        """Forget every verdict (a failover is about to replay them).  The
        driver's exclusions and the unmanaged ones are in no WAL, and stay."""
        for node_id in sorted(self.dead_nodes):
            self.apply_view("node_alive", node=node_id)
        for device_id in sorted(self.dead_devices):
            self.apply_view("device_alive", device=device_id)
        self.dead_blades.clear()

    def _view_change(self, kind: str, **ids: str) -> None:
        self.apply_view(kind, **ids)
        for hook in self.rt.on_view_change:
            hook(kind, **ids)

    # -- verdicts: deaths ------------------------------------------------------

    def node_dead(self, node_id: str, cause: str) -> List[str]:
        """A node died: blacklist, drop object locations, reconstruct
        actors, interrupt in-flight tasks, and proactively recover what open
        tasks still need.  Idempotent per death."""
        rt = self.rt
        if node_id in self.dead_nodes:
            return []
        self._view_change("node_dead", node=node_id)
        lost = rt.ownership.drop_node(node_id)
        rt._record("node_dead", node=node_id, cause=cause, objects_lost=len(lost))
        rt.actors.rehome(
            lambda dev: rt.cluster.node_of_device(dev).node_id == node_id,
            f"node {node_id} failed",
        )
        self._interrupt_node(node_id, cause)
        rt.recovery.objects_lost(lost)
        return lost

    def device_dead(self, device_id: str, cause: str) -> List[str]:
        """One device died: blacklist exactly that device, drop its store's
        copies (an object whose only copy sat there is LOST, and dangling
        DeviceHandles are severed), re-home actors, and proactively recover
        what open tasks still need.  Idempotent per death."""
        rt = self.rt
        if device_id in self.dead_devices:
            return []
        device = self._device(device_id)
        self._view_change("device_dead", device=device_id)
        lost = rt.ownership.drop_device(device_id)
        rt._record(
            "device_dead",
            device=device_id,
            node=device.node_id,
            cause=cause,
            objects_lost=len(lost),
        )
        # the device kind is in no record: counted here
        rt.telemetry.registry.counter(
            "skadi_device_failures_total",
            "device deaths the control plane acted on, by device kind",
            kind=device.kind.value,
        ).inc()
        rt.actors.rehome(lambda dev: dev == device_id, f"device {device_id} failed")
        self._interrupt_device(device_id, cause)
        rt.recovery.objects_lost(lost)
        return lost

    def blade_dead(self, node_id: str, cause: str) -> List[str]:
        """A memory blade died: every spilled object whose only copy sat
        there is LOST and must come back via lineage or the reliable cache."""
        rt = self.rt
        if node_id in self.dead_blades:
            return []
        self._view_change("blade_dead", node=node_id)
        lost = rt.ownership.drop_node(node_id)
        rt._record("blade_dead", node=node_id, cause=cause, objects_lost=len(lost))
        rt.recovery.objects_lost(lost)
        return lost

    # -- verdicts: revivals ----------------------------------------------------

    def _alive(self, kind: str, known_dead: Set[str], **ids: str) -> None:
        """The control plane learned a domain is (back) among the living."""
        (member,) = ids.values()
        if member in known_dead:
            self._view_change(f"{kind}_alive", **ids)
            self.rt._record(f"{kind}_alive", **ids)

    def node_alive(self, node_id: str) -> None:
        self._alive("node", self.dead_nodes, node=node_id)

    def device_alive(self, device_id: str) -> None:
        self._alive("device", self.dead_devices, device=device_id)

    def blade_alive(self, node_id: str) -> None:
        self._alive("blade", self.dead_blades, node=node_id)

    # -- verdicts: takeover ----------------------------------------------------

    def adopt_orphans(self, node_id: str, cause: str) -> None:
        """Devices whose control daemon died while their silicon lives get
        adopted by the head node's raylet: stores are handed over intact,
        and every control action now crosses the fabric and serializes on
        the head CPU — degraded mode, not an outage."""
        rt = self.rt
        head_raylet = rt._raylets_by_node[rt.head_node_id][0]
        adopted = self.takeovers.get(node_id, [])
        new: List[str] = []
        for raylet in rt._raylets_by_node.get(node_id, []):
            if raylet.alive or raylet is head_raylet:
                continue
            for dev in list(raylet.devices):
                if (
                    not dev.alive
                    or dev.device_id in self.dead_devices
                    or dev.device_id in adopted
                    or dev.device_id not in raylet.stores
                ):
                    continue
                head_raylet.stores[dev.device_id] = raylet.stores[dev.device_id]
                head_raylet.devices.append(dev)
                rt._raylet_of_device[dev.device_id] = head_raylet
                self.adopted_from[dev.device_id] = raylet
                adopted.append(dev.device_id)
                new.append(dev.device_id)
            if new:
                # in-flight attempts lost their control daemon; retries will
                # re-dispatch through the takeover raylet
                self._interrupt_raylet(raylet, f"raylet takeover: {cause}")
        if new:
            self.takeovers[node_id] = adopted
            self._follow_raylets()  # adopted by a live head: placeable again
            rt._record(
                "raylet_takeover",
                node=node_id,
                devices=sorted(new),
                by=head_raylet.raylet_id,
                cause=cause,
            )

    def undo_takeover(self, node_id: str) -> None:
        """The original control daemon is back (restarted DPU, healed link):
        hand its devices back."""
        rt = self.rt
        adopted = self.takeovers.pop(node_id, None)
        if not adopted:
            return
        head_raylet = rt._raylets_by_node[rt.head_node_id][0]
        for dev_id in adopted:
            rt._raylet_of_device[dev_id] = self.adopted_from.pop(dev_id)
            head_raylet.stores.pop(dev_id, None)
            head_raylet.devices = [
                d for d in head_raylet.devices if d.device_id != dev_id
            ]
        self._follow_raylets()
        # attempts mid-flight through the takeover raylet must re-dispatch
        rt._interrupt_attempts(
            lambda v: v.raylet is head_raylet
            and v.device is not None
            and v.device.device_id in adopted,
            "control handed back to revived raylet",
        )
        rt._record("raylet_takeover_end", node=node_id, devices=sorted(adopted))

    # -- interrupts ------------------------------------------------------------

    def _interrupt_node(self, node_id: str, cause: str) -> None:
        self.rt._interrupt_attempts(
            lambda v: v.device is not None and v.device.node_id == node_id,
            f"node {node_id}: {cause}",
        )

    def _interrupt_device(self, device_id: str, cause: str) -> None:
        self.rt._interrupt_attempts(
            lambda v: v.device is not None and v.device.device_id == device_id,
            f"device {device_id}: {cause}",
        )

    def _interrupt_raylet(self, raylet: "Raylet", cause: str) -> None:
        self.rt._interrupt_attempts(lambda v: v.raylet is raylet, cause)
