"""Raylets: the per-node (Gen-1) / per-device (Gen-2) control daemons.

Figure 3's two generations differ in *where* raylets run:

* **Gen-1** — one raylet per node, hosted on the server CPU or, for a
  physically-disaggregated card, on its DPU.  Every control action for a
  companion device (task dispatch, future resolution) is handled by — and
  serialized through — the DPU raylet ("the management of tasks and
  pointers must go through the centralized DPU").
* **Gen-2** — additionally, a device-specific raylet on each heterogeneous
  device, so control actions terminate at the device itself.

A raylet owns an object store per managed device and a control
:class:`Resource` that serializes its control-plane work; each action
costs the *hosting* device's ``dispatch_overhead``, which is what makes a
slow DPU a bottleneck for swarms of short-lived ops.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..cluster.hardware import Device, DeviceKind
from ..cluster.simtime import Resource, Signal, Simulator
from .object_store import LocalObjectStore

__all__ = ["Raylet"]


class Raylet:
    """A control daemon hosted on ``host_device``, managing ``devices``."""

    def __init__(
        self,
        sim: Simulator,
        host_device: Device,
        devices: List[Device],
        spill_store: Optional[LocalObjectStore] = None,
    ):
        if host_device not in devices and host_device.kind != DeviceKind.DPU:
            # A DPU raylet manages companions without being a compute target;
            # any other host must manage itself.
            devices = [host_device] + devices
        self.sim = sim
        self.host_device = host_device
        self.devices = list(devices)
        self.stores: Dict[str, LocalObjectStore] = {
            dev.device_id: LocalObjectStore(dev, spill_target=spill_store)
            for dev in self.devices
        }
        self.control_slot = Resource(sim, capacity=1, name=f"ctrl:{self.raylet_id}")
        self.control_actions = 0
        # in-flight fetch registry: (object_id, device_id) -> completion
        # signal of the transfer currently bringing that object to that
        # device.  Concurrent consumers attach to the pending fetch instead
        # of paying the bytes again (fetch deduplication).
        self._inflight_fetches: Dict[Tuple[str, str], Signal] = {}
        self.fetches_deduped = 0
        # admission window: task attempts dispatched to this raylet and not
        # yet concluded (finished/failed/cancelled).  The runtime bounds this
        # when per-raylet admission control is on.
        self.admission_inflight = 0
        # telemetry MetricsRegistry, wired in by the runtime (duck-typed)
        self.metrics = None
        # dist-sanitizer probe, wired in by the runtime (duck-typed).  The
        # fetch registry is per-raylet state, so its begin/end/dedup/abort
        # ops are attributed to this raylet's site.
        self.probe = None
        self.alive = True
        self.incarnation = 0  # bumped on every restart (stale-lease detection)
        self.failures = 0
        # -- control-plane HA (repro.runtime.ha) --
        # highest GCS fencing epoch this raylet has observed; leases stamped
        # with an older epoch come from a deposed leader and are rejected
        self.gcs_epoch = 0
        # done-reports sent to the GCS but not yet acknowledged.  If the
        # head dies before acking, the reports re-send at re-registration
        # so the new leader learns about commits the WAL missed.
        self._unacked_reports: List[Tuple] = []

    @property
    def raylet_id(self) -> str:
        return f"raylet@{self.host_device.device_id}"

    @property
    def endpoint(self) -> str:
        """Where control messages for this raylet terminate."""
        return self.host_device.device_id

    @property
    def node_id(self) -> str:
        return self.host_device.node_id

    def manages(self, device_id: str) -> bool:
        return device_id in self.stores

    def store_of(self, device_id: str) -> LocalObjectStore:
        store = self.stores.get(device_id)
        if store is None:
            raise KeyError(f"{self.raylet_id} does not manage device {device_id!r}")
        return store

    def find_object(self, object_id: str) -> Optional[LocalObjectStore]:
        """The managed store holding ``object_id``, if any."""
        for store in self.stores.values():
            if store.contains(object_id):
                return store
        return None

    # -- admission window -----------------------------------------------------

    def has_admission_capacity(self, depth: int) -> bool:
        return self.admission_inflight < depth

    def admit_attempt(self) -> None:
        self.admission_inflight += 1
        self._gauge_admission()

    def conclude_attempt(self) -> None:
        if self.admission_inflight > 0:
            self.admission_inflight -= 1
        self._gauge_admission()

    def _gauge_admission(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "skadi_admission_queue_depth",
                "task attempts admitted and not yet concluded, per scope",
                scope=self.raylet_id,
            ).set(self.admission_inflight)

    # -- fetch deduplication --------------------------------------------------

    def pending_fetch(self, object_id: str, device_id: str) -> Optional[Signal]:
        """The in-flight fetch of ``object_id`` to ``device_id``, if any."""
        return self._inflight_fetches.get((object_id, device_id))

    def begin_fetch(self, object_id: str, device_id: str) -> Signal:
        """Register a fetch as in flight; later requesters ride its signal.

        The caller owns the fetch and must call :meth:`end_fetch` when it
        completes (successfully or not).
        """
        sig = Signal(self.sim)
        self._inflight_fetches[(object_id, device_id)] = sig
        if self.probe is not None:
            self.probe.fetch_begin(self.endpoint, object_id, device_id)
        return sig

    def end_fetch(self, object_id: str, device_id: str) -> None:
        sig = self._inflight_fetches.pop((object_id, device_id), None)
        if sig is not None:
            if self.probe is not None:
                self.probe.fetch_end(self.endpoint, object_id, device_id)
            if not sig.triggered:
                sig.succeed()

    def note_deduped_fetch(self, device_id: str, object_id: str) -> None:
        if self.probe is not None:
            self.probe.fetch_dedup(self.endpoint, object_id, device_id)
        self.fetches_deduped += 1
        if self.metrics is not None:
            self.metrics.counter(
                "skadi_fetch_dedup_total",
                "concurrent same-object fetches coalesced onto one transfer",
                raylet=self.raylet_id,
                device=device_id,
            ).inc()

    def abort_fetches(self) -> None:
        """Release every waiter parked on this raylet's in-flight fetches
        (used on failure so followers fall into their retry paths instead
        of waiting on a dead leader)."""
        pending, self._inflight_fetches = self._inflight_fetches, {}
        for (object_id, device_id), sig in pending.items():
            if self.probe is not None:
                self.probe.fetch_abort(self.endpoint, object_id, device_id)
            if not sig.triggered:
                sig.succeed()

    def control(self, actions: int = 1):
        """A process charging ``actions`` control-plane handling costs.

        Control work is serialized on this raylet — the heart of the
        CPU(DPU)-centric bottleneck Gen-2 removes.
        """
        cost = self.host_device.spec.dispatch_overhead * actions
        self.control_actions += actions
        if self.metrics is not None:
            self.metrics.counter(
                "skadi_raylet_control_actions_total",
                "control-plane actions serialized through each raylet",
                raylet=self.raylet_id,
            ).inc(actions)

        def _handle() -> Generator:
            yield self.control_slot.request()
            try:
                yield self.sim.timeout(cost)
            finally:
                self.control_slot.release()

        return self.sim.process(_handle(), name=f"{self.raylet_id}:ctrl")

    # -- control-plane HA: fencing epochs and report buffering ----------------

    def observe_epoch(self, epoch: int) -> None:
        """Learn a (newer) GCS fencing epoch — from re-registration or from
        the first lease a post-failover leader sends here."""
        if epoch > self.gcs_epoch:
            self.gcs_epoch = epoch

    def accepts_epoch(self, epoch: int) -> bool:
        """A lease carrying an older epoch than this raylet has observed was
        granted by a deposed leader: reject it (split-brain fencing)."""
        return epoch >= self.gcs_epoch

    def buffer_report(self, report: Tuple) -> None:
        self._unacked_reports.append(report)

    def ack_report(self, report: Tuple) -> None:
        try:
            self._unacked_reports.remove(report)
        except ValueError:
            pass

    def unacked_reports(self) -> List[Tuple]:
        return list(self._unacked_reports)

    def fail(self) -> None:
        """Node failure: all local object copies vanish."""
        if self.alive:
            self.failures += 1
        self.alive = False
        self.abort_fetches()
        self._unacked_reports.clear()
        for store in self.stores.values():
            store.clear()

    def fail_control(self) -> None:
        """Only the control daemon dies; managed device memory survives.

        This is the DPU failure mode: the card's raylet ran on the DPU, but
        the companion GPU/FPGA memory backing its object stores is separate
        silicon and keeps its contents.  A takeover raylet can adopt the
        stores intact.
        """
        if self.alive:
            self.failures += 1
        self.alive = False
        self.abort_fetches()
        self._unacked_reports.clear()

    def restart(self) -> None:
        if not self.alive:
            self.incarnation += 1
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Raylet({self.raylet_id}, devices={[d.device_id for d in self.devices]})"
