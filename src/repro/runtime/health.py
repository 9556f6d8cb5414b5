"""Heartbeat-based failure detection over the simulated network.

Real control planes pay to learn of a death: raylets emit periodic
heartbeats, the GCS counts silent intervals, and recovery starts only after
K missed beats — which is exactly why detection latency shows up in recovery
tail latency (Ray's design, and the knob the chaos soak sweeps).  This module
only *reaches* verdicts; acting on one is :mod:`repro.runtime.failures`.

Disaggregation changes the failure *unit*, so detection is device-granular:

* one **sender** process per raylet sends a heartbeat control message from
  the raylet's endpoint to the GCS every ``interval`` virtual seconds.
  Heartbeats travel the simulated network: they pay hop latency, count in
  ``NetworkStats.messages``, and can be dropped by chaos (loss or
  partition).  A dead raylet stops beating — there is no side-channel.
  Each beat carries a **device-status payload**: the liveness of every
  device the raylet manages, sampled at send time.  That is how the GCS
  learns a GPU died under a still-healthy host without any extra probes.
* one **monitor** process on the GCS watches per-endpoint silence.  When an
  endpoint goes quiet for ``miss_threshold`` intervals the monitor does not
  jump to a whole-node verdict: it runs a **domain triage** — a probe RPC
  to each device behind the silent raylet(s).  Devices that answer are
  alive (a DPU died but its companion GPU survived); devices that do not
  are dead.  Only when *every* device of a fully-silent node fails its
  probe does the monitor fall back to the classic whole-node death.
* memory blades have no raylet and never beat; the GCS **probes** each
  blade on the heartbeat interval and declares it dead after
  ``miss_threshold`` consecutive failed probes (spilled objects must then
  be recovered from lineage or the reliable cache).
* a beat arriving from a suspected endpoint (a healed partition, a
  restarted raylet/DPU) clears the suspicion, un-blacklists the domain,
  and unwinds any control-plane takeover.

The loops run only while the runtime has open tasks (otherwise they would
keep the event queue non-empty forever and ``sim.run()`` would never
drain); a stall guard (:class:`StallGuard`, which HA's loops share) stops the
monitor if nothing has made progress for a long time so an unrecoverable
cluster still surfaces its error instead of spinning.  A device that dies
while no task is open is found by its first reader instead
(``Recovery.reconcile``).

:func:`install` builds the detector only when
``RuntimeConfig.heartbeat_interval`` is set; it subscribes to the runtime's
``on_route`` seam point and starts detection on routed work while a leader
serves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Set, Tuple

from ..cluster.hardware import Device
from ..cluster.node import NodeKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .raylet import Raylet
    from .runtime import ServerlessRuntime

__all__ = ["HeartbeatMonitor", "StallGuard", "install"]

# loop ticks without any task progress before a protocol loop parks itself
STALL_TICKS = 200


class StallGuard:
    """One protocol loop's stall guard (the heartbeat monitor's, HA's sync
    pump's, each standby watch's): counts its consecutive ticks without
    forward progress."""

    def __init__(self, runtime: "ServerlessRuntime"):
        self.runtime = runtime
        self.ticks = 0
        self._progress = self._fingerprint()

    def _fingerprint(self) -> Tuple[int, ...]:
        rt = self.runtime
        return (
            rt.tasks_finished, rt.tasks_failed, rt.tasks_retried, rt.lineage.replays,
            rt.actor_restarts,
        )

    def stalled(self) -> bool:
        """Count one tick; True once ``STALL_TICKS`` in a row made no progress."""
        progress = self._fingerprint()
        self.ticks = self.ticks + 1 if progress == self._progress else 0
        self._progress = progress
        return self.ticks >= STALL_TICKS


def install(runtime: "ServerlessRuntime") -> Optional["HeartbeatMonitor"]:
    """The detector, subscribed to ``runtime`` — or None with no heartbeat interval."""
    cfg = runtime.config
    if cfg.heartbeat_interval is None:
        return None
    return HeartbeatMonitor(runtime, cfg.heartbeat_interval, cfg.heartbeat_miss_threshold)


class HeartbeatMonitor:
    """The GCS-side failure detector plus per-raylet heartbeat senders."""

    def __init__(
        self,
        runtime: "ServerlessRuntime",
        interval: float,
        miss_threshold: int = 3,
    ):
        if interval <= 0:
            raise ValueError(f"heartbeat interval must be > 0, got {interval}")
        if miss_threshold < 1:
            raise ValueError(f"miss threshold must be >= 1, got {miss_threshold}")
        self.runtime = runtime
        self.sim = runtime.sim
        self.net = runtime.net
        self.interval = interval
        self.miss_threshold = miss_threshold
        self.last_seen: Dict[str, float] = {}  # node id -> newest beat from any endpoint
        self.last_seen_endpoint: Dict[str, float] = {}  # raylet endpoint -> newest beat
        self.suspected: Set[str] = set()  # node ids (whole-node or blade verdicts)
        self.suspected_endpoints: Set[str] = set()  # raylet endpoints under triage
        self.beats_received = 0
        self.beats_sent = 0
        self.probes_sent = 0
        reg = runtime.telemetry.registry
        self._m_sent = reg.series(
            "counter", "skadi_heartbeats_sent_total", "heartbeats emitted per node", "node"
        )
        self._m_received = reg.series(
            "counter",
            "skadi_heartbeats_received_total",
            "heartbeats the GCS received per node",
            "node",
        )
        self._active = False
        self._epoch = 0  # loops from an earlier activation exit on mismatch
        runtime.on_route.append(self._on_route)

    # -- lifecycle -----------------------------------------------------------

    def _on_route(self) -> None:
        """Work was routed: detection runs while it is open.  A dead GCS
        counts no silence, so detection stays down until a failover restarts
        it on the election winner."""
        if self.runtime.gcs_up:
            self.ensure_running()

    def monitored_nodes(self) -> List[str]:
        return sorted(
            node_id
            for node_id, raylets in self.runtime._raylets_by_node.items()
            if raylets
        )

    def blade_nodes(self) -> List[str]:
        return sorted(
            node.node_id
            for node in self.runtime.cluster.nodes.values()
            if node.kind == NodeKind.MEMORY_BLADE
        )

    def ensure_running(self) -> None:
        """Start (or restart) detection: on routed work, and on a failover."""
        if self._active:
            return
        self._active = True
        self._epoch += 1
        epoch = self._epoch
        now = self.sim.now
        for node_id in self.monitored_nodes():
            # fresh grace period for healthy endpoints so an idle gap between
            # jobs is not mistaken for silence; suspected endpoints must earn
            # their way back with a real heartbeat
            if node_id not in self.suspected:
                self.last_seen[node_id] = now
            for raylet in self.runtime._raylets_by_node[node_id]:
                if raylet.endpoint not in self.suspected_endpoints:
                    self.last_seen_endpoint[raylet.endpoint] = now
                self.sim.process(
                    self._sender_loop(raylet, epoch), name=f"hb:{raylet.endpoint}"
                )
        for node_id in self.blade_nodes():
            self.sim.process(self._blade_probe_loop(node_id, epoch), name=f"probe:{node_id}")
        self.sim.process(self._monitor_loop(epoch), name="hb:monitor")

    def pause(self) -> None:
        """Stop every detection loop without declaring anything.

        Used by control-plane HA when the GCS host dies: a dead head cannot
        count silence.  Bumping the epoch makes every in-flight sender,
        probe, and monitor loop exit at its next tick; a later
        ``ensure_running()`` starts detection from scratch.
        """
        self._active = False
        self._epoch += 1

    def reset_for_failover(self, dead_nodes: Set[str]) -> None:
        """Fresh detector state on the election winner.

        Prior suspicion and grace timestamps belonged to the dead head and
        were never replicated (suspicion is soft state; only *verdicts*
        reach the WAL).  Nodes the replicated log already declared dead
        start out suspected so a revival heartbeat can clear them through
        the normal ``_beat`` path.
        """
        self.pause()
        self.last_seen.clear()
        self.last_seen_endpoint.clear()
        self.suspected = set(dead_nodes)
        self.suspected_endpoints = {
            raylet.endpoint
            for node_id in dead_nodes
            for raylet in self.runtime._raylets_by_node.get(node_id, [])
        }
        self.ensure_running()

    # -- the wire protocol ---------------------------------------------------

    def _sender_loop(self, raylet: "Raylet", epoch: int) -> Generator:
        node_id = raylet.node_id
        while (
            self._active
            and self._epoch == epoch
            and self.runtime._has_pending_work()
        ):
            yield self.sim.timeout(self.interval)
            if not raylet.alive:
                continue  # a dead raylet does not beat; silence is the signal
            # device status is sampled when the beat leaves the node, not
            # when it arrives — the GCS sees the truth as of send time
            status = tuple(
                (dev.device_id, dev.alive) for dev in self._status_devices(raylet)
            )
            self.beats_sent += 1
            round_no = self.beats_sent
            self.runtime.probe.hb_send(raylet.endpoint, round_no)
            self._m_sent.of(node_id).inc()
            delivered = yield self.net.message(
                raylet.endpoint, self.runtime.gcs_endpoint, label="heartbeat"
            )
            if delivered:
                self._beat(node_id, raylet, status, round_no)

    @staticmethod
    def _status_devices(raylet: "Raylet") -> List[Device]:
        devices = list(raylet.devices)
        if raylet.host_device not in devices:
            devices.append(raylet.host_device)  # a DPU reports on itself too
        return devices

    def _beat(
        self,
        node_id: str,
        raylet: "Raylet",
        status: Tuple[Tuple[str, bool], ...],
        round_no: int,
    ) -> None:
        self.beats_received += 1
        self.runtime.probe.hb_recv(raylet.endpoint, round_no)
        self._m_received.of(node_id).inc()
        now = self.sim.now
        failures = self.runtime.failures
        self.last_seen[node_id] = now
        self.last_seen_endpoint[raylet.endpoint] = now
        if raylet.endpoint in self.suspected_endpoints:
            self.suspected_endpoints.discard(raylet.endpoint)
            self.runtime._record(
                "raylet_unsuspected", node=node_id, endpoint=raylet.endpoint
            )
            failures.undo_takeover(raylet.node_id)
        if node_id in self.suspected:
            self.suspected.discard(node_id)
            self.runtime._record("node_unsuspected", node=node_id)
            failures.node_alive(node_id)
        for device_id, alive in status:
            if alive:
                failures.device_alive(device_id)
            else:
                failures.device_dead(device_id, cause="reported by raylet")

    def _probe(self, device: Device) -> Generator:
        """Probe a device endpoint through the network; returns liveness.

        Two one-way messages instead of an abstract RPC so the failure
        semantics are physical: the request must reach the device, and only
        a live device sends the acknowledgement back.
        """
        self.probes_sent += 1
        sent = yield self.net.message(
            self.runtime.gcs_endpoint, device.device_id, label="probe"
        )
        if not sent or not device.alive:
            return False
        acked = yield self.net.message(
            device.device_id, self.runtime.gcs_endpoint, label="probe-ack"
        )
        return bool(acked)

    def _monitor_loop(self, epoch: int) -> Generator:
        deadline = self.miss_threshold * self.interval
        guard = StallGuard(self.runtime)
        while self._epoch == epoch and self.runtime._has_pending_work():
            yield self.sim.timeout(self.interval)
            now = self.sim.now
            for node_id in self.monitored_nodes():
                raylets = self.runtime._raylets_by_node[node_id]

                def _silent(endpoint: str) -> bool:
                    return now - self.last_seen_endpoint.get(endpoint, 0.0) > deadline

                newly_silent = [
                    r
                    for r in raylets
                    if r.endpoint not in self.suspected_endpoints and _silent(r.endpoint)
                ]
                if not newly_silent:
                    continue
                all_silent = all(
                    r.endpoint in self.suspected_endpoints or _silent(r.endpoint)
                    for r in raylets
                )
                self.suspected_endpoints.update(r.endpoint for r in newly_silent)
                if all_silent and node_id not in self.suspected:
                    self.suspected.add(node_id)
                    self.runtime._record(
                        "node_suspected",
                        node=node_id,
                        silent_for=round(
                            now - self.last_seen.get(node_id, 0.0), 9
                        ),
                    )
                    self.sim.process(
                        self._triage(node_id, list(raylets), True, epoch),
                        name=f"triage:{node_id}",
                    )
                else:
                    for raylet in newly_silent:
                        self.runtime._record(
                            "raylet_suspected", node=node_id, endpoint=raylet.endpoint
                        )
                    self.sim.process(
                        self._triage(node_id, newly_silent, False, epoch),
                        name=f"triage:{node_id}",
                    )
            if guard.stalled():
                # nothing is moving: park the detector so the simulation can
                # drain and the driver sees the underlying error
                self.runtime._record("detector_stalled", ticks=guard.ticks)
                break
        if self._epoch == epoch:
            self._active = False

    def _triage(
        self, node_id: str, raylets: List["Raylet"], whole_node: bool, epoch: int
    ) -> Generator:
        """Silence is ambiguous; probes resolve it to failure domains.

        A silent endpoint could be a crashed node, a dead DPU in front of a
        live GPU, or a dropped beat.  Probing every device behind the silent
        raylet(s) splits the node into live and dead domains, and only the
        dead ones are acted on.
        """
        devices: List[Device] = []
        seen: Set[str] = set()
        for raylet in raylets:
            for dev in self._status_devices(raylet):
                if dev.device_id not in seen:
                    seen.add(dev.device_id)
                    devices.append(dev)
        dead: List[Device] = []
        live: List[Device] = []
        for dev in sorted(devices, key=lambda d: d.device_id):
            ok = yield from self._probe(dev)
            (live if ok else dead).append(dev)
        if self._epoch != epoch:
            return
        self.runtime._record(
            "domain_triage",
            node=node_id,
            dead=sorted(d.device_id for d in dead),
            live=sorted(d.device_id for d in live),
            whole_node=whole_node,
        )
        if whole_node and not live:
            # every domain on the node is gone: the classic verdict
            self.runtime.failures.node_dead(node_id, cause="missed heartbeats")
            return
        if whole_node:
            # not a node death after all — the silent endpoints stay
            # suspected individually and are handled per-domain below
            self.suspected.discard(node_id)
        # orphaned live devices go to a takeover raylet
        for dev in dead:
            self.runtime.failures.device_dead(dev.device_id, cause="failed probe")
        if live:
            self.runtime.failures.adopt_orphans(node_id, cause="raylet silent")

    def _blade_probe_loop(self, node_id: str, epoch: int) -> Generator:
        """Blades have no raylet to beat, so the GCS polls them directly."""
        blade = self.runtime.cluster.node(node_id).attachment_device
        misses = 0
        while (
            self._active
            and self._epoch == epoch
            and self.runtime._has_pending_work()
        ):
            yield self.sim.timeout(self.interval)
            ok = yield from self._probe(blade)
            if self._epoch != epoch:
                return
            if ok:
                misses = 0
                if node_id in self.suspected:
                    self.suspected.discard(node_id)
                    self.runtime._record("blade_unsuspected", node=node_id)
                    self.runtime.failures.blade_alive(node_id)
            else:
                misses += 1
                if misses >= self.miss_threshold and node_id not in self.suspected:
                    self.suspected.add(node_id)
                    self.runtime._record("blade_suspected", node=node_id, misses=misses)
                    self.runtime.failures.blade_dead(node_id, cause="missed probes")
