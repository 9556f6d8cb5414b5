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
drain); a stall guard stops the monitor if nothing has made progress for a
long time so an unrecoverable cluster still surfaces its error instead of
spinning.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Set, Tuple

from ..cluster.hardware import Device
from ..cluster.node import NodeKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .raylet import Raylet
    from .runtime import ServerlessRuntime

__all__ = ["HeartbeatMonitor"]

# monitor ticks without any task progress before the detector parks itself
STALL_TICKS = 200


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
        self.analytic_beats = 0  # beats credited by fast-forward jumps
        self._active = False
        self._epoch = 0  # loops from an earlier activation exit on mismatch
        # idle fast-forward interplay: the detector's poll rounds are the
        # canonical deferrable ticks.  The listener applies the analytic
        # model of a skipped region; the guard (see _update_guard) demands
        # exact simulation while any suspicion is live.
        self._guard_armed = False
        self.sim.add_fast_forward_listener(self._on_fast_forward)

    # -- lifecycle -----------------------------------------------------------

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
        """Start (or restart) detection; called whenever work is submitted."""
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
        self._update_guard()
        self.ensure_running()

    # -- fast-forward interplay ----------------------------------------------

    def _update_guard(self) -> None:
        """Arm/disarm exact polling to track the suspicion sets.

        While anything is suspected, the poll rounds are load-bearing —
        counting silence and driving triage — so an armed poller blocks
        idle fast-forward until every suspicion resolves.  Must be called
        after every mutation of ``suspected``/``suspected_endpoints``.
        """
        want = bool(self.suspected or self.suspected_endpoints)
        if want and not self._guard_armed:
            self.sim.arm_poller()
            self._guard_armed = True
        elif not want and self._guard_armed:
            self.sim.disarm_poller()
            self._guard_armed = False

    def _on_fast_forward(self, old: float, new: float) -> None:
        """Analytic model of a skipped idle region.

        Only reachable while nothing is suspected (suspicion arms the
        poller, which blocks jumps).  On a clean control network — no
        partition, zero message loss — every alive raylet's beats in
        ``(old, new]`` would have been delivered, so ``last_seen`` is
        credited wholesale and the beat counters advance by the elided
        round count.  On a dirty network no credit is given: silence
        keeps counting from the last *real* beat, which errs toward
        re-detection, never away from it.
        """
        if not self._active:
            return
        if self.net.partitioned or self.net.message_loss_rate > 0.0:
            return
        rounds = int((new - old) / self.interval)
        for node_id, raylets in self.runtime._raylets_by_node.items():
            credited = False
            for raylet in raylets:
                if not raylet.alive or raylet.endpoint in self.suspected_endpoints:
                    continue
                credited = True
                self.last_seen_endpoint[raylet.endpoint] = new
                if rounds > 0:
                    self.beats_sent += rounds
                    self.beats_received += rounds
                    self.analytic_beats += rounds
                    self._meter(
                        "skadi_heartbeats_sent_total",
                        "heartbeats emitted per node",
                        node_id,
                        rounds,
                    )
                    self._meter(
                        "skadi_heartbeats_received_total",
                        "heartbeats the GCS received per node",
                        node_id,
                        rounds,
                    )
            if credited and node_id not in self.suspected:
                self.last_seen[node_id] = new

    # -- the wire protocol ---------------------------------------------------

    def _sender_loop(self, raylet: "Raylet", epoch: int) -> Generator:
        node_id = raylet.node_id
        while (
            self._active
            and self._epoch == epoch
            and self.runtime._has_pending_work()
        ):
            # a poller tick: idle fast-forward may defer it (the listener
            # above credits the elided beats); identical to timeout() with
            # fast-forward off
            yield self.sim.poll_timeout(self.interval)
            if not raylet.alive:
                continue  # a dead raylet does not beat; silence is the signal
            # device status is sampled when the beat leaves the node, not
            # when it arrives — the GCS sees the truth as of send time
            status = tuple(
                (dev.device_id, dev.alive) for dev in self._status_devices(raylet)
            )
            self.beats_sent += 1
            round_no = self.beats_sent
            probe = self.runtime.probe_edges
            if probe is not None:
                probe.hb_send(raylet.endpoint, round_no)
            self._meter("skadi_heartbeats_sent_total", "heartbeats emitted per node", node_id)
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

    def _meter(
        self, name: str, help_text: str, node_id: str, amount: float = 1.0
    ) -> None:
        self.runtime.telemetry.registry.counter(name, help_text, node=node_id).inc(amount)

    def _beat(
        self,
        node_id: str,
        raylet: "Raylet",
        status: Tuple[Tuple[str, bool], ...] = (),
        round_no: Optional[int] = None,
    ) -> None:
        self.beats_received += 1
        probe = self.runtime.probe_edges
        if probe is not None and round_no is not None:
            probe.hb_recv(raylet.endpoint, round_no)
        self._meter(
            "skadi_heartbeats_received_total", "heartbeats the GCS received per node", node_id
        )
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
        self._update_guard()
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
        stall = 0
        progress = self.runtime._progress_counter()
        while self._epoch == epoch and self.runtime._has_pending_work():
            yield self.sim.poll_timeout(self.interval)
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
                for raylet in newly_silent:
                    self.suspected_endpoints.add(raylet.endpoint)
                    # suspicion blames every device behind the silent
                    # raylet (an installed breaker board counts a failure)
                    for dev in raylet.devices:
                        for hook in self.runtime.on_device_fault:
                            hook(dev, "endpoint suspected")
                self._update_guard()
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
            latest = self.runtime._progress_counter()
            stall = stall + 1 if latest == progress else 0
            progress = latest
            if stall >= STALL_TICKS:
                # nothing is moving: park the detector so the simulation can
                # drain and the driver sees the underlying error
                self.runtime._record("detector_stalled", ticks=stall)
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
            self._update_guard()
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
            yield self.sim.poll_timeout(self.interval)
            ok = yield from self._probe(blade)
            if self._epoch != epoch:
                return
            if ok:
                misses = 0
                if node_id in self.suspected:
                    self.suspected.discard(node_id)
                    self.runtime._record("blade_unsuspected", node=node_id)
                    self.runtime.failures.blade_alive(node_id)
                    self._update_guard()
            else:
                misses += 1
                if misses >= self.miss_threshold and node_id not in self.suspected:
                    self.suspected.add(node_id)
                    self.runtime._record("blade_suspected", node=node_id, misses=misses)
                    self.runtime.failures.blade_dead(node_id, cause="missed probes")
                    self._update_guard()
