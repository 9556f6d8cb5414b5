"""The online probe: the runtime's single point of contact with Skadi-TSan.

``ServerlessRuntime`` creates one :class:`DistProbe` when
``RuntimeConfig.sanitizers`` is non-empty, in place of the do-nothing
``repro.runtime.events.NoProbe`` it starts with; it calls the same hook
methods at the protocol's synchronization points either way, and subscribes
:meth:`DistProbe.incident` to its event log for the facts an incident record
already states.  The probe owns the event vocabulary — message-key formats,
site names, access classes — and builds each hook's arguments from what the
runtime already holds (a task spec, an attempt's record), so the runtime
hooks stay one-liners and the HB builder and monitors agree on the encoding
by construction.

Modes (``sanitizers`` tuple values):

``"trace"``
    collect a :class:`DistTrace` (needed for offline analysis / dumps).
``"invariants"``
    feed the protocol monitors online, event by event.
``"hb"``
    implies trace collection; ``report(hb=True)`` runs race detection
    over the collected trace.

With all modes off the runtime keeps its ``NoProbe``: every hook is a call
that does nothing, and the runtime's traces are those of no sanitizer.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Optional, Sequence, Tuple

from .events import DistTrace, ProtoEvent
from .invariants import InvariantEngine
from .report import SanitizerReport, sanitize_trace

__all__ = ["DistProbe"]

VALID_SANITIZERS = ("trace", "invariants", "hb")


class DistProbe:
    """Collects protocol events and/or feeds them to online monitors.

    Each hook asks :meth:`_skip` before it builds anything, so in the
    invariants-only mode the hooks whose events only induce happens-before
    edges (no default monitor subscribes to them) cost a call and a set
    lookup."""

    def __init__(
        self,
        sanitizers: Sequence[str],
        clock: Callable[[], float],
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        unknown = [s for s in sanitizers if s not in VALID_SANITIZERS]
        if unknown:
            raise ValueError(
                f"unknown sanitizers {unknown}; valid: {list(VALID_SANITIZERS)}"
            )
        self.sanitizers = tuple(sanitizers)
        self.wants_hb = "hb" in self.sanitizers
        self.wants_trace = self.wants_hb or "trace" in self.sanitizers
        self.wants_invariants = "invariants" in self.sanitizers
        self._clock = clock
        self._seq = 0
        self.trace = DistTrace(meta=dict(meta or {}))
        self.engine: Optional[InvariantEngine] = (
            InvariantEngine() if self.wants_invariants else None
        )
        # invariants-only mode: precompute which event kinds any monitor
        # subscribes to, so hook methods can skip building events nobody
        # will look at.  ``None`` means every kind is live (trace mode, or
        # a monitor that subscribes to everything).
        self._live_kinds: Optional[FrozenSet[str]] = None
        if not self.wants_trace:
            if self.engine is None:
                self._live_kinds = frozenset()
            elif all(m.kinds for m in self.engine.monitors):
                self._live_kinds = frozenset(
                    kind for m in self.engine.monitors for kind in m.kinds
                )
        # ambient site for ownership-observer attribution: the runtime sets
        # this immediately before a table mutation (no yield points between
        # the set and the mutation, so it cannot be clobbered mid-flight)
        self.site = "driver"
        # replay incarnation per task id: replayed attempts get distinct
        # attempt sites so a replay is not confused with its first life
        self._incarnation: Dict[str, int] = {}
        # PUSH: the ``land:`` keys sent so far, and per attempt site the ones
        # its next event receives (see ``arrived``)
        self._landed: set[str] = set()
        self._inbox: Dict[str, Tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # core emission
    # ------------------------------------------------------------------

    def _skip(self, kind: str) -> bool:
        """True when no sink wants ``kind`` (invariants-only fast path)."""
        live = self._live_kinds
        return live is not None and kind not in live

    def emit(
        self,
        site: str,
        kind: str,
        detail: Tuple[Tuple[str, Any], ...] = (),
        sends: Tuple[str, ...] = (),
        recvs: Tuple[str, ...] = (),
        accesses: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        seq = self._seq
        self._seq = seq + 1
        if site in self._inbox:
            recvs = (*recvs, *self._inbox.pop(site))
        engine = self.engine
        if not self.wants_trace:
            # invariants-only hot path: most protocol events interest no
            # monitor — skip even the ProtoEvent construction for those
            if engine is None:
                return
            interested = engine.route(kind)
            if not interested:
                return
            event = ProtoEvent(
                seq, self._clock(), site, kind, detail, sends, recvs, accesses
            )
            for monitor in interested:
                monitor.on_event(event)
            return
        event = ProtoEvent(
            seq, self._clock(), site, kind, detail, sends, recvs, accesses
        )
        self.trace.events.append(event)
        if engine is not None:
            for monitor in engine.route(kind):
                monitor.on_event(event)

    # ------------------------------------------------------------------
    # site helpers
    # ------------------------------------------------------------------

    def attempt_site(self, task_id: str, attempt: int, clone: bool = False) -> str:
        inc = self._incarnation.get(task_id, 0)
        base = f"attempt:{task_id}" if not inc else f"attempt:{task_id}r{inc}"
        return f"{base}#{attempt}~" if clone else f"{base}#{attempt}"

    @staticmethod
    def raylet_site(endpoint: str) -> str:
        return f"raylet@{endpoint}"

    # ------------------------------------------------------------------
    # task lifecycle (driver / gcs)
    # ------------------------------------------------------------------

    def submit(self, spec: Any, outputs: Sequence[str]) -> None:
        """A task was registered (after the admission gate and the owner
        records): the lineage record of each output, then the submit message
        its first dispatch joins on."""
        task_id = spec.task_id
        if not self._skip("lineage_record"):
            deps = tuple(r.object_id for r in spec.dependencies)
            for oid in outputs:
                self.emit(
                    "gcs",
                    "lineage_record",
                    (("object", oid), ("task", task_id), ("deps", deps)),
                )
        if self._skip("submit"):
            return
        self.emit(
            "driver", "submit", (("task", task_id),), sends=(f"submit:{task_id}",)
        )

    def dispatch(self, ctx: Any) -> None:
        """An attempt was leased to ``ctx.device``.  A speculative backup's
        lease is the speculation decision's (:meth:`speculate`)."""
        if ctx.is_clone or self._skip("dispatch"):
            return
        task_id, attempt = ctx.spec.task_id, ctx.attempt
        recvs: Tuple[str, ...] = tuple(f"ready:{r.object_id}" for r in ctx.spec.dependencies)
        if attempt == 1:
            recvs = (f"submit:{task_id}", *recvs)
        self.emit(
            "gcs",
            "dispatch",
            (("task", task_id), ("attempt", attempt), ("device", ctx.device.device_id)),
            sends=(self._lease_key(task_id, attempt),),
            recvs=recvs,
        )

    def _lease_key(self, task_id: str, attempt: int) -> str:
        inc = self._incarnation.get(task_id, 0)
        return f"lease:{task_id}:{inc}:{attempt}"

    def _clone_lease_key(self, task_id: str) -> str:
        inc = self._incarnation.get(task_id, 0)
        return f"lease:{task_id}:{inc}:clone"

    def attempt_start(self, ctx: Any) -> None:
        if self._skip("attempt_start"):
            return
        task_id, attempt, clone = ctx.spec.task_id, ctx.attempt, ctx.is_clone
        lease = (
            self._clone_lease_key(task_id)
            if clone
            else self._lease_key(task_id, attempt)
        )
        self.emit(
            self.attempt_site(task_id, attempt, clone),
            "attempt_start",
            (("task", task_id), ("attempt", attempt)),
            recvs=(lease,),
        )

    def attempt_commit(self, ctx: Any, object_id: str) -> None:
        """The commit point of one output: the ``done`` and ``ready``
        announcements every downstream recv pairs with originate here.  The
        ``object_ready`` goes out at the ambient site, which the runtime set
        to the attempt's for the commit."""
        if not self._skip("attempt_commit"):
            task_id, attempt = ctx.spec.task_id, ctx.attempt
            self.emit(
                self.attempt_site(task_id, attempt, ctx.is_clone),
                "attempt_commit",
                (("task", task_id), ("attempt", attempt), ("object", object_id)),
                sends=(f"done:{task_id}",),
            )
        self.object_ready(self.site, object_id)

    def object_ready(self, site: str, object_id: str) -> None:
        """An object reached READY (commit, put, or recovery): the
        announcement every consumer-side ``ready:`` recv pairs with."""
        if self._skip("object_ready"):
            return
        self.emit(
            site,
            "object_ready",
            (("object", object_id),),
            sends=(f"ready:{object_id}",),
        )

    def attempt_fail(
        self, task_id: str, attempt: int, reason: str, clone: bool = False
    ) -> None:
        if self._skip("attempt_fail"):
            return
        self.emit(
            self.attempt_site(task_id, attempt, clone),
            "attempt_fail",
            (("task", task_id), ("attempt", attempt), ("reason", reason)),
            sends=(f"rep:{task_id}:{attempt}",),
        )

    def retry(self, task_id: str, attempt: int) -> None:
        if self._skip("retry"):
            return
        self.emit(
            "gcs",
            "retry",
            (("task", task_id), ("attempt", attempt)),
            recvs=(f"rep:{task_id}:{attempt}",),
        )

    def task_finish(self, task_id: str) -> None:
        self.emit(
            "gcs", "task_finish", (("task", task_id),), recvs=(f"done:{task_id}",)
        )

    def get_resolve(self, object_ids: Sequence[str]) -> None:
        """``get`` returned to the driver: each value's READY announcement
        flowed back, so everything its producer did is ordered before
        whatever the driver does next (e.g. ``free``)."""
        if self._skip("get_resolve"):
            return
        self.emit(
            "driver",
            "get_resolve",
            tuple(("object", oid) for oid in object_ids),
            recvs=tuple(f"ready:{oid}" for oid in object_ids),
        )

    def task_fail(self, task_id: str, attempt: int, reason: str) -> None:
        self.emit(
            "gcs",
            "task_fail",
            (("task", task_id), ("reason", reason)),
            recvs=(f"rep:{task_id}:{attempt}",) if attempt else (),
        )

    def task_cancel(self, task_id: str, reason: str) -> None:
        self.emit("gcs", "task_cancel", (("task", task_id), ("reason", reason)))

    def speculate(self, task_id: str) -> None:
        """The speculation decision: launches a backup clone (its own lease)."""
        if self._skip("speculate"):
            return
        self.emit(
            "gcs",
            "speculate",
            (("task", task_id),),
            sends=(self._clone_lease_key(task_id),),
        )

    def replay(self, task_id: str) -> int:
        """Mark a lineage-replay reincarnation; returns the new incarnation.

        Recovery is a control-plane act: emitting at the gcs site orders
        the replay after the death declaration that caused it (same-site
        program order) and before the reincarnation's re-dispatch.
        """
        inc = self._incarnation.get(task_id, 0) + 1
        self._incarnation[task_id] = inc
        self.emit("gcs", "replay", (("task", task_id), ("incarnation", inc)))
        return inc

    # ------------------------------------------------------------------
    # ownership / object directory
    # ------------------------------------------------------------------

    _OWN_ACCESS = {
        "create": "w",
        "mark_ready": "w",
        "add_location": "acc",
        "drop_location": "w",
        "drop_node": "w",
        "drop_device": "w",
        "replay_reset": "w",
    }

    def ownership_op(
        self,
        op: str,
        object_id: str,
        old: Optional[str],
        new: Optional[str],
        locations: int,
    ) -> None:
        """Observer callback for :class:`OwnershipTable` mutations.

        Attribution uses the ambient ``self.site`` (set by the runtime just
        before the mutation); the access class encodes whether interleaving
        matters (``add_location`` commutes, everything else is exclusive).
        """
        kind = f"own_{op}"
        live = self._live_kinds
        if live is not None and kind not in live:
            return
        self.emit(
            self.site,
            kind,
            (
                ("object", object_id),
                ("old", old),
                ("new", new),
                ("locations", locations),
            ),
            (),
            (),
            ((f"dir:{object_id}", self._OWN_ACCESS.get(op, "w")),),
        )

    def dir_read(self, site: str, object_id: str, state: Optional[str]) -> None:
        """A stability-assuming read of a directory entry (fetch path)."""
        if self._skip("dir_read"):
            return
        self.emit(
            site,
            "dir_read",
            (("object", object_id), ("state", state)),
            accesses=((f"dir:{object_id}", "r"),),
        )

    # ------------------------------------------------------------------
    # overload protection (gcs)
    # ------------------------------------------------------------------

    def adm_reject(self, task_id: str) -> None:
        self.emit("gcs", "adm_reject", (("task", task_id),))

    # ------------------------------------------------------------------
    # data plane: fetch dedup registry (per-raylet) + arrivals
    # ------------------------------------------------------------------

    def fetch_begin(self, endpoint: str, object_id: str, device: str) -> None:
        if self._skip("fetch_begin"):
            return
        self.emit(
            self.raylet_site(endpoint),
            "fetch_begin",
            (("object", object_id), ("device", device)),
        )

    def fetch_end(self, endpoint: str, object_id: str, device: str) -> None:
        if self._skip("fetch_end"):
            return
        self.emit(
            self.raylet_site(endpoint),
            "fetch_end",
            (("object", object_id), ("device", device)),
            sends=(f"fend:{object_id}:{device}",),
        )

    def fetch_abort(self, endpoint: str, object_id: str, device: str) -> None:
        if self._skip("fetch_abort"):
            return
        self.emit(
            self.raylet_site(endpoint),
            "fetch_abort",
            (("object", object_id), ("device", device)),
        )

    def fetch_dedup(self, endpoint: str, object_id: str, device: str) -> None:
        if self._skip("fetch_dedup"):
            return
        self.emit(
            self.raylet_site(endpoint),
            "fetch_dedup",
            (("object", object_id), ("device", device)),
        )

    def push_start(self, site: str, object_id: str, targets: int = 1) -> None:
        """A push wave woke up to distribute a ready object.

        The ``ready:`` recv is what orders the push's ``add_location``
        writes after the producer's commit (or the driver's put).
        """
        if self._skip("push_start"):
            return
        self.emit(
            site,
            "push_start",
            (("object", object_id), ("targets", targets)),
            recvs=(f"ready:{object_id}",),
        )

    def land(self, site: str, object_id: str, device: str) -> None:
        """A push put its copy in ``device``'s store and told the directory."""
        if self._skip("land"):
            return
        key = f"land:{object_id}:{device}"
        self._landed.add(key)
        self.emit(site, "land", (("object", object_id), ("device", device)), sends=(key,))

    def arrived(self, ctx: Any, deps: Sequence[Any], device: str) -> None:
        """A PUSH attempt's arguments (object refs) are on its device: the
        attempt's next event receives the landing of each one a push brought,
        which orders the pushes' directory writes before everything the
        attempt causes."""
        if self._skip("land"):
            return  # no landing is recorded, so none can be received
        keys = tuple(
            key
            for key in (f"land:{r.object_id}:{device}" for r in deps)
            if key in self._landed
        )
        if keys:
            site = self.attempt_site(ctx.spec.task_id, ctx.attempt, ctx.is_clone)
            self._inbox[site] = self._inbox.get(site, ()) + keys

    def fetch_join(self, site: str, object_id: str, device: str) -> None:
        """A parked follower resumed after its leader's fetch completed."""
        if self._skip("fetch_join"):
            return
        self.emit(
            site,
            "fetch_join",
            (("object", object_id), ("device", device)),
            recvs=(f"fend:{object_id}:{device}",),
        )

    # ------------------------------------------------------------------
    # health plane
    # ------------------------------------------------------------------

    def hb_send(self, endpoint: str, round_no: int) -> None:
        if self._skip("hb_send"):
            return
        self.emit(
            self.raylet_site(endpoint),
            "hb_send",
            (("endpoint", endpoint), ("n", round_no)),
            sends=(f"hb:{endpoint}:{round_no}",),
        )

    def hb_recv(self, endpoint: str, round_no: int) -> None:
        if self._skip("hb_recv"):
            return
        self.emit(
            "gcs",
            "hb_recv",
            (("endpoint", endpoint), ("n", round_no)),
            recvs=(f"hb:{endpoint}:{round_no}",),
        )

    # ------------------------------------------------------------------
    # control-plane HA (leader elections, fencing)
    # ------------------------------------------------------------------

    def ha_leader(self, epoch: int, node: str) -> None:
        """A failover installed ``node`` as the leader for ``epoch``.

        Exclusive write on the singleton leadership cell: two same-epoch
        installs would be split brain, which LeaderPerEpochMonitor flags.
        """
        if self._skip("ha_leader"):
            return
        self.emit(
            "gcs",
            "ha_leader",
            (("epoch", epoch), ("node", node)),
            accesses=(("ha:leader", "w"),),
        )

    def ha_fence(
        self, endpoint: str, lease_epoch: int, raylet_epoch: int, accepted: bool
    ) -> None:
        """A raylet compared a lease's epoch against its observed epoch."""
        if self._skip("ha_fence"):
            return
        self.emit(
            self.raylet_site(endpoint),
            "ha_fence",
            (
                ("endpoint", endpoint),
                ("lease_epoch", lease_epoch),
                ("raylet_epoch", raylet_epoch),
                ("accepted", accepted),
            ),
        )

    # ------------------------------------------------------------------
    # incidents: records of the runtime's event log
    # ------------------------------------------------------------------

    def incident(self, ev: Any) -> None:
        """The protocol event an event-log record (a ``RuntimeEvent``) stands
        for, if any.  A chaos injection strikes from outside the
        protocol: it has its own ``chaos`` site and no causal ancestry, so
        anything it races with is a finding, not a missing edge."""
        kind = ev.kind
        if kind.startswith("chaos_"):
            self.emit("chaos", kind, ev.detail)
        elif kind == "task_cancelled":
            self.task_cancel(ev["task"], ev["reason"])
        elif kind == "speculate":
            self.speculate(ev["task"])
        elif kind == "admission_rejected":
            self.adm_reject(ev["task"])
        elif kind == "ha_leader_elected":
            self.ha_leader(ev["epoch"], ev["node"])

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def report(
        self, hb: Optional[bool] = None, partial: bool = False
    ) -> SanitizerReport:
        """Finalize and summarize.

        ``hb`` defaults to whether the ``"hb"`` sanitizer was requested;
        forcing it on requires a collected trace.
        """
        if hb is None:
            hb = self.wants_hb
        if hb and not self.wants_trace:
            raise ValueError(
                'race detection needs a collected trace: enable the "hb" or '
                '"trace" sanitizer'
            )
        return sanitize_trace(
            self.trace if self.wants_trace else DistTrace(),
            hb=hb,
            partial=partial,
            engine=self.engine,
        )
