"""The multi-tenant serving frontend: fair queueing and quotas over the runtime.

This is the layer between "millions of users" and the single-driver task
API.  Requests arrive open-loop (:mod:`repro.serving.workload`); the
frontend decides — per tenant — what to shed, what to queue, and what to
dispatch, then instantiates each admitted request's task DAG through the
ordinary ``submit()`` path so the runtime's admission control and retry
budgets apply underneath, each when its own ``RuntimeConfig`` switch is on.

Mechanisms, each behind a ``RuntimeConfig`` switch (all-off = a naive
pass-through that submits every request the instant it arrives, which is
exactly the single-driver behavior):

* **pacing** (``serving_max_inflight``): at most N requests in flight in
  the runtime; the rest wait in the frontend's bounded waiting room
  (``serving_queue_depth``; beyond it, requests are shed at the door);
* **weighted fair queueing** (``serving_fair_queueing``): the waiting room
  drains by per-tenant virtual finish time — tenant throughput under
  contention is proportional to profile weight, so a free-tier flood
  cannot starve premium tenants.  Off: strict FIFO;
* **tenant quotas** (``serving_tenant_isolation``): at most
  ``profile.max_open`` open requests per tenant, shed beyond.

A request carries no time limit into the runtime: its latency is measured
here and judged against an SLO by whoever reads it.

Every request opens a ``control`` span linked to its task spans (the
request joins the causal trace plane), and ``skadi_serving_*`` metrics
are labeled by tenant *class*, not tenant id, so cardinality stays flat
at a million tenants.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..runtime.overload import AdmissionRejectedError
from ..runtime.runtime import ControlPlaneLostError
from ..runtime.task import TaskState
from ..telemetry.metrics import nearest_rank
from .tenants import TenantRegistry
from .workload import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.object_ref import ObjectRef
    from ..runtime.runtime import ServerlessRuntime
    from ..telemetry.spans import Span

__all__ = ["ServingFrontend", "PendingRequest"]


def _stage(*inputs: object) -> int:
    """Every stage's body: it returns how many inputs it read.  One function
    serves every stage (``submit`` gets the stage's name on its own)."""
    return len(inputs)


class PendingRequest:
    """Frontend-side bookkeeping for one offered request."""

    __slots__ = (
        "request", "refs", "remaining", "aborted", "finalized", "span",
        "finish_tag",
    )

    def __init__(self, request: Request):
        self.request = request
        self.refs: List["ObjectRef"] = []
        self.remaining = 0  # stage tasks not yet in a terminal state
        self.aborted = False  # a stage failed; siblings were cancelled
        self.finalized = False  # guards against re-entrant completion
        self.span: Optional["Span"] = None
        self.finish_tag = 0.0  # WFQ virtual finish time


class ServingFrontend:
    """Offers requests to the runtime under pacing, fair queueing and quotas."""

    def __init__(
        self,
        runtime: "ServerlessRuntime",
        tenants: TenantRegistry,
    ):
        self.rt = runtime
        self.sim = runtime.sim
        self.tenants = tenants
        cfg = runtime.config
        self.fair_queueing: bool = cfg.serving_fair_queueing
        self.tenant_isolation: bool = cfg.serving_tenant_isolation
        self.max_inflight: Optional[int] = cfg.serving_max_inflight
        self.queue_depth: int = cfg.serving_queue_depth
        # waiting room: a heap of (finish_tag, seq, pending); without fair
        # queueing every tag stays 0.0, so arrival order rules (FIFO)
        self._heap: List[Tuple[float, int, PendingRequest]] = []
        self._seq = 0
        self._vtime = 0.0  # WFQ system virtual time
        self._tenant_finish: Dict[str, float] = {}  # tenant id -> last finish tag
        self.inflight = 0
        # aggregate accounting (per-tenant dicts stay in Python so metric
        # cardinality is per *class*, not per tenant)
        self.offered = 0
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.shed: Dict[str, int] = {}
        self.offered_by_tenant: Dict[str, int] = {}
        self.admitted_by_tenant: Dict[str, int] = {}
        self.shed_by_tenant: Dict[str, int] = {}
        self.latencies: List[float] = []  # completed-ok request latencies
        reg = runtime.telemetry.registry
        self._m_offered = reg.series(
            "counter",
            "skadi_serving_requests_offered_total",
            "requests offered to the serving frontend, by tenant class",
            "tenant_class",
        )
        self._m_admitted = reg.series(
            "counter",
            "skadi_serving_requests_admitted_total",
            "requests whose task DAG entered the runtime, by tenant class",
            "tenant_class",
        )
        self._m_concluded = reg.series(
            "counter",
            "skadi_serving_requests_completed_total",
            "requests concluded, by tenant class and outcome",
            "tenant_class",
            "outcome",
        )
        self._m_shed = reg.series(
            "counter",
            "skadi_serving_requests_shed_total",
            "requests refused by the serving frontend, by tenant class and reason",
            "tenant_class",
            "reason",
        )
        self._m_latency = reg.series(
            "histogram",
            "skadi_serving_request_latency",
            "request latency (arrival to last stage done), by tenant class",
            "tenant_class",
        )
        self._m_queue_depth = reg.series(
            "gauge",
            "skadi_serving_queue_depth",
            "requests waiting in the frontend's bounded waiting room",
        ).of()
        self._m_inflight = reg.series(
            "gauge",
            "skadi_serving_inflight",
            "requests dispatched into the runtime and not yet concluded",
        ).of()

    # -- ingestion ------------------------------------------------------------

    def play(self, requests: Sequence[Request]) -> "ServingFrontend":
        """Pin every request's arrival to the virtual clock (open loop)."""
        for req in requests:
            self.sim.schedule_at(req.arrival, self.offer, req)
        return self

    def offer(self, request: Request) -> Optional[PendingRequest]:
        """One request hits the front door at the current virtual time."""
        tenant = request.tenant
        profile = tenant.profile
        self.offered += 1
        self.offered_by_tenant[tenant.tenant_id] = (
            self.offered_by_tenant.get(tenant.tenant_id, 0) + 1
        )
        self._m_offered.of(profile.name).inc()
        if self.tenant_isolation and tenant.open_requests >= profile.max_open:
            self._shed(request, "tenant_quota")
            return None
        pending = PendingRequest(request)
        tenant.open_requests += 1
        if self.max_inflight is None or self.inflight < self.max_inflight:
            self._dispatch(pending)
            return pending
        if self._queued() >= self.queue_depth:
            tenant.open_requests -= 1
            self._shed(request, "queue_full")
            return None
        self._enqueue(pending)
        return pending

    # -- fair queueing --------------------------------------------------------

    def _queued(self) -> int:
        return len(self._heap)

    def _enqueue(self, pending: PendingRequest) -> None:
        self._seq += 1
        if self.fair_queueing:
            req = pending.request
            tenant = req.tenant
            start = max(self._vtime, self._tenant_finish.get(tenant.tenant_id, 0.0))
            pending.finish_tag = start + req.template.total_cost / tenant.profile.weight
            self._tenant_finish[tenant.tenant_id] = pending.finish_tag
        heapq.heappush(self._heap, (pending.finish_tag, self._seq, pending))
        self._m_queue_depth.set(float(self._queued()))

    def _pop_next(self) -> Optional[PendingRequest]:
        if self._heap:
            tag, _seq, pending = heapq.heappop(self._heap)
            self._vtime = max(self._vtime, tag)
            return pending
        return None

    def _pump(self) -> None:
        while self.max_inflight is None or self.inflight < self.max_inflight:
            pending = self._pop_next()
            if pending is None:
                break
            self._dispatch(pending)
        self._m_queue_depth.set(float(self._queued()))

    # -- dispatch -------------------------------------------------------------

    def _dispatch(self, pending: PendingRequest) -> None:
        """Instantiate the request's task DAG through the ordinary submit
        path; a runtime-level admission rejection, or the refusal of a lost
        control plane, sheds the whole request (and cancels any stages
        already in)."""
        req = pending.request
        tenant = req.tenant
        profile = tenant.profile
        self.inflight += 1
        try:
            for stage_name, cost, deps in req.template.stages:
                ref = self.rt.submit(
                    _stage,
                    tuple(pending.refs[d] for d in deps),
                    compute_cost=cost,
                    name=tenant.qualify(f"{req.request_id}/{stage_name}"),
                    tenant=tenant.tenant_id,
                )
                pending.refs.append(ref)
        except AdmissionRejectedError as refused:
            self.inflight -= 1
            for ref in pending.refs:
                self.rt.cancel(ref, reason="request_rejected")
            tenant.open_requests -= 1
            lost = isinstance(refused, ControlPlaneLostError)
            self._shed(req, "control_plane_lost" if lost else "admission")
            return
        self.admitted += 1
        self.admitted_by_tenant[tenant.tenant_id] = (
            self.admitted_by_tenant.get(tenant.tenant_id, 0) + 1
        )
        self._m_admitted.of(profile.name).inc()
        self._m_inflight.set(float(self.inflight))
        # the request-level span joins the first stage's trace and links to
        # every stage task span, so the causal graph shows the whole request
        first = self.rt.span_of(pending.refs[0])
        links = tuple(
            s.span_id
            for s in (self.rt.span_of(r) for r in pending.refs)
            if s is not None
        )
        pending.span = self.rt.telemetry.tracer.start_span(
            f"request:{req.template.name}",
            "control",
            trace_id=first.trace_id if first is not None else None,
            links=links,
            start=req.arrival,
            tenant=tenant.tenant_id,
            tenant_class=profile.name,
            request=req.request_id,
        )
        pending.remaining = len(pending.refs)
        on_done = partial(self._on_stage_done, pending)
        for ref in pending.refs:
            self.rt.when_done(ref, on_done)

    # -- completion -----------------------------------------------------------

    def _on_stage_done(self, pending: PendingRequest, ref: "ObjectRef") -> None:
        pending.remaining -= 1
        state = self.rt.task_state(ref)
        if state is not TaskState.FINISHED and not pending.aborted:
            # a stage died for good: abort the request's surviving stages so
            # nothing leaks — a serving frontend never strands work behind a
            # failed sibling.  Cancellations fire sibling done-callbacks
            # synchronously, so this frame may re-enter _on_stage_done (the
            # `finalized` flag keeps completion exactly-once).
            pending.aborted = True
            for other in pending.refs:
                if other.object_id != ref.object_id:
                    self.rt.cancel(other, reason="request_aborted")
        if pending.remaining == 0 and not pending.finalized:
            self._finalize(pending)

    def _finalize(self, pending: PendingRequest) -> None:
        pending.finalized = True
        req = pending.request
        tenant = req.tenant
        profile = tenant.profile
        ok = not pending.aborted
        latency = self.sim.now - req.arrival
        tenant.open_requests -= 1
        self.inflight -= 1
        if ok:
            self.completed += 1
            self.latencies.append(latency)
            self._m_latency.of(profile.name).observe(latency)
        else:
            self.failed += 1
        self._m_concluded.of(profile.name, "ok" if ok else "failed").inc()
        if pending.span is not None:
            pending.span.attrs["outcome"] = "ok" if ok else "failed"
            pending.span.finish(self.sim.now)
        self._m_inflight.set(float(self.inflight))
        self._pump()

    # -- shedding / telemetry -------------------------------------------------

    def _shed(self, request: Request, reason: str) -> None:
        tenant = request.tenant
        self.shed[reason] = self.shed.get(reason, 0) + 1
        self.shed_by_tenant[tenant.tenant_id] = (
            self.shed_by_tenant.get(tenant.tenant_id, 0) + 1
        )
        self._m_shed.of(tenant.profile.name, reason).inc()
        self.rt._record(
            "serving_request_shed",
            request=request.request_id,
            tenant=tenant.tenant_id,
            reason=reason,
        )

    def latency_percentiles(self, tenant_class: Optional[str] = None) -> Dict[str, float]:
        """p50/p99/p999 of completed-request latency (one class or overall),
        using the registry histograms' exact nearest-rank convention."""
        quantiles = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))
        if tenant_class is not None:
            # a cold read: get-or-create, so an unseen class reads as empty
            hist = self.rt.telemetry.registry.histogram(
                self._m_latency.name, self._m_latency.help, tenant_class=tenant_class
            )
            return {name: hist.percentile(q) for name, q in quantiles}
        values = sorted(self.latencies)
        if not values:
            return {name: float("nan") for name, _q in quantiles}
        return {name: nearest_rank(values, q) for name, q in quantiles}
