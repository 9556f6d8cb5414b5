"""Multi-tenant serving layer over the distributed runtime.

Turns the single-driver task API into a service: seeded open-loop workload
synthesis for 10k–1M tenants (:mod:`.workload`, :mod:`.arrivals`), tenant
identity/quotas/namespaces (:mod:`.tenants`) and a weighted-fair
frontend feeding the runtime's admission machinery (:mod:`.frontend`).
Sessions terminate on one head; head failover is the GCS leader
election's job (:mod:`repro.runtime.ha`).
"""

from .arrivals import poisson_offsets, uniform_offsets
from .frontend import PendingRequest, ServingFrontend
from .tenants import DEFAULT_PROFILES, Tenant, TenantProfile, TenantRegistry
from .workload import (
    DEFAULT_TEMPLATES,
    Request,
    RequestTemplate,
    WorkloadGenerator,
    default_templates,
)

__all__ = [
    "poisson_offsets",
    "uniform_offsets",
    "PendingRequest",
    "ServingFrontend",
    "DEFAULT_PROFILES",
    "Tenant",
    "TenantProfile",
    "TenantRegistry",
    "DEFAULT_TEMPLATES",
    "Request",
    "RequestTemplate",
    "WorkloadGenerator",
    "default_templates",
]
