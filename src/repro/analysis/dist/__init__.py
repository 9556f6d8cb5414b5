"""Skadi-TSan: a sanitizer layer for the distributed runtime's protocols.

Four cooperating parts (ISSUE 8):

- **Happens-before inference** (:mod:`.hb`): vector clocks over the
  probe's protocol-event stream, flagging conflicting causally-unordered
  accesses to shared control-plane state (object-directory entries).
- **Protocol invariant monitors** (:mod:`.invariants`): declarative
  checkers for single ownership, directory-state legality, lineage
  acyclicity, deadline monotonicity, and fetch-dedup cancel-cascade
  completeness — runnable online behind ``RuntimeConfig(sanitizers=...)``
  or offline over a dumped trace.
- **Replay-divergence checking** (:mod:`.replay`): same seed twice,
  diff signatures, localize the first diverging event.
- **Schedule perturbation** (:mod:`.perturb`): seeded reordering of
  same-instant ties (source: :mod:`repro.chaos.perturb`), re-running the
  monitors per trial and shrinking failures to a minimal schedule.

``python -m repro.analysis.dist trace.json`` sanitizes dumped traces;
the runtime emits them when ``sanitizers=("trace",)`` (or ``"hb"``) is
set and ``probe.trace.dump(path)`` is called.
"""

from .events import ACCESS_CLASSES, CONFLICTS, DistTrace, ProtoEvent
from .hb import Access, HBResult, Race, build_hb, vc_leq
from .invariants import (
    DeadlineMonotonicityMonitor,
    DirectoryStateMonitor,
    FetchRegistryMonitor,
    InvariantEngine,
    LineageAcyclicityMonitor,
    Monitor,
    SingleOwnerMonitor,
    TaskLifecycleMonitor,
    Violation,
    default_monitors,
)
from .perturb import HuntResult, TrialRecord, ddmin, default_predicate, hunt
from .probe import DistProbe
from .replay import Divergence, ReplayReport, check_replay, diff_signatures
from .report import SanitizerReport, sanitize_trace

__all__ = [
    "ProtoEvent",
    "DistTrace",
    "ACCESS_CLASSES",
    "CONFLICTS",
    "Access",
    "Race",
    "HBResult",
    "build_hb",
    "vc_leq",
    "Violation",
    "Monitor",
    "InvariantEngine",
    "default_monitors",
    "SingleOwnerMonitor",
    "DirectoryStateMonitor",
    "LineageAcyclicityMonitor",
    "DeadlineMonotonicityMonitor",
    "FetchRegistryMonitor",
    "TaskLifecycleMonitor",
    "DistProbe",
    "Divergence",
    "ReplayReport",
    "check_replay",
    "diff_signatures",
    "TrialRecord",
    "HuntResult",
    "hunt",
    "ddmin",
    "default_predicate",
    "SanitizerReport",
    "sanitize_trace",
]
