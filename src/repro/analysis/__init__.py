"""Skadi-lint: static analysis over the IR, flowgraph, and runtime tiers.

A compiler stack is only as trustworthy as its invariants: this package
renders the IR's own checker as collect-all diagnostics, re-exports its
def-use facts (with liveness and reaching-definition queries) next to buffer
effects, and holds lint rules for missed optimizations, a physical-plan
sanitizer the scheduler runs in strict mode, and pass-level miscompile
bisection.  ``python -m repro.analysis`` lints whole programs end to end.
"""

from .bisect import bisect_miscompile, clone_function
from .dataflow import AliasSets, BufferSummary, DefUse, Effect, buffer_effects, def_use
from .diagnostics import Diagnostic, DiagnosticSet, Severity
from .lint import lint_function, lint_module
from .sanitizer import DeviceView, PlanSanitizerError, sanitize_plan, strict_sanitize
from .session import AnalysisSession, analysis_session, current_session
from .verifier import strict_verify, verify_function, verify_module

__all__ = [
    "Severity",
    "Diagnostic",
    "DiagnosticSet",
    "verify_function",
    "verify_module",
    "strict_verify",
    "DefUse",
    "def_use",
    "Effect",
    "BufferSummary",
    "buffer_effects",
    "AliasSets",
    "lint_function",
    "lint_module",
    "sanitize_plan",
    "strict_sanitize",
    "DeviceView",
    "PlanSanitizerError",
    "bisect_miscompile",
    "clone_function",
    "AnalysisSession",
    "analysis_session",
    "current_session",
]
