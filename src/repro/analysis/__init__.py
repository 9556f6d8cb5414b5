"""Skadi-lint: static analysis over the IR, flowgraph, and runtime tiers.

A compiler stack is only as trustworthy as its invariants: this package
renders the IR's own checker as collect-all diagnostics, and holds lint
rules for missed optimizations and a physical-plan sanitizer the scheduler
runs in strict mode.  Pass-level miscompile attribution is the IR's own
``PassManager(verify_each=True)``; an :class:`AnalysisSession` records the
``MiscompileError`` it raises.  ``python -m repro.analysis`` lints whole
programs end to end.
"""

from .diagnostics import Diagnostic, DiagnosticSet, Severity
from .lint import lint_function
from .sanitizer import DeviceView, PlanSanitizerError, sanitize_plan
from .session import AnalysisSession, analysis_session, current_session
from .verifier import verify_function

__all__ = [
    "Severity",
    "Diagnostic",
    "DiagnosticSet",
    "verify_function",
    "lint_function",
    "sanitize_plan",
    "DeviceView",
    "PlanSanitizerError",
    "AnalysisSession",
    "analysis_session",
    "current_session",
]
