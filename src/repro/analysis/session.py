"""Analysis sessions: observe a whole program run and lint everything in it.

The CLI cannot see a user program's intermediate IR or physical plans — they
live inside ``Skadi`` calls.  An :class:`AnalysisSession` is a thread-local
collector that the pipeline reports into from three choke points, each of
which reads the active session from ``repro.ir.passes.OBSERVER``:

* ``PassManager.run`` — forces verify-after-each-pass and records the
  miscompile it raises
* ``Skadi._run_ir`` — strict-verifies and lints the optimized IR
* ``launch_physical_graph`` — sanitizes every physical plan against the
  runtime's cluster and blacklist before it launches

While a session is active the program still runs normally; the session only
accumulates diagnostics (a :class:`MiscompileError` still propagates — a
miscompiled program must not keep running).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Set

from ..ir.passes import OBSERVER, MiscompileError
from .diagnostics import DiagnosticSet
from .lint import lint_function
from .verifier import verify_function

__all__ = ["AnalysisSession", "analysis_session", "current_session"]


def current_session() -> Optional["AnalysisSession"]:
    """The active session of this thread, or None (the common, zero-cost case)."""
    return OBSERVER.session


class AnalysisSession:
    """Collects diagnostics from every function and plan a program touches."""

    def __init__(self, name: str = "analysis"):
        self.name = name
        self.diagnostics = DiagnosticSet()
        self.functions_checked = 0
        self.plans_checked = 0
        self.miscompiles: List[MiscompileError] = []
        self._seen_functions: Set[int] = set()
        self._seen_plans: Set[int] = set()

    # -- hook entry points (called from the pipeline) ------------------------

    def record_function(self, func) -> None:
        """Strict-verify and lint one IR function (idempotent per object)."""
        if id(func) in self._seen_functions:
            return
        self._seen_functions.add(id(func))
        self.functions_checked += 1
        verify_function(func, self.diagnostics)
        lint_function(func, self.diagnostics)

    def record_plan(self, pgraph, devices=None, blacklisted=(), diags=None) -> None:
        """Sanitize one physical plan (idempotent per object).

        When the caller already ran the sanitizer (the launch path, which
        knows the scheduler's blacklist) it hands the findings in via
        ``diags`` instead of re-running."""
        if id(pgraph) in self._seen_plans:
            return
        self._seen_plans.add(id(pgraph))
        self.plans_checked += 1
        if diags is not None:
            self.diagnostics.extend(diags)
            return
        from .sanitizer import sanitize_plan

        sanitize_plan(
            pgraph, devices=devices, blacklisted=blacklisted, diags=self.diagnostics
        )

    def record_miscompile(self, exc: MiscompileError) -> None:
        """A verify-after-each-pass failure: keep the error itself."""
        self.miscompiles.append(exc)
        self.diagnostics.error(
            "miscompile",
            f"pass {exc.pass_name!r} broke {exc.function_name!r}: {exc.cause}",
            func=exc.function_name,
            hint="see the bisection diff (MiscompileError.diff())",
        )

    # -- reporting -----------------------------------------------------------

    @property
    def clean(self) -> bool:
        return self.diagnostics.clean

    def render(self) -> str:
        header = (
            f"[{self.name}] checked {self.functions_checked} function(s), "
            f"{self.plans_checked} plan(s)"
        )
        return f"{header}\n{self.diagnostics.render()}"


@contextmanager
def analysis_session(name: str = "analysis") -> Iterator[AnalysisSession]:
    """Activate a session for this thread; nesting reuses the outer session."""
    outer = current_session()
    if outer is not None:
        yield outer
        return
    session = AnalysisSession(name)
    OBSERVER.session = session
    try:
        yield session
    finally:
        OBSERVER.session = None
