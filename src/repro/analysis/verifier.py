"""Collect-all strict IR verifier.

The IR has one checker, :meth:`Function.findings`, with two reporting
modes.  ``Function.verify()`` raises the first finding — right for a
compiler pipeline that must stop.  A linter wants every violation in one
pass, as structured diagnostics: :func:`verify_function` renders each
finding as a :class:`Diagnostic` (the code is the invariant; the finding's
docstring has the table of all 13) with the printed op and a fix-it hint.
"""

from __future__ import annotations

from typing import Optional

from ..ir.core import Function, _safe_text
from .diagnostics import DiagnosticSet

__all__ = ["verify_function"]

HINTS = {
    "duplicate-param": "rename the colliding parameters",
    "unknown-op": "register an OpDef or fix the dialect/name spelling",
    "cross-function-operand": "pass the value through a parameter instead",
    "type-mismatch": "rebuild the op through Builder.emit so types come from inference",
    "op-after-return": "move the op before the return or drop it",
}


def verify_function(
    func: Function, diags: Optional[DiagnosticSet] = None
) -> DiagnosticSet:
    """Check every IR invariant on ``func``; never raises, always finishes."""
    diags = diags if diags is not None else DiagnosticSet()
    for code, index, message in func.findings():
        diags.error(
            code,
            message,
            func=func.name,
            op_index=index,
            op_text=_safe_text(func.ops[index]) if index is not None else "",
            hint=HINTS.get(code, ""),
        )
    return diags

