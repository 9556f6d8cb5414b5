"""Structured diagnostics: the currency of the static-analysis layer.

Every checker — the IR verifier, the lint rules, the plan sanitizer —
reports findings as :class:`Diagnostic` values: a severity, a stable
machine-readable code, the location (function + op index + printed op), a
human message, and an optional fix-it hint.  :class:`DiagnosticSet`
collects them and renders the compiler-style report the CLI prints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional

__all__ = ["Severity", "Diagnostic", "DiagnosticSet"]


class Severity(enum.IntEnum):
    """Ordered so that max() over a set yields the worst finding."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding, anchored to where in the program it was observed."""

    severity: Severity
    code: str  # stable kebab-case rule id, e.g. "use-before-def"
    message: str
    func: str = ""  # IR function (or plan/graph) name
    op_index: Optional[int] = None  # position in the op list / task order
    op_text: str = ""  # printed form of the offending op or task
    hint: str = ""  # fix-it suggestion, when the rule knows one

    def render(self) -> str:
        where = f"@{self.func}" if self.func else ""
        if self.op_index is not None:
            where += f" op#{self.op_index}"
        parts = [f"{self.severity}[{self.code}]{(' ' + where.strip()) if where else ''}:"]
        parts.append(self.message)
        line = " ".join(parts)
        if self.op_text:
            line += f"\n    | {self.op_text}"
        if self.hint:
            line += f"\n    = hint: {self.hint}"
        return line

    def __str__(self) -> str:
        return self.render()


@dataclass
class DiagnosticSet:
    """An ordered collection of findings with severity accounting."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    # -- construction --------------------------------------------------------

    def add(self, diag: Diagnostic) -> Diagnostic:
        self.diagnostics.append(diag)
        return diag

    def error(self, code: str, message: str, **kwargs) -> Diagnostic:
        return self.add(Diagnostic(Severity.ERROR, code, message, **kwargs))

    def warning(self, code: str, message: str, **kwargs) -> Diagnostic:
        return self.add(Diagnostic(Severity.WARNING, code, message, **kwargs))

    def extend(self, other: Iterable[Diagnostic]) -> "DiagnosticSet":
        for diag in other:
            self.add(diag)
        return self

    # -- queries -------------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    @property
    def ok(self) -> bool:
        """No errors (warnings and notes are allowed)."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """Nothing above INFO."""
        return not self.errors and not self.warnings

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def codes(self) -> List[str]:
        return sorted({d.code for d in self.diagnostics})

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    # -- rendering -----------------------------------------------------------

    def summary(self) -> str:
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.diagnostics) - len(self.errors) - len(self.warnings)} note(s)"
        )

    def render(self) -> str:
        if not self.diagnostics:
            return "no diagnostics"
        lines = [d.render() for d in self.diagnostics]
        lines.append(self.summary())
        return "\n".join(lines)
