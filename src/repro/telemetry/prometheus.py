"""Prometheus text exposition for the metrics registry, plus a parser.

The exporter emits the standard ``# HELP`` / ``# TYPE`` framed text
format; histograms are exposed as summaries with exact p50/p95/p99
quantile labels.  The parser exists so tests (and the E18 benchmark) can
round-trip an export and assert on the parsed values — the telemetry
plane's own output is part of the determinism contract.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .metrics import DEFAULT_QUANTILES, MetricsRegistry

__all__ = ["to_prometheus_text", "parse_prometheus_text", "ParsedMetrics"]

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+([^\s]+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def _fmt_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Serialize every family in deterministic (sorted) order."""
    lines: List[str] = []
    for family in registry.families():
        exposed_kind = "summary" if family.kind == "histogram" else family.kind
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {exposed_kind}")
        for inst in family.instruments():
            labels = inst.labels_dict
            if family.kind == "histogram":
                for q in DEFAULT_QUANTILES:
                    q_labels = dict(labels, quantile=str(q))
                    lines.append(
                        f"{family.name}{_fmt_labels(q_labels)} "
                        f"{_fmt_value(inst.percentile(q))}"
                    )
                lines.append(
                    f"{family.name}_sum{_fmt_labels(labels)} {_fmt_value(inst.sum)}"
                )
                lines.append(
                    f"{family.name}_count{_fmt_labels(labels)} {_fmt_value(inst.count)}"
                )
            else:
                lines.append(
                    f"{family.name}{_fmt_labels(labels)} {_fmt_value(inst.value)}"
                )
    return "\n".join(lines) + "\n"


@dataclass
class ParsedMetrics:
    """A parsed exposition: types, helps, and all samples."""

    types: Dict[str, str] = field(default_factory=dict)
    helps: Dict[str, str] = field(default_factory=dict)
    samples: List[Tuple[str, Dict[str, str], float]] = field(default_factory=list)

    def value(self, name: str, **labels: str) -> float:
        """The sample matching name + exact label set; KeyError if absent."""
        want = {k: str(v) for k, v in labels.items()}
        for sample_name, sample_labels, value in self.samples:
            if sample_name == name and sample_labels == want:
                return value
        raise KeyError(f"no sample {name!r} with labels {want!r}")


def parse_prometheus_text(text: str) -> ParsedMetrics:
    """Parse an exposition produced by :func:`to_prometheus_text`."""
    parsed = ParsedMetrics()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            parsed.types[name] = kind.strip()
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            parsed.helps[name] = help_text
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable metric line: {raw!r}")
        name, label_blob, value = match.groups()
        labels = {
            k: _unescape(v) for k, v in _LABEL_RE.findall(label_blob or "")
        }
        parsed.samples.append((name, labels, float(value)))
    return parsed
