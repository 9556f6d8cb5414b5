"""The switch matrix stays collapsed: every ``RuntimeConfig`` field earns its
place by being set to a non-default value somewhere a reader can run it.

A field nobody ever moves off its default is a constant wearing an option's
clothes — it doubles the configurations to reason about and tests nothing.
This walks the dataclass and the source of ``tests/``, ``benchmarks/`` and
``examples/`` and fails on any field that is never passed (as a keyword
argument, or as a key of a dict that gets splatted into the config) with a
value other than its default.
"""

from __future__ import annotations

import ast
import dataclasses
import enum
from pathlib import Path

from repro.runtime import RuntimeConfig

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("tests", "benchmarks", "examples")
DEFAULTS = {f.name: f.default for f in dataclasses.fields(RuntimeConfig)}


def _values_by_field() -> dict:
    """field name -> every expression some file passes under that name."""
    found: dict = {name: [] for name in DEFAULTS}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    for kw in node.keywords:
                        if kw.arg in found:
                            found[kw.arg].append(kw.value)
                elif isinstance(node, ast.Dict):
                    for key, value in zip(node.keys, node.values):
                        if isinstance(key, ast.Constant) and key.value in found:
                            found[key.value].append(value)
    return found


def _is_default(node: ast.expr, default: object) -> bool:
    if isinstance(default, enum.Enum):
        return ast.unparse(node).endswith(f"{type(default).__name__}.{default.name}")
    try:
        return ast.literal_eval(node) == default
    except ValueError:
        return False  # a computed value: somebody is steering this field


def test_every_field_is_moved_off_its_default_somewhere():
    idle = [
        name
        for name, values in _values_by_field().items()
        if all(_is_default(v, DEFAULTS[name]) for v in values)
    ]
    assert not idle, (
        f"RuntimeConfig fields never set to a non-default value under "
        f"{'/, '.join(SCANNED)}/: {idle} — exercise the option in a test, or "
        f"make it a constant next to its reader"
    )
