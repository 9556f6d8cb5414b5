"""The switch matrix stays collapsed: every ``RuntimeConfig`` field earns its
place by being set to a non-default value somewhere a reader can run it.

A field nobody ever moves off its default is a constant wearing an option's
clothes — it doubles the configurations to reason about and tests nothing.
This walks the dataclass and the source of ``tests/``, ``benchmarks/`` and
``examples/`` and fails on any field that is never passed (as a keyword
argument, or as a key of a dict that gets splatted into the config) with a
value other than its default.  It also fails on a field that no ``src/``
module reads, and on a removed field that the config still accepts.
"""

from __future__ import annotations

import ast
import dataclasses
import enum
import importlib
from pathlib import Path

import pytest

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


# fields that only the tests of their own mechanism ever set: each is now a
# module constant next to its one reader, with the field's old default
RETIRED = {
    "max_lineage_replays": ("repro.runtime.runtime", "MAX_LINEAGE_REPLAYS", 32),
    "retry_jitter": ("repro.runtime.supervision", "RETRY_JITTER", 0.25),
    "ha_election_seed": ("repro.runtime.ha", "ELECTION_SEED", 0),
}


@pytest.mark.parametrize("field", sorted(RETIRED))
def test_a_retired_field_is_a_constant_with_its_old_default(field):
    module, constant, default = RETIRED[field]
    assert field not in DEFAULTS
    with pytest.raises(TypeError):
        RuntimeConfig(**{field: default})
    assert getattr(importlib.import_module(module), constant) == default


# fields the runtime keeps although no code of its reads them, each with why;
# an exemption whose field gains a reader is stale and fails below
UNREAD = {
    "serving_slo_deadlines": "the benchmark ledger's serving workload still passes it",
}


CONFIG_PY = ROOT / "src/repro/runtime/config.py"


def _attributes_read_in_src() -> set:
    """Every attribute name some ``src/`` module other than the config's own
    mentions (``cfg.x``, ``self.config.x``, ...)."""
    names: set = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path == CONFIG_PY:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_field_is_read_by_the_runtime():
    read = _attributes_read_in_src()
    unread = sorted(set(DEFAULTS) - read - set(UNREAD))
    assert not unread, (
        f"RuntimeConfig fields no src/ module reads: {unread} — a switch that "
        f"switches nothing; delete it"
    )
    stale = sorted(set(UNREAD) & read)
    assert not stale, f"exempted as unread, but read: {stale} — drop the exemption"
    assert set(UNREAD) <= set(DEFAULTS)


# fields deleted together with the mechanism they switched
REMOVED = {
    "deadline_propagation": "the runtime has no task deadlines",
}


@pytest.mark.parametrize("field", sorted(REMOVED))
def test_a_removed_field_is_refused(field):
    assert field not in DEFAULTS
    with pytest.raises(TypeError):
        RuntimeConfig(**{field: False})
