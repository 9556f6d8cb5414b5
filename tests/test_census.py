"""The census tool (``tests/census.py``) and the one census fact that runs in
tier-1: every top-level class under ``src/`` is named somewhere.

A call census is function-level, so a class none of whose methods is ever
called (a dataclass nothing constructs, say) is invisible to it.  The
class scan closes that gap; the other tests pin how the report counts.
"""

from __future__ import annotations

import ast
import textwrap

import census
import pytest


def test_every_top_level_class_is_named_outside_itself():
    assert census.unnamed_classes() == [], (
        "classes nothing constructs, subclasses, annotates or reads: delete "
        "them (and their exports), or use them"
    )


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A throwaway repo root; ``write(rel, text)`` adds a file to it."""
    monkeypatch.setattr(census, "ROOT", tmp_path)
    monkeypatch.setattr(census, "SRC", tmp_path / "src")
    for top in census.NAMED_IN:
        (tmp_path / top).mkdir()

    def write(rel: str, text: str) -> None:
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))

    return write


def test_own_body_exports_and_imports_do_not_name_a_class(tree):
    tree(
        "src/pkg/mod.py",
        """
        __all__ = ["Lonely", "Used", "Base", "Child"]

        class Lonely:
            def clone(self) -> "Lonely":
                return Lonely()

        class Used:
            pass

        class Base:
            pass

        class Child(Base):
            pass
        """,
    )
    tree("src/pkg/__init__.py", "from .mod import Child, Lonely, Used\n")
    tree("tests/test_mod.py", "from pkg.mod import Lonely, Used\n\nx = Used()\n")
    tree("examples/demo.py", "import pkg\n\npkg.mod.Child\n")
    # Base is named by Child's bases, Child by an attribute, Used by a call
    assert census.unnamed_classes() == ["pkg/mod.py:Lonely"]


def test_a_name_in_another_tree_counts(tree):
    tree("src/pkg/mod.py", "class Spec:\n    pass\n")
    assert census.unnamed_classes() == ["pkg/mod.py:Spec"]
    tree("benchmarks/test_b.py", "def f(spec: Spec):\n    return spec\n")
    assert census.unnamed_classes() == []


def test_body_lines_leave_nested_functions_to_themselves():
    source = textwrap.dedent(
        """
        def outer():
            x = 1

            def inner():
                def innermost():
                    return 3
                return innermost

            class Local:
                def method(self):
                    return 2

            return inner, Local, x
        """
    )
    outer = ast.parse(source).body[0]
    spans = {
        qualname: census._body_lines(node)
        for qualname, node in census._defs(ast.parse(source), "")
    }
    assert spans == {
        "outer": 7,
        "outer.<locals>.inner": 2,
        "outer.<locals>.inner.<locals>.innermost": 2,
        "outer.<locals>.Local.method": 2,
    }
    assert sum(spans.values()) == outer.end_lineno - outer.lineno + 1


def test_defined_spells_qualnames_as_code_objects_do(tree):
    source = """
        def top():
            def helper():
                return 1
            return helper

        class Box:
            def put(self):
                return lambda: 0

            class Inner:
                async def get(self):
                    return 1
        """
    tree("src/pkg/box.py", source)

    def qualnames(code):
        yield code.co_qualname
        for const in code.co_consts:
            if hasattr(const, "co_qualname"):
                yield from qualnames(const)

    module = compile(textwrap.dedent(source), "box.py", "exec")
    from_code = {q for q in qualnames(module) if q != "<module>" and "<lambda>" not in q}
    from_code -= {"Box", "Box.Inner"}  # class bodies are code objects too
    assert {name.split(":")[1] for name in census.defined()} == from_code
    assert census.defined()["pkg/box.py:top"] == (2, 2)


def test_classify_takes_the_widest_reach():
    names = ["a", "b", "c", "d", "e", "f"]
    classes = census.classify(
        names,
        tests={"a", "c", "d"},
        benchmarks={"a", "d", "e"},
        ledger={"a"},
        examples={"b", "c"},
    )
    assert classes == {
        "ledger": ["a"],
        "examples": ["b", "c"],
        "tests+benchmarks": ["d"],
        "tests": [],
        "benchmarks": ["e"],
        "nowhere": ["f"],
    }


def test_report_sums_body_lines_by_class_and_by_file(tree, tmp_path):
    tree(
        "src/pkg/a.py",
        """
        def ran():
            return 1

        def tested():
            x = 1
            return x

        def dead():
            pass
        """,
    )
    tree("src/pkg/b.py", "def also_tested():\n    return 2\n")
    recorded = {
        "tests": "pkg/a.py:tested\npkg/b.py:also_tested\n",
        "benchmarks": "",
        "ledger": "pkg/a.py:ran\n",
        "examples": "",
    }
    files = []
    for name, text in recorded.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        files.append(str(path))
    lines = census.report(*files).splitlines()
    assert lines[0] == "4 functions (9 body lines) under src/"
    counts = {line.split()[0]: line.split()[1:3] for line in lines[1:7]}
    assert counts == {
        "ledger": ["1", "2"],
        "examples": ["0", "0"],
        "tests+benchmarks": ["0", "0"],
        "tests": ["2", "5"],
        "benchmarks": ["0", "0"],
        "nowhere": ["1", "2"],
    }
    table = lines.index(next(line for line in lines if line.startswith("tests-only and")))
    assert [line.split() for line in lines[table + 1 : table + 3]] == [
        ["pkg/a.py", "3", "2"],
        ["pkg/b.py", "2", "0"],
    ]
    assert lines[-1] == "classes no code names:"


def test_ci_module_commands_are_the_blocking_repro_lines():
    commands = census.ci_module_commands()
    modules = sorted(module for module, _ in commands)
    # repro.analysis.dist reads artifacts a continue-on-error job writes first
    assert modules == ["repro.analysis"] * 3 + ["repro.bench.simcore"]
    assert ("repro.analysis", ["examples/"]) in commands
