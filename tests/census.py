"""A call census: who reaches each function defined under ``src/``.

    PYTHONPATH=src:tests python -m pytest -p census --census=tests.txt
    PYTHONPATH=src:tests python -m pytest -p census --census=benchmarks.txt \
        benchmarks/test_*.py --benchmark-disable
    python tests/census.py --ledger ledger.txt
    python tests/census.py --examples examples.txt
    python tests/census.py --report tests.txt benchmarks.txt ledger.txt examples.txt

The first four forms record every ``src/`` function that was called, one
``path:qualname`` per line.  Recording uses ``sys.settrace`` call events only
(the tracer returns None, so no line of any frame is traced).  pytest-benchmark
pauses tracers while it times, so the benchmarks run with
``--benchmark-disable``.  ``--ledger`` runs every episode of each workload in
``ledger.workloads.WORKLOADS`` in this process (seed 1, scale 1.0): generate,
build, run, check.  ``--examples`` runs every ``examples/*.py`` as
``__main__`` and each ``python -m repro.<module> ...`` line of the CI
workflow's blocking jobs (``repro.analysis`` three times, ``repro.bench.simcore``
once), from the repo root, in this process.

``--report`` sorts every function defined under ``src/`` (found with ``ast``)
into one class — reached by the ``ledger``, by the ``examples`` (and CI's
``repro`` module commands), by ``tests+benchmarks`` only, by ``tests`` only, by
``benchmarks`` only, or from ``nowhere`` — and prints each class's function
count and body lines, a per-file table of the ``tests`` and ``nowhere`` lines,
and the last three classes function by function.  A function's body lines
are the lines from its ``def`` to its end, less those of the functions
defined inside it, so no line is counted twice.  A class with no called
method is invisible to a call census; :func:`unnamed_classes` (the report's
last section, and ``tests/test_census.py``) finds the top-level classes that
no code names.  Only the standard library is used; it needs Python 3.11 or
later (``code.co_qualname``).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import re
import runpy
import shlex
import sys
import threading
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# where a class counts as named: the package and every tree that runs it
NAMED_IN = ("src", "tests", "benchmarks", "examples")
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
CLASSES = ("ledger", "examples", "tests+benchmarks", "tests", "benchmarks", "nowhere")


class Census:
    """The code objects called while it runs; ``reached()`` keeps ``src/``'s."""

    def __init__(self) -> None:
        # id -> code object: holding the code keeps its id from being reused
        self.codes: Dict[int, object] = {}

    def _on_call(self, frame, event, arg) -> None:
        code = frame.f_code
        self.codes[id(code)] = code

    def start(self) -> None:
        threading.settrace(self._on_call)
        sys.settrace(self._on_call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def reached(self) -> Set[str]:
        root = str(SRC) + os.sep
        names = set()
        for code in self.codes.values():
            path = os.path.abspath(code.co_filename)
            if path.startswith(root):
                names.add(f"{Path(path).relative_to(SRC).as_posix()}:{code.co_qualname}")
        return names

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            out.writelines(f"{name}\n" for name in sorted(self.reached()))


# -- the pytest plugin -------------------------------------------------------------


def pytest_addoption(parser):
    parser.addoption(
        "--census", metavar="FILE", default=None,
        help="write every src/ function the run calls to FILE",
    )


class _Recorder:
    def __init__(self, path: str):
        self.path = path
        self.census = Census()
        self.census.start()

    def pytest_unconfigure(self, config):
        self.census.stop()
        self.census.write(self.path)


def pytest_load_initial_conftests(early_config, parser, args):
    # before any conftest imports the package: import-time calls count too
    path = early_config.known_args_namespace.census
    if path:
        early_config.pluginmanager.register(_Recorder(path), "census-recorder")


# -- the ledger driver ---------------------------------------------------------------


LEDGER_SEED, LEDGER_SCALE = 1, 1.0


def run_ledger(path: str) -> None:
    sys.path[:0] = [str(SRC), str(ROOT / "benchmarks")]
    census = Census()
    census.start()  # before the import: import-time calls count too
    try:
        from ledger.workloads import WORKLOADS

        for wl in WORKLOADS.values():
            for ep in wl.generate(LEDGER_SEED, LEDGER_SCALE):
                state = wl.build(ep)
                out = wl.run(ep, state)
                wl.observe(ep, state, out, wl.check(ep, state, out))
    finally:
        census.stop()
    census.write(path)


# -- the examples driver -------------------------------------------------------------


def ci_module_commands() -> List[Tuple[str, List[str]]]:
    """``(module, args)`` of every ``python -m repro.<module> ...`` line in
    CI's blocking jobs.  A ``continue-on-error`` job is left out: its
    commands read artifacts that the benchmark suite writes first."""
    workflow = CI_WORKFLOW.read_text().split("\njobs:\n", 1)[1]
    commands = []
    for job in re.split(r"^  \S+:\n", workflow, flags=re.M):
        if re.search(r"^\s+continue-on-error: true$", job, flags=re.M):
            continue
        for line in job.splitlines():
            line = line.strip().removeprefix("run: ")
            if line.startswith("python -m repro."):
                module, *args = shlex.split(line)[2:]
                commands.append((module, args))
    return commands


def run_examples(path: str) -> None:
    sys.path[:0] = [str(SRC)]
    commands = ci_module_commands()
    census = Census()
    os.chdir(ROOT)  # CI runs the commands from the repo root
    argv = sys.argv
    census.start()  # before the first import: import-time calls count too
    try:
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            for example in sorted((ROOT / "examples").glob("*.py")):
                runpy.run_path(str(example), run_name="__main__")
            for module, args in commands:
                sys.argv = [module, *args]
                try:
                    runpy.run_module(module, run_name="__main__", alter_sys=True)
                except SystemExit as done:
                    if done.code:
                        raise RuntimeError(f"{module} {args} exited {done.code}") from done
    finally:
        census.stop()
        sys.argv = argv
    census.write(path)


# -- the report ------------------------------------------------------------------------


def _defs(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
    """``(qualname, def node)`` of every function under ``node``, with the
    qualname spelled as ``code.co_qualname`` spells it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _defs(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def _span(node: ast.AST) -> int:
    return node.end_lineno - node.lineno + 1


def _body_lines(func: ast.AST) -> int:
    """Lines from ``def`` to the end, less those of the functions nested in
    it (and not in another nested function, which already subtracts its own)."""
    lines, stack = _span(func), list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines -= _span(node)
        else:
            stack.extend(ast.iter_child_nodes(node))
    return lines


def defined() -> Dict[str, Tuple[int, int]]:
    """``path:qualname`` -> (line, body lines), for every function under ``src/``."""
    out: Dict[str, Tuple[int, int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for qualname, node in _defs(ast.parse(path.read_text()), ""):
            out.setdefault(f"{rel}:{qualname}", (node.lineno, _body_lines(node)))
    return out


def classify(
    names: Iterable[str],
    tests: Set[str],
    benchmarks: Set[str],
    ledger: Set[str],
    examples: Set[str],
) -> Dict[str, List[str]]:
    classes: Dict[str, List[str]] = {cls: [] for cls in CLASSES}
    for name in names:
        if name in ledger:
            cls = "ledger"
        elif name in examples:
            cls = "examples"
        elif name in tests:
            cls = "tests+benchmarks" if name in benchmarks else "tests"
        elif name in benchmarks:
            cls = "benchmarks"
        else:
            cls = "nowhere"
        classes[cls].append(name)
    return classes


def unnamed_classes() -> List[str]:
    """``path:Class`` of every top-level class under ``src/`` that no code in
    ``NAMED_IN`` names (as a ``Name`` or an ``Attribute``) outside the class
    itself.  ``__all__`` entries are strings and import lines hold aliases,
    so neither counts as a use."""
    classes: Dict[str, List[str]] = {}
    uses: List[Tuple[str, str]] = []  # (name, "path:Class" it sits in, or "")
    for top in NAMED_IN:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(SRC).as_posix() if top == "src" else ""
            for stmt in ast.parse(path.read_text()).body:
                owner = ""
                if isinstance(stmt, ast.ClassDef) and rel:
                    owner = f"{rel}:{stmt.name}"
                    classes.setdefault(stmt.name, []).append(owner)
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name):
                        uses.append((node.id, owner))
                    elif isinstance(node, ast.Attribute):
                        uses.append((node.attr, owner))
    named = {
        cls for name, owner in uses for cls in classes.get(name, ()) if cls != owner
    }
    return sorted(cls for found in classes.values() for cls in found if cls not in named)


def report(tests_file: str, benchmarks_file: str, ledger_file: str, examples_file: str) -> str:
    def load(path: str) -> Set[str]:
        with open(path) as lines:
            return {line.strip() for line in lines if line.strip()}

    defs = defined()
    classes = classify(
        defs, load(tests_file), load(benchmarks_file), load(ledger_file), load(examples_file)
    )

    def body(names: Iterable[str]) -> int:
        return sum(defs[name][1] for name in names)

    lines = [f"{len(defs)} functions ({body(defs)} body lines) under src/"]
    lines += [
        f"  {cls:<17} {len(names):>5} {body(names):>7} lines" for cls, names in classes.items()
    ]
    per_file: Dict[str, Dict[str, int]] = {}
    for cls in ("tests", "nowhere"):
        for name in classes[cls]:
            row = per_file.setdefault(name.split(":")[0], {"tests": 0, "nowhere": 0})
            row[cls] += defs[name][1]
    lines.append(f"\n{'tests-only and nowhere lines by file':<40} {'tests':>7} {'nowhere':>7}")
    for path, row in sorted(per_file.items()):
        lines.append(f"  {path:<38} {row['tests']:>7} {row['nowhere']:>7}")
    for cls in ("nowhere", "tests", "benchmarks"):
        lines.append(f"\n{cls}:")
        for name in classes[cls]:
            path, qualname = name.split(":")
            lines.append(f"  {path}:{defs[name][0]} {qualname}")
    lines.append("\nclasses no code names:")
    lines += [f"  {cls}" for cls in unnamed_classes()]
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--ledger", metavar="FILE", help="record the ledger's workloads to FILE")
    action.add_argument(
        "--examples", metavar="FILE",
        help="record the examples and CI's blocking repro commands to FILE",
    )
    action.add_argument(
        "--report", nargs=4, metavar=("TESTS", "BENCHMARKS", "LEDGER", "EXAMPLES"),
        help="classify every src/ function by the four recorded files",
    )
    args = parser.parse_args()
    if args.ledger:
        run_ledger(args.ledger)
    elif args.examples:
        run_examples(args.examples)
    else:
        print(report(*args.report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
