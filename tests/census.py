"""A call census: who reaches each function defined under ``src/``.

    PYTHONPATH=src:tests python -m pytest -p census --census=tests.txt
    PYTHONPATH=src:tests python -m pytest -p census --census=benchmarks.txt \
        benchmarks/test_*.py --benchmark-disable
    python tests/census.py --ledger ledger.txt
    python tests/census.py --report tests.txt benchmarks.txt ledger.txt

The first three forms record every ``src/`` function that was called, one
``path:qualname`` per line.  Recording uses ``sys.settrace`` call events only
(the tracer returns None, so no line of any frame is traced).  pytest-benchmark
pauses tracers while it times, so the benchmarks run with
``--benchmark-disable``.  ``--ledger`` runs every episode of each workload in
``ledger.workloads.WORKLOADS`` in this process (seed 1, scale 1.0): generate,
build, run, check.

``--report`` sorts every function defined under ``src/`` (found with ``ast``)
into one class — reached by the ``ledger``, by ``tests+benchmarks`` only, by
``tests`` only, by ``benchmarks`` only, or from ``nowhere`` — and lists the
last three classes function by function.  Only the standard library is used;
it needs Python 3.11 or later (``code.co_qualname``).
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CLASSES = ("ledger", "tests+benchmarks", "tests", "benchmarks", "nowhere")


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


# -- the report ------------------------------------------------------------------------


def _defs(node: ast.AST, prefix: str) -> Iterator[Tuple[str, int]]:
    """``(qualname, line)`` of every function under ``node``, as
    ``code.co_qualname`` spells it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child.lineno
            yield from _defs(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def defined() -> Dict[str, int]:
    """``path:qualname`` -> line, for every function defined under ``src/``."""
    out: Dict[str, int] = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for qualname, line in _defs(ast.parse(path.read_text()), ""):
            out.setdefault(f"{rel}:{qualname}", line)
    return out


def classify(
    names: Iterable[str], tests: Set[str], benchmarks: Set[str], ledger: Set[str]
) -> Dict[str, List[str]]:
    classes: Dict[str, List[str]] = {cls: [] for cls in CLASSES}
    for name in names:
        if name in ledger:
            cls = "ledger"
        elif name in tests:
            cls = "tests+benchmarks" if name in benchmarks else "tests"
        elif name in benchmarks:
            cls = "benchmarks"
        else:
            cls = "nowhere"
        classes[cls].append(name)
    return classes


def report(tests_file: str, benchmarks_file: str, ledger_file: str) -> str:
    def load(path: str) -> Set[str]:
        with open(path) as lines:
            return {line.strip() for line in lines if line.strip()}

    defs = defined()
    classes = classify(defs, load(tests_file), load(benchmarks_file), load(ledger_file))
    lines = [f"{len(defs)} functions under src/"]
    lines += [f"  {cls:<17} {len(names):>5}" for cls, names in classes.items()]
    for cls in ("nowhere", "tests", "benchmarks"):
        lines.append(f"\n{cls}:")
        for name in classes[cls]:
            path, qualname = name.split(":")
            lines.append(f"  {path}:{defs[name]} {qualname}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--ledger", metavar="FILE", help="record the ledger's workloads to FILE")
    action.add_argument(
        "--report", nargs=3, metavar=("TESTS", "BENCHMARKS", "LEDGER"),
        help="classify every src/ function by the three recorded files",
    )
    args = parser.parse_args()
    if args.ledger:
        run_ledger(args.ledger)
    else:
        print(report(*args.report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
