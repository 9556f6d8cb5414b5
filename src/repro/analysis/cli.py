"""``python -m repro.analysis`` — lint whole programs end to end.

Two modes:

* **file mode** — run each Python program (or every ``*.py`` under a
  directory) inside an analysis session: the pipeline hooks verify every
  IR function after each pass, lint the optimized IR, and sanitize every
  physical plan the program launches.  The program's own stdout is
  suppressed; only the diagnostic report is printed.
* **SQL mode** — ``--sql QUERY --table name=col:dtype,...`` plans the query
  through the full relational -> df/kernel pipeline and lints the result,
  without needing any data.

Exit status is 0 only when every target is clean (INFO notes allowed).
A dumped dist trace is no program: ``python -m repro.analysis.dist``
sanitizes it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import runpy
from pathlib import Path
from typing import Dict, List

from .session import analysis_session

__all__ = ["main"]


def _expand_targets(paths: List[str]) -> List[Path]:
    targets: List[Path] = []
    for raw in paths:
        path = Path(raw)
        targets.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return targets


def _lint_program(path: Path) -> "tuple[bool, str]":
    """Run one program under analysis; returns (clean, report)."""
    with analysis_session(name=path.name) as session:
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:  # argparse-style programs may exit cleanly
            if exc.code not in (None, 0):
                session.diagnostics.error(
                    "program-exit",
                    f"program exited with status {exc.code}",
                    func=path.name,
                )
        except Exception as exc:  # noqa: BLE001 — a crash is the finding
            session.diagnostics.error(
                "program-crashed",
                f"{type(exc).__name__}: {exc}",
                func=path.name,
            )
        return session.clean, session.render()


def _parse_table(spec: str) -> "tuple[str, tuple[tuple[str, str], ...]]":
    """``orders=user_id:int64,amount:float64`` -> (name, ((col, dtype), ...))."""
    name, _, columns = spec.partition("=")
    if not name or not columns:
        raise argparse.ArgumentTypeError(
            f"table spec {spec!r} must look like name=col:dtype,col:dtype"
        )
    parsed = []
    for column in columns.split(","):
        col_name, _, dtype = column.partition(":")
        if not col_name or not dtype:
            raise argparse.ArgumentTypeError(
                f"column {column!r} in {spec!r} must look like col:dtype"
            )
        parsed.append((col_name.strip(), dtype.strip()))
    return name.strip(), tuple(parsed)


def _lint_sql(query: str, table_specs: List[str]) -> "tuple[bool, str]":
    from ..frontends.sql.planner import sql_to_ir
    from ..ir.lowering import optimize_and_lower
    from ..ir.types import FrameType

    catalog: Dict[str, FrameType] = {}
    for spec in table_specs:
        name, columns = _parse_table(spec)
        catalog[name] = FrameType(columns)

    with analysis_session(name="sql") as session:
        try:
            lowered = optimize_and_lower(sql_to_ir(query, catalog))
            session.record_function(lowered)
        except Exception as exc:  # noqa: BLE001 — planning errors are findings
            session.diagnostics.error(
                "planning-failed", f"{type(exc).__name__}: {exc}", func="sql"
            )
        return session.clean, session.render()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis over IR pipelines and physical plans.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="Python programs (or directories of them) to run under analysis",
    )
    parser.add_argument("--sql", help="lint one SQL query instead of programs")
    parser.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=COL:DTYPE,...",
        help="table schema for --sql (repeatable)",
    )
    args = parser.parse_args(argv)

    if args.sql is None and not args.paths:
        parser.error("give program paths, or --sql QUERY --table ...")

    failures = 0
    if args.sql is not None:
        clean, report = _lint_sql(args.sql, args.table)
        print(report)
        failures += 0 if clean else 1

    for path in _expand_targets(args.paths):
        if not path.exists():
            print(f"error[no-such-file]: {path}")
            failures += 1
            continue
        if path.suffix == ".json":
            print(
                f"error[not-a-program]: {path}: "
                "sanitize a dist trace with python -m repro.analysis.dist"
            )
            failures += 1
            continue
        clean, report = _lint_program(path)
        print(report)
        failures += 0 if clean else 1

    return 0 if failures == 0 else 1
