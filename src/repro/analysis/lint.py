"""Lint rules: things that are *legal* IR but leave performance on the table.

Each rule corresponds to an optimization the pass pipeline would perform —
so on post-pipeline IR the linter should be silent, and a warning means
either the pipeline was skipped or a pass regressed.  Rules:

* ``dead-value`` — a pure op's result is never used (DCE fodder)
* ``redundant-materialization`` — two structurally identical pure ops
  (CSE fodder: the value is computed, and materialized, twice)
* ``refusable-fusion`` — an elementwise producer feeding a single
  elementwise consumer (FuseElementwise fodder: two launches, one kernel)
* ``constant-foldable`` — a foldable op whose operands are all constants
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..ir.core import Function, def_use, is_pure
from ..ir.passes import _attr_key, _fusable
from .diagnostics import DiagnosticSet

__all__ = ["lint_function"]

DEAD_VALUE = "dead-value"
REDUNDANT_MATERIALIZATION = "redundant-materialization"
REFUSABLE_FUSION = "refusable-fusion"
CONSTANT_FOLDABLE = "constant-foldable"


def lint_function(func: Function, diags: Optional[DiagnosticSet] = None) -> DiagnosticSet:
    """All four rules in one walk over the ops.  The linter runs inside every
    strict pipeline, so the clean-function path — one dialect lookup per op,
    no text rendering — is kept as tight as the verifier's."""
    diags = diags if diags is not None else DiagnosticSet()
    chains = def_use(func)
    use_sites = chains.use_sites
    returned = chains.returned
    # redundant-materialization state: cheap key -> first op index, widened
    # to {attr_key: first index} only when a cheap key actually collides
    cse_groups: Dict[Tuple[str, Tuple[int, ...]], object] = {}

    for index, op in enumerate(func.ops):
        if is_pure(op):  # an unknown op is impure: the verifier reports it
            for value in op.results:
                if chains.is_dead(value):
                    diags.warning(
                        DEAD_VALUE,
                        f"result {value!r} of {op.qualified} is never used",
                        func=func.name,
                        op_index=index,
                        op_text=op.to_text(),
                        hint="run DeadCodeElimination or drop the op",
                    )

            if len(op.results) == 1:
                key = (op.qualified, tuple(id(v) for v in op.operands))
                entry = cse_groups.get(key)
                if entry is None:
                    cse_groups[key] = index
                else:
                    if isinstance(entry, int):
                        first_op = func.ops[entry]
                        entry = {
                            (_attr_key(first_op.attrs) if first_op.attrs else ""): entry
                        }
                        cse_groups[key] = entry
                    attr_key = _attr_key(op.attrs) if op.attrs else ""
                    first = entry.get(attr_key)
                    if first is not None:
                        diags.warning(
                            REDUNDANT_MATERIALIZATION,
                            f"{op.qualified} recomputes (and rematerializes) the "
                            f"value already produced by op#{first}",
                            func=func.name,
                            op_index=index,
                            op_text=op.to_text(),
                            hint="run CommonSubexpressionElimination or reuse "
                            f"op#{first}'s result",
                        )
                    else:
                        entry[attr_key] = index

        if _fusable(op):
            for value in op.operands:
                producer = value.producer
                if producer is None or not _fusable(producer):
                    continue
                if len(use_sites.get(id(value), ())) != 1 or id(value) in returned:
                    continue  # result feeds several consumers: fusion blocked
                diags.warning(
                    REFUSABLE_FUSION,
                    f"elementwise chain {producer.qualified} -> {op.qualified} "
                    "is unfused (two kernel launches where one would do)",
                    func=func.name,
                    op_index=index,
                    op_text=op.to_text(),
                    hint="run FuseElementwise",
                )
                break  # one report per consumer is enough

        if (
            op.dialect == "linalg"
            and op.name != "constant"
            and len(op.results) == 1
            and op.operands
            and all(
                v.producer is not None and v.producer.qualified == "linalg.constant"
                for v in op.operands
            )
        ):
            diags.warning(
                CONSTANT_FOLDABLE,
                f"{op.qualified} consumes only constants; it could be folded "
                "at compile time",
                func=func.name,
                op_index=index,
                op_text=op.to_text(),
                hint="run ConstantFold",
            )
    return diags

