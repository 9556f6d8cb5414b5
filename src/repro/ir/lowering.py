"""Dialect lowering: relational -> df.

The access layer "collectively lowers" domain declarations "onto one
logical graph" (§1); within the IR that means rewriting the logical
``relational`` ops into physical ``df`` ops (algorithm choices become
explicit: joins become hash joins).  Annotating each op with a hardware
backend is :func:`repro.ir.backends.select_backends`.
"""

from __future__ import annotations

from typing import Dict, Optional

from .core import Builder, Function, Value
from .passes import PassManager
from .relational_passes import relational_optimizer

__all__ = [
    "lower_relational_to_df",
    "optimize_and_lower",
    "RELATIONAL_TO_DF",
]

RELATIONAL_TO_DF: Dict[str, str] = {
    "scan": "source",
    "filter": "where",
    "project": "select",
    "join": "hash_join",
    "aggregate": "hash_aggregate",
    "sort": "sort",
    "limit": "limit",
    "distinct": "distinct",
}


def lower_relational_to_df(func: Function, name: Optional[str] = None) -> Function:
    """Rewrite every relational op into its physical df counterpart."""
    builder = Builder(name or f"{func.name}_df")
    mapping: Dict[int, Value] = {}
    for param in func.params:
        mapping[id(param)] = builder.add_param(param.name, param.type)
    for op in func.ops:
        operands = [mapping[id(v)] for v in op.operands]
        if op.dialect == "relational":
            target = RELATIONAL_TO_DF.get(op.name)
            if target is None:
                raise KeyError(f"no df lowering for relational.{op.name}")
            new_op = builder.emit("df", target, operands, dict(op.attrs))
        else:
            new_op = builder.emit(op.dialect, op.name, operands, dict(op.attrs))
        for old, new in zip(op.results, new_op.results, strict=False):
            mapping[id(old)] = new
    lowered = builder.ret(*[mapping[id(v)] for v in func.returns])
    lowered.verify()
    return lowered


def optimize_and_lower(func: Function) -> Function:
    """The IR half of planning a query, spelled once: the relational rules
    rewrite ``func`` in place (filter pushdown shrinks the shuffles, column
    pruning the scans), lowering builds the df function, and the generic
    dialect-agnostic passes optimize that."""
    PassManager(relational_optimizer()).run(func)
    lowered = lower_relational_to_df(func)
    PassManager().run(lowered)
    return lowered

