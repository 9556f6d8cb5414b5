"""Pass-level miscompile bisection.

When an optimized program is wrong, the question is never "is the pipeline
broken" but "*which pass* broke it".  ``PassManager(verify_each=True)``
already answers that by verifying after every individual pass application
and raising :class:`MiscompileError` naming the first offender, with the IR
diff across the guilty rewrite (``diff()`` / ``render()``); this module adds
a non-destructive entry point that works on a clone of the function.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.core import Function, Operation, Value
from ..ir.passes import MiscompileError, Pass, PassManager

__all__ = ["bisect_miscompile", "clone_function"]


def clone_function(func: Function) -> Function:
    """Structural deep copy: fresh Value/Operation objects, shared attrs.

    Values are identified by object id, so passes mutate functions in
    place; cloning first lets the bisector run the (possibly broken)
    pipeline without destroying the caller's IR."""
    mapping: Dict[int, Value] = {}

    def remap(value: Value) -> Value:
        copy = mapping.get(id(value))
        if copy is None:
            copy = Value(value.name, value.type)
            mapping[id(value)] = copy
        return copy

    clone = Function(func.name, [remap(p) for p in func.params])
    for op in func.ops:
        new_op = Operation(op.dialect, op.name, [remap(v) for v in op.operands], dict(op.attrs))
        new_op.results = [remap(v) for v in op.results]
        for result in new_op.results:
            result.producer = new_op
        clone.ops.append(new_op)
    clone.returns = [remap(v) for v in func.returns]
    return clone


def bisect_miscompile(
    func: Function,
    passes: Optional[List[Pass]] = None,
    max_iterations: int = 50,
    in_place: bool = False,
) -> Optional[MiscompileError]:
    """Run the pipeline with verify-after-each-pass and return the error
    naming the first invariant-breaking pass, or None when it is clean.

    By default the pipeline runs on a clone, so the input function is left
    untouched whatever happens; pass ``in_place=True`` to keep the (partly
    optimized, possibly broken) IR for inspection."""
    target = func if in_place else clone_function(func)
    manager = PassManager(passes, max_iterations=max_iterations, verify_each=True)
    try:
        manager.run(target)
    except MiscompileError as exc:
        return exc
    return None
