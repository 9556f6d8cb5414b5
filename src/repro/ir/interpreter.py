"""Reference interpreter: execute an IR function over numpy values.

Used three ways: as the execution body of FlowGraph vertices, as the
equivalence oracle for lowering/optimization passes (optimized and
unoptimized functions must produce identical results), and directly by the
examples.

A ``kernel.fused`` op runs its steps one after another, except that a chain
of ``where`` steps keeps a selection vector instead of copying the batch at
every step, and a ``select`` that only reads the chain gathers just its own
columns (``_execute_fused``): the same rows, in the same order, as the steps
run one by one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from .core import Function, Operation
from .dialects.kernel import FusedStep
from .kernels import HANDCRAFTED, KERNELS, k_filter, k_project, where_rows

__all__ = ["Interpreter", "run_function", "execute_op"]


def execute_op(
    op: Operation,
    operand_values: Sequence[Any],
    tables: Optional[Mapping[str, Any]] = None,
) -> Any:
    """Execute one op given already-evaluated operand values."""
    key = (op.dialect, op.name)
    if key == ("kernel", "fused"):
        return _execute_fused(op.attrs["steps"], operand_values, tables)
    if key == ("kernel", "call"):
        fn = HANDCRAFTED.get(op.attrs["kernel"])
        if fn is None:
            raise KeyError(f"unknown handcrafted kernel {op.attrs['kernel']!r}")
        return fn(*operand_values, **op.attrs.get("kwargs", {}))
    impl = KERNELS.get(key)
    if impl is None:
        raise KeyError(f"no kernel for {op.qualified}")
    if key in (("relational", "scan"), ("df", "source")):
        return impl(op.attrs, tables=tables or {})
    return impl(op.attrs, *operand_values)


def _execute_fused(
    steps: Sequence[FusedStep],
    operand_values: Sequence[Any],
    tables: Optional[Mapping[str, Any]],
) -> Any:
    """Run the steps in order.  A run of ``where`` steps, each the only reader
    of the one before it, keeps a selection vector (``where_rows``) and
    gathers the batch once at its end; when a ``select`` is the only reader of
    the run, it gathers just the columns that ``select`` reads.  The steps a
    run consumes leave ``None`` behind, which no step reads."""
    readers = [0] * len(steps)
    readers[-1] = 1  # the fused op's result
    for step in steps:
        for ref in step.operand_refs:
            if ref < 0:
                readers[-ref - 1] += 1
    intermediates: List[Any] = []

    def feeds_next(i: int, kernel: Any) -> bool:
        """Step ``i + 1`` is a ``kernel`` step and the only reader of step ``i``."""
        return (
            i + 1 < len(steps)
            and readers[i] == 1
            and steps[i + 1].operand_refs == (-i - 1,)
            and _kernel_of(steps[i + 1]) is kernel
        )

    i = 0
    while i < len(steps):
        step = steps[i]
        impl = _kernel_of(step)
        args = [
            operand_values[ref] if ref >= 0 else intermediates[-ref - 1]
            for ref in step.operand_refs
        ]
        if impl is not k_filter:
            intermediates.append(impl(step.attrs_dict(), *args))
            i += 1
            continue
        first = i
        while feeds_next(i, k_filter):
            i += 1
        (batch,) = args
        rows = where_rows([s.attrs_dict()["pred"] for s in steps[first : i + 1]], batch)
        intermediates.extend([None] * (i - first))
        attrs = steps[i + 1].attrs_dict() if feeds_next(i, k_project) else {}
        read = _read_by_project(attrs)
        if read:  # the select reads only these columns of the run's rows
            intermediates.append(None)
            intermediates.append(k_project(attrs, batch.select(read).take(rows)))
            i += 2
        else:
            intermediates.append(batch.take(rows))
            i += 1
    return intermediates[-1]


def _kernel_of(step: FusedStep) -> Any:
    impl = KERNELS.get((step.dialect, step.name))
    if impl is None:
        raise KeyError(f"no kernel for fused step {step.qualified}")
    return impl


def _read_by_project(attrs: Mapping[str, Any]) -> List[str]:
    """The columns a ``select`` with ``attrs`` reads, each once."""
    names = list(attrs.get("columns", ()))
    for _name, expr, _dtype in attrs.get("derived", ()):
        names.extend(expr.referenced_columns())
    return list(dict.fromkeys(names))


class Interpreter:
    """Executes functions; ``tables`` backs relational.scan/df.source."""

    def __init__(self, tables: Optional[Mapping[str, Any]] = None):
        self.tables = dict(tables or {})

    def run(self, func: Function, inputs: Optional[Mapping[str, Any]] = None) -> List[Any]:
        inputs = dict(inputs or {})
        env: Dict[int, Any] = {}
        for param in func.params:
            if param.name not in inputs:
                raise KeyError(
                    f"missing input {param.name!r} for {func.name}; "
                    f"have {sorted(inputs)}"
                )
            env[id(param)] = inputs[param.name]
        for op in func.ops:
            operand_values = [env[id(v)] for v in op.operands]
            value = execute_op(op, operand_values, tables=self.tables)
            if len(op.results) != 1:
                raise NotImplementedError("multi-result ops not supported")
            env[id(op.results[0])] = value
        missing = [v for v in func.returns if id(v) not in env]
        if missing:
            raise KeyError(f"function returns unevaluated values: {missing}")
        return [env[id(v)] for v in func.returns]


def run_function(
    func: Function,
    inputs: Optional[Mapping[str, Any]] = None,
    tables: Optional[Mapping[str, Any]] = None,
) -> List[Any]:
    return Interpreter(tables).run(func, inputs)
