"""Graph-level optimization passes over IR functions.

§2.2: "A common IR enables graph-level optimizations such as op-fusing
across application domains, in contrast to being confined within one
domain."  ``FuseElementwise`` is exactly that: it fuses elementwise chains
regardless of which dialect (df, linalg) each op came from, so a SQL-derived
``df.where`` can fuse with an ML-derived ``linalg.relu`` in one kernel.
"""

from __future__ import annotations

import difflib
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .core import Function, IRVerificationError, Operation, Value, def_use, is_pure
from .dialects.kernel import FusedStep
from .types import IRType

__all__ = [
    "Pass",
    "PassManager",
    "DeadCodeElimination",
    "CommonSubexpressionElimination",
    "ConstantFold",
    "FuseElementwise",
    "PassStats",
    "MiscompileError",
]


@dataclass
class PassStats:
    ops_removed: int = 0
    ops_fused: int = 0
    iterations: int = 0
    # per-pass breakdown (pass name -> its own PassStats), so a caller can
    # tell exactly which pass did what — and the bisection mode can name
    # the guilty one instead of pointing at the aggregate
    per_pass: Dict[str, "PassStats"] = field(default_factory=dict)

    def for_pass(self, name: str) -> "PassStats":
        if name not in self.per_pass:
            self.per_pass[name] = PassStats()
        return self.per_pass[name]

    def aggregate(self) -> None:
        """Fold the per-pass counters back into the top-level fields."""
        self.ops_removed = sum(s.ops_removed for s in self.per_pass.values())
        self.ops_fused = sum(s.ops_fused for s in self.per_pass.values())


class _Observer(threading.local):
    """The thread's analysis session, when one is active.  The session
    (``repro.analysis.analysis_session``) installs itself here and the
    pipeline's hooks — :class:`PassManager`, ``Skadi``, the plan launcher —
    report to it, so the IR never imports the analysis layer."""

    session: Any = None


OBSERVER = _Observer()


class MiscompileError(IRVerificationError):
    """Raised in verify-after-each-pass mode: names the first pass whose
    rewrite broke an IR invariant, with the IR before and after it ran."""

    def __init__(
        self,
        pass_name: str,
        function_name: str,
        iteration: int,
        cause: str,
        before_text: str,
        after_text: str,
    ):
        self.pass_name = pass_name
        self.function_name = function_name
        self.iteration = iteration
        self.cause = cause
        self.before_text = before_text
        self.after_text = after_text
        super().__init__(
            f"pass {pass_name!r} miscompiled {function_name!r} "
            f"(iteration {iteration}): {cause}"
        )

    def diff(self) -> str:
        """Unified diff of the guilty rewrite (before vs after the pass)."""
        return "".join(
            difflib.unified_diff(
                self.before_text.splitlines(keepends=True),
                self.after_text.splitlines(keepends=True),
                fromfile=f"{self.function_name} (before {self.pass_name})",
                tofile=f"{self.function_name} (after {self.pass_name})",
                lineterm="\n",
            )
        )

    def render(self) -> str:
        return (
            f"miscompile: pass {self.pass_name!r} broke {self.function_name!r} "
            f"on iteration {self.iteration}\n"
            f"invariant: {self.cause}\n"
            f"{self.diff()}"
        )


class Pass:
    name = "pass"

    def run(self, func: Function, stats: PassStats) -> bool:
        """Apply once; return True when the function changed."""
        raise NotImplementedError


def _replace_uses(func: Function, old: Value, new: Value, after_index: int) -> None:
    for op in func.ops[after_index:]:
        op.operands = [new if v is old else v for v in op.operands]
    func.returns = [new if v is old else v for v in func.returns]


class DeadCodeElimination(Pass):
    """Drop pure ops whose results are never used; impure ops (opaque
    kernel calls) stay even when dead — we cannot see their effects."""

    name = "dce"

    def run(self, func: Function, stats: PassStats) -> bool:
        kept = [func.ops[index] for index in func.must_execute()]
        removed = len(func.ops) - len(kept)
        if not removed:
            return False
        kept.reverse()
        func.ops = kept
        stats.ops_removed += removed
        return True


def _attr_key(attrs: Dict[str, Any]) -> str:
    return repr(sorted(attrs.items(), key=lambda kv: kv[0]))


class CommonSubexpressionElimination(Pass):
    """Reuse the result of structurally identical pure ops."""

    name = "cse"

    def run(self, func: Function, stats: PassStats) -> bool:
        seen: Dict[Tuple[str, Tuple[int, ...], str], Value] = {}
        changed = False
        kept: List[Operation] = []
        for index, op in enumerate(func.ops):
            if not is_pure(op):
                kept.append(op)  # opaque calls are never merged
                continue
            key = (
                op.qualified,
                tuple(id(v) for v in op.operands),
                _attr_key(op.attrs),
            )
            prior = seen.get(key)
            if prior is not None and len(op.results) == 1:
                _replace_uses(func, op.results[0], prior, index)
                stats.ops_removed += 1
                changed = True
                continue
            if len(op.results) == 1:
                seen[key] = op.results[0]
            kept.append(op)
        func.ops = kept
        return changed


class ConstantFold(Pass):
    """Evaluate linalg ops whose operands are all constants at compile time."""

    name = "constant-fold"

    _FOLDABLE_DIALECTS = ("linalg",)

    def run(self, func: Function, stats: PassStats) -> bool:
        from .interpreter import execute_op  # local import: avoid cycle
        from .types import TensorType

        changed = False
        for _index, op in enumerate(list(func.ops)):
            if op.dialect not in self._FOLDABLE_DIALECTS:
                continue
            if op.name == "constant" or len(op.results) != 1:
                continue
            producers = [v.producer for v in op.operands]
            if not producers or any(
                p is None or p.qualified != "linalg.constant" for p in producers
            ):
                continue
            operand_values = [p.attrs["value"] for p in producers]
            try:
                value = execute_op(op, operand_values)
            except Exception:
                continue  # leave anything surprising alone
            import numpy as np

            value = np.asarray(value)
            folded = Operation(
                "linalg",
                "constant",
                [],
                {"value": value},
            )
            result = op.results[0]
            # refresh the result type: folding pins dynamic dims
            result.type = TensorType(value.shape, value.dtype.name)
            result.producer = folded
            folded.results = [result]
            func.ops[func.ops.index(op)] = folded
            stats.ops_removed += 1
            changed = True
        return changed


def _as_fused(op: Operation) -> Tuple[List[Value], List[FusedStep], IRType]:
    """Canonical fused view of an op: (operands, steps, result_type)."""
    if op.qualified == "kernel.fused":
        return list(op.operands), list(op.attrs["steps"]), op.attrs["result_type"]
    step = FusedStep(
        op.dialect,
        op.name,
        tuple(range(len(op.operands))),
        tuple(sorted(op.attrs.items(), key=lambda kv: kv[0])),
    )
    return list(op.operands), [step], op.results[0].type


def _fusable(op: Operation) -> bool:
    defn = op.defn
    return defn is not None and (defn.elementwise or op.qualified == "kernel.fused")


class FuseElementwise(Pass):
    """Fuse producer->consumer chains of elementwise ops across dialects."""

    name = "fuse-elementwise"

    def run(self, func: Function, stats: PassStats) -> bool:
        use_sites = def_use(func).use_sites
        for _ci, consumer in enumerate(func.ops):
            if not _fusable(consumer):
                continue
            for value in list(consumer.operands):
                producer = value.producer
                if producer is None or not _fusable(producer):
                    continue
                # the producer's result must feed only this consumer
                if len(use_sites.get(id(value), ())) != 1 or value in func.returns:
                    continue
                self._merge(func, producer, consumer, value)
                stats.ops_fused += 1
                return True  # restart scan: op list changed
        return False

    def _merge(
        self, func: Function, producer: Operation, consumer: Operation, via: Value
    ) -> None:
        p_operands, p_steps, _ = _as_fused(producer)
        c_operands, c_steps, result_type = _as_fused(consumer)
        j = c_operands.index(via)

        new_operands = list(p_operands)
        c_map: Dict[int, int] = {}
        for i, operand in enumerate(c_operands):
            if i == j:
                continue
            try:
                c_map[i] = new_operands.index(operand)  # dedupe shared inputs
            except ValueError:
                c_map[i] = len(new_operands)
                new_operands.append(operand)

        produced_step_ref = -len(p_steps)  # ref to last producer step
        new_steps = list(p_steps)
        for step in c_steps:
            refs = []
            for ref in step.operand_refs:
                if ref >= 0:
                    refs.append(produced_step_ref if ref == j else c_map[ref])
                else:
                    step_index = -ref - 1
                    refs.append(-(step_index + len(p_steps) + 1))
            new_steps.append(FusedStep(step.dialect, step.name, tuple(refs), step.attrs))

        fused = Operation(
            "kernel",
            "fused",
            new_operands,
            {"steps": tuple(new_steps), "result_type": result_type},
        )
        result = consumer.results[0]
        result.producer = fused
        fused.results = [result]

        ops: List[Operation] = []
        for op in func.ops:
            if op is producer:
                continue
            ops.append(fused if op is consumer else op)
        func.ops = ops


class PassManager:
    """Run passes to fixpoint (bounded); collects per-pass statistics.

    With ``verify_each`` the manager re-verifies the function after every
    individual pass application and raises :class:`MiscompileError` naming
    the exact pass that first broke an invariant — pass-level miscompile
    bisection, for free, at the cost of one verify per rewrite.
    """

    def __init__(
        self,
        passes: Optional[List[Pass]] = None,
        max_iterations: int = 50,
        verify_each: bool = False,
    ):
        self.passes = passes or [
            ConstantFold(),
            CommonSubexpressionElimination(),
            FuseElementwise(),
            DeadCodeElimination(),
        ]
        self.max_iterations = max_iterations
        self.verify_each = verify_each

    def run(self, func: Function, verify_each: Optional[bool] = None) -> PassStats:
        session = OBSERVER.session
        if verify_each is None:
            # an active analysis session forces verify-after-each-pass everywhere
            verify_each = self.verify_each or session is not None
        stats = PassStats()
        try:
            for iteration in range(self.max_iterations):
                changed = False
                for p in self.passes:
                    sub = stats.for_pass(p.name)
                    while self._apply(p, func, sub, iteration, verify_each):
                        changed = True
                stats.iterations = iteration + 1
                if not changed:
                    break
            func.verify()
        except MiscompileError as exc:
            if session is not None:
                session.record_miscompile(exc)
            raise
        stats.aggregate()
        return stats

    def _apply(
        self, p: Pass, func: Function, sub: PassStats, iteration: int, verify_each: bool
    ) -> bool:
        if not verify_each:
            return p.run(func, sub)
        before = func.to_text()
        changed = p.run(func, sub)
        if not changed:
            return False
        try:
            func.verify()
        except MiscompileError:
            raise
        except IRVerificationError as exc:
            raise MiscompileError(
                pass_name=p.name,
                function_name=func.name,
                iteration=iteration,
                cause=str(exc),
                before_text=before,
                after_text=func.to_text(),
            ) from exc
        return True
