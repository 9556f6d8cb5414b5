"""SSA core of the multi-level IR: values, operations, functions.

Mirrors MLIR's structure at the scale this project needs: a flat SSA region
per function, dialect-namespaced operations with attribute dictionaries,
type inference supplied by each dialect's op definitions, a verifier, and a
deterministic textual form used in golden tests.

Each fact about a function is computed here, once: the invariants
(:meth:`Function.findings`, which ``Function.verify`` raises from and
``repro.analysis`` renders), which ops must execute
(:meth:`Function.must_execute`, DCE's walk), whether an op is pure
(:func:`is_pure`), and who defines and reads each value (:func:`def_use`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .types import IRType

__all__ = [
    "Value",
    "Operation",
    "Function",
    "Builder",
    "OpDef",
    "register_op",
    "op_def",
    "is_pure",
    "DefUse",
    "def_use",
    "PARAM_SITE",
    "IRVerificationError",
]


class IRVerificationError(RuntimeError):
    pass


@dataclass(eq=False)
class Value:
    """An SSA value: produced once, used many times."""

    name: str
    type: IRType
    producer: Optional["Operation"] = None

    def __repr__(self) -> str:
        return f"%{self.name}"


# -- op registry ----------------------------------------------------------------

InferFn = Callable[[Sequence[IRType], Dict[str, Any]], List[IRType]]

# Per-op structural invariant: returns an error string, or None when fine.
# This is the dialect's chance to check what type inference cannot see
# (attribute well-formedness, internal references, ...).
VerifyFn = Callable[["Operation"], Optional[str]]


@dataclass(frozen=True)
class OpDef:
    dialect: str
    name: str
    infer: InferFn
    elementwise: bool = False  # fusable into pointwise kernels
    num_operands: Optional[int] = None  # None: variadic
    # Pure ops are freely removable (DCE) and mergeable (CSE); impure ops
    # (opaque handcrafted calls) must stay put even when their result is dead.
    pure: bool = True
    verify: Optional[VerifyFn] = None

    @property
    def qualified(self) -> str:
        return f"{self.dialect}.{self.name}"


_OP_REGISTRY: Dict[Tuple[str, str], OpDef] = {}


def register_op(defn: OpDef) -> OpDef:
    key = (defn.dialect, defn.name)
    if key in _OP_REGISTRY:
        raise ValueError(f"op {defn.qualified} already registered")
    _OP_REGISTRY[key] = defn
    return defn


def op_def(dialect: str, name: str) -> OpDef:
    defn = _OP_REGISTRY.get((dialect, name))
    if defn is None:
        raise KeyError(f"unknown op {dialect}.{name}")
    return defn


@dataclass(eq=False)
class Operation:
    dialect: str
    name: str
    operands: List[Value]
    attrs: Dict[str, Any]
    results: List[Value] = field(default_factory=list)

    @property
    def qualified(self) -> str:
        return f"{self.dialect}.{self.name}"

    @property
    def defn(self) -> Optional[OpDef]:
        """The op's definition, or None when no dialect registers it."""
        return _OP_REGISTRY.get((self.dialect, self.name))

    def result(self, index: int = 0) -> Value:
        return self.results[index]

    def to_text(self) -> str:
        """One printed line of IR, as it appears inside a function body."""
        results = ", ".join(repr(v) for v in self.results)
        operands = ", ".join(repr(v) for v in self.operands)
        attrs = ""
        if self.attrs:
            inner = ", ".join(f"{k}={_fmt_attr(self.attrs[k])}" for k in sorted(self.attrs))
            attrs = f" {{{inner}}}"
        types = ", ".join(repr(v.type) for v in self.results)
        return f"{results} = {self.qualified}({operands}){attrs} : {types}"

    def __repr__(self) -> str:
        ops = ", ".join(repr(v) for v in self.operands)
        return f"{self.qualified}({ops})"


def is_pure(op: Operation) -> bool:
    """Pure ops are freely removable (DCE) and mergeable (CSE).  An op no
    dialect registers counts as impure: nothing is known of its effects."""
    defn = op.defn
    return defn is not None and defn.pure


def _safe_text(op: Operation) -> str:
    try:
        return op.to_text()
    except Exception:  # noqa: BLE001 — a broken op must not break its report
        return repr(op)


# One broken invariant: (code, op index or None for the whole function, message).
Finding = Tuple[str, Optional[int], str]


class Function:
    """A flat SSA function: params, an op list, and returned values."""

    def __init__(self, name: str, params: List[Value]):
        self.name = name
        self.params = params
        self.ops: List[Operation] = []
        self.returns: List[Value] = []

    def verify(self) -> None:
        """Raise the first broken invariant (see :meth:`findings`)."""
        for code, index, message in self.findings():
            where = f": {_safe_text(self.ops[index])}" if index is not None else ""
            raise IRVerificationError(f"{self.name}: [{code}] {message}{where}")

    def findings(self) -> Iterator[Finding]:
        """Every broken invariant, in op order; each code is one invariant:

        ====================== ==================================================
        code                   invariant
        ====================== ==================================================
        duplicate-param        two params share a Value (or a name)
        use-before-def         operand used before any definition in this function
        cross-function-operand operand's producer lives in a different function
        unknown-op             op not in the dialect registry
        operand-arity          operand count differs from the OpDef
        op-invariant           the dialect's per-op ``verify`` hook failed
        infer-failed           type inference itself raised
        result-arity           inference yields a different number of results
        type-mismatch          a result's recorded type differs from inference
        duplicate-result       a Value is defined twice
        producer-link-broken   a result's ``producer`` back-pointer is not its op
        undefined-return       the function returns a value nothing defines
        op-after-return        an op sits past the last op that must execute
        ====================== ==================================================

        Op text is never rendered here: checking a clean function stays as
        cheap as one dialect lookup and one inference per op."""
        params = self.params
        if len({id(p) for p in params}) != len(params):
            yield "duplicate-param", None, "duplicate parameter value"
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            yield "duplicate-param", None, f"duplicate parameter names {names}"
        own_ops: Optional[Set[int]] = None  # built lazily: only errors consult it
        defined = {id(p) for p in params}
        for index, op in enumerate(self.ops):
            for operand in op.operands:
                if id(operand) in defined:
                    continue
                if own_ops is None:
                    own_ops = {id(o) for o in self.ops}
                producer = operand.producer
                if producer is not None and id(producer) not in own_ops:
                    yield "cross-function-operand", index, (
                        f"{op.qualified} operand {operand!r} is defined by a "
                        f"different function (producer {producer.qualified} is "
                        f"not in {self.name!r})"
                    )
                else:
                    yield "use-before-def", index, (
                        f"{op.qualified} uses {operand!r} before definition"
                    )
            defn = op.defn
            if defn is None:
                yield "unknown-op", index, f"{op.qualified} is not registered in any dialect"
                defined.update(id(v) for v in op.results)  # avoid cascades
                continue
            if defn.num_operands is not None and len(op.operands) != defn.num_operands:
                yield "operand-arity", index, (
                    f"{op.qualified} expects {defn.num_operands} operands, "
                    f"got {len(op.operands)}"
                )
            if defn.verify is not None:
                try:
                    problem = defn.verify(op)
                except Exception as exc:  # noqa: BLE001 — hook bugs are findings
                    problem = f"verify hook raised {type(exc).__name__}: {exc}"
                if problem is not None:
                    yield "op-invariant", index, f"{op.qualified}: {problem}"
            inferred = None
            try:
                inferred = defn.infer([v.type for v in op.operands], op.attrs)
            except Exception as exc:  # noqa: BLE001 — inference errors are findings
                yield "infer-failed", index, f"{op.qualified} type inference failed: {exc}"
            if inferred is not None:
                if len(inferred) != len(op.results):
                    yield "result-arity", index, (
                        f"{op.qualified} has {len(op.results)} results, "
                        f"inference says {len(inferred)}"
                    )
                for value, expected in zip(op.results, inferred, strict=False):
                    if value.type != expected:
                        yield "type-mismatch", index, (
                            f"{op.qualified} result {value!r} has type "
                            f"{value.type!r}, inference says {expected!r}"
                        )
            for value in op.results:
                if id(value) in defined:
                    yield "duplicate-result", index, (
                        f"duplicate result value {value!r} (already defined earlier)"
                    )
                defined.add(id(value))
                if value.producer is not op:
                    yield "producer-link-broken", index, (
                        f"result {value!r} does not point back at its defining op"
                    )
        for ret in self.returns:
            if id(ret) not in defined:
                yield "undefined-return", None, f"returns undefined value {ret!r}"
        # The return is the terminator: an op past the last one that must
        # execute can never be observed (typically a builder that kept
        # emitting after ``ret``).  Dead pure ops before it are DCE's job.
        if self.returns:
            last = next(self.must_execute(), -1)
            for index in range(last + 1, len(self.ops)):
                yield "op-after-return", index, (
                    f"{self.ops[index].qualified} appears after the return "
                    "and can never be observed"
                )

    def must_execute(self) -> Iterator[int]:
        """Indices of the ops that must run, last first: the producers of
        returned values, impure ops, and every op feeding one of those.
        DCE keeps exactly these; the first one is where the function ends."""
        live = {id(v) for v in self.returns}
        ops = self.ops
        for index in range(len(ops) - 1, -1, -1):
            op = ops[index]
            if any(id(r) in live for r in op.results) or not is_pure(op):
                live.update(id(v) for v in op.operands)
                yield index

    def to_text(self) -> str:
        lines = []
        params = ", ".join(f"%{p.name}: {p.type!r}" for p in self.params)
        rets = ", ".join(repr(v.type) for v in self.returns)
        lines.append(f"func @{self.name}({params}) -> ({rets}) {{")
        lines.extend(f"  {op.to_text()}" for op in self.ops)
        returns = ", ".join(repr(v) for v in self.returns)
        lines.append(f"  return {returns}")
        lines.append("}")
        return "\n".join(lines)


PARAM_SITE = -1  # def site index meaning "function parameter"


@dataclass
class DefUse:
    """Def-use chains: value id -> def site (op index or PARAM_SITE) and
    the op indices that read it (returns tracked separately)."""

    func: Function
    def_site: Dict[int, int] = field(default_factory=dict)
    use_sites: Dict[int, List[int]] = field(default_factory=dict)
    returned: Set[int] = field(default_factory=set)

    def is_dead(self, value: Value) -> bool:
        return not self.use_sites.get(id(value)) and id(value) not in self.returned


def def_use(func: Function) -> DefUse:
    chains = DefUse(func)
    for param in func.params:
        chains.def_site[id(param)] = PARAM_SITE
    for index, op in enumerate(func.ops):
        for operand in op.operands:
            chains.use_sites.setdefault(id(operand), []).append(index)
        for value in op.results:
            chains.def_site[id(value)] = index
    chains.returned.update(id(v) for v in func.returns)
    return chains


def _fmt_attr(value: Any) -> str:
    if callable(value):
        return getattr(value, "__name__", "fn")
    return repr(value)


class Builder:
    """Append-only construction of a function's SSA body."""

    def __init__(self, name: str):
        self._counter = itertools.count()
        self.function = Function(name, params=[])

    def add_param(self, name: str, type_: IRType) -> Value:
        value = Value(name, type_)
        self.function.params.append(value)
        return value

    def emit(
        self,
        dialect: str,
        name: str,
        operands: Sequence[Value] = (),
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Operation:
        if self.function.returns:
            raise IRVerificationError(
                f"{self.function.name}: cannot emit {dialect}.{name} after the "
                "function already returned"
            )
        defn = op_def(dialect, name)
        attrs = dict(attrs or {})
        result_types = defn.infer([v.type for v in operands], attrs)
        op = Operation(dialect, name, list(operands), attrs)
        op.results = [
            Value(f"v{next(self._counter)}", t, producer=op) for t in result_types
        ]
        self.function.ops.append(op)
        return op

    def ret(self, *values: Value) -> Function:
        self.function.returns = list(values)
        return self.function
