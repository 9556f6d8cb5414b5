"""Dataflow facts over flat SSA functions.

* :func:`def_use` — def-use chains (where each value is defined and used);
  ``DefUse.live_after`` and ``DefUse.reaches`` answer liveness and reaching
  definitions, which in SSA are one-line questions to the def/use sites.
  The IR computes them (``repro.ir.core``); this module re-exports them.
* :func:`buffer_effects` — read/write/opaque effect summaries plus a
  may-alias relation for the kernel dialect (opaque ``kernel.call`` results
  may alias their operand buffers; everything else produces fresh buffers)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..ir.core import PARAM_SITE, DefUse, Function, Value, def_use, is_pure

__all__ = [
    "DefUse",
    "def_use",
    "PARAM_SITE",
    "Effect",
    "BufferSummary",
    "buffer_effects",
    "AliasSets",
]


# -- buffer effects / aliasing (kernel dialect) ----------------------------------


@dataclass(frozen=True)
class Effect:
    """What one op does to buffers, as far as the analysis can prove.

    ``opaque`` ops (handcrafted ``kernel.call``) may read or write anything
    reachable from their operands; their results may alias operand buffers.
    Everything else reads its operands and writes only fresh result buffers.
    """

    op_index: int
    qualified: str
    reads: Tuple[int, ...]  # value ids read
    writes: Tuple[int, ...]  # value ids (buffers) written
    opaque: bool = False


class AliasSets:
    """Union-find over value ids: ``may_alias(a, b)`` is True when the two
    values may share storage."""

    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}

    def _find(self, x: int) -> int:
        self._parent.setdefault(x, x)
        while self._parent[x] != x:
            self._parent[x] = self._parent[self._parent[x]]
            x = self._parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[rb] = ra

    def may_alias(self, a: Value, b: Value) -> bool:
        if a is b:
            return True
        return self._find(id(a)) == self._find(id(b))


@dataclass
class BufferSummary:
    effects: List[Effect]
    aliases: AliasSets

    def effect_of(self, index: int) -> Effect:
        return self.effects[index]

    def opaque_ops(self) -> List[Effect]:
        return [e for e in self.effects if e.opaque]


def buffer_effects(func: Function) -> BufferSummary:
    """Per-op buffer effect summaries plus the may-alias relation.

    Only ``kernel.call`` is opaque; a fused kernel's internal step buffers
    are private, so its effect is still read-operands/write-result."""
    effects: List[Effect] = []
    aliases = AliasSets()
    for index, op in enumerate(func.ops):
        opaque = not is_pure(op)
        reads = tuple(id(v) for v in op.operands)
        writes = tuple(id(v) for v in op.results)
        if opaque:
            # an opaque kernel may return a view of (or mutate) any operand
            writes = writes + reads
            for result in op.results:
                for operand in op.operands:
                    aliases.union(id(result), id(operand))
        effects.append(Effect(index, op.qualified, reads, writes, opaque))
    return BufferSummary(effects, aliases)
