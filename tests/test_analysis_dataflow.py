"""Def-use chains (``repro.ir.core.def_use``), the dataflow fact the passes
and the linter read."""

from repro.ir import Builder
from repro.ir.core import PARAM_SITE, def_use
from repro.ir.types import TensorType


def _tensor(n=4):
    return TensorType((n,), "float64")


def _sample():
    """x -> add(x,x) -> relu -> return, plus a dead exp and an opaque call."""
    b = Builder("sample")
    x = b.add_param("x", _tensor())
    add = b.emit("linalg", "add", [x, x])
    dead = b.emit("linalg", "exp", [x])
    call = b.emit(
        "kernel", "call", [add.result()], {"kernel": "blackbox", "result_type": _tensor()}
    )
    relu = b.emit("linalg", "relu", [add.result()])
    func = b.ret(relu.result())
    return func, x, add, dead, call, relu


# -- def-use ---------------------------------------------------------------------


def test_def_sites_cover_params_and_ops():
    func, x, add, dead, call, relu = _sample()
    chains = def_use(func)
    assert chains.def_site[id(x)] == PARAM_SITE
    assert chains.def_site[id(add.result())] == 0
    assert chains.def_site[id(relu.result())] == 3


def test_use_sites_and_returns():
    func, x, add, dead, call, relu = _sample()
    chains = def_use(func)
    assert chains.use_sites[id(x)] == [0, 0, 1]  # both add operands + exp
    assert chains.use_sites[id(add.result())] == [2, 3]
    assert id(relu.result()) in chains.returned
    assert not chains.is_dead(relu.result())


def test_dead_results_found():
    func, x, add, dead, call, relu = _sample()
    chains = def_use(func)
    dead_entries = [
        (index, op) for index, op in enumerate(func.ops) if chains.is_dead(op.result())
    ]
    # the opaque call's result is also unused (but that is lint's concern)
    assert dead_entries == [(1, dead), (2, call)]


def test_is_dead_covers_params_and_returns():
    """A parameter nothing reads is dead, a returned one is not, even when no
    op reads it: the returns count as a use."""
    b = Builder("params")
    unused = b.add_param("unused", _tensor())
    passthrough = b.add_param("passthrough", _tensor())
    read = b.add_param("read", _tensor())
    relu = b.emit("linalg", "relu", [read])
    func = b.ret(passthrough, relu.result())
    chains = def_use(func)
    assert [chains.is_dead(p) for p in (unused, passthrough, read)] == [True, False, False]
    assert not chains.is_dead(relu.result())
    assert chains.def_site[id(unused)] == PARAM_SITE
