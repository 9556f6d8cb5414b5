"""Dataflow facts: def-use, liveness, reaching defs, buffer effects."""

from repro.analysis import buffer_effects, def_use
from repro.analysis.dataflow import PARAM_SITE
from repro.ir import Builder
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
    assert chains.uses_of(x) == [0, 0, 1]  # both add operands + exp
    assert chains.uses_of(add.result()) == [2, 3]
    assert id(relu.result()) in chains.returned
    assert not chains.is_dead(relu.result())


def test_dead_results_found():
    func, x, add, dead, call, relu = _sample()
    chains = def_use(func)
    dead_entries = chains.dead_results()
    assert (1, dead, dead.result()) in dead_entries
    # the opaque call's result is also unused (but that is lint's concern)
    assert any(op is call for _, op, _ in dead_entries)


# -- liveness --------------------------------------------------------------------


def test_liveness_backward():
    func, x, add, dead, call, relu = _sample()
    chains = def_use(func)
    # before op0 (add): x is live, add's result not yet defined
    assert chains.live_after(-1, x)
    assert not chains.live_after(-1, add.result())
    # add's result stays live until relu consumes it
    assert chains.live_after(0, add.result())
    assert chains.live_after(2, add.result())
    assert not chains.live_after(3, add.result())
    # the returned value is live at the exit
    assert chains.live_after(3, relu.result())


def test_liveness_kills_definitions():
    func, x, add, dead, call, relu = _sample()
    chains = def_use(func)
    # before its definition the relu result is not live anywhere
    assert not any(chains.live_after(i, relu.result()) for i in range(-1, 3))
    # and a value read by nobody is never live
    assert not any(chains.live_after(i, dead.result()) for i in range(4))


# -- reaching definitions --------------------------------------------------------


def test_reaching_definitions_prefix_property():
    func, x, add, dead, call, relu = _sample()
    chains = def_use(func)
    assert chains.reaches(0, x)
    assert not chains.reaches(0, add.result())
    assert chains.reaches(1, add.result())
    assert chains.reaches(3, add.result())
    # in SSA nothing is killed: everything defined reaches the end
    assert chains.reaches(len(func.ops), x)
    assert chains.reaches(len(func.ops), relu.result())


def test_reaching_matches_verifier_def_before_use():
    """reaches(i, operand) is exactly the verifier's legality rule."""
    func, *_ = _sample()
    chains = def_use(func)
    for index, op in enumerate(func.ops):
        for operand in op.operands:
            assert chains.reaches(index, operand)
    func.ops.reverse()  # relu now reads add's result before it exists
    chains = def_use(func)
    assert not chains.reaches(0, func.ops[0].operands[0])
    assert "use-before-def" in {code for code, _, _ in func.findings()}


# -- buffer effects / aliasing ---------------------------------------------------


def test_pure_ops_write_fresh_buffers():
    func, x, add, dead, call, relu = _sample()
    summary = buffer_effects(func)
    effect = summary.effect_of(0)
    assert not effect.opaque
    assert effect.reads == (id(x), id(x))
    assert effect.writes == (id(add.result()),)
    assert not summary.aliases.may_alias(x, add.result())


def test_opaque_call_may_alias_operands():
    func, x, add, dead, call, relu = _sample()
    summary = buffer_effects(func)
    effect = summary.effect_of(2)
    assert effect.opaque
    assert id(add.result()) in effect.writes  # may mutate its input
    assert summary.aliases.may_alias(call.result(), add.result())
    assert not summary.aliases.may_alias(call.result(), x)
    assert summary.opaque_ops() == [effect]


def test_alias_is_reflexive():
    func, x, *_ = _sample()
    summary = buffer_effects(func)
    assert summary.aliases.may_alias(x, x)
