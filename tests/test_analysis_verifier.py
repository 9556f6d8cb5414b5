"""The IR's one checker in both reporting modes: one deliberately broken
module per rule, flagged by ``verify_function`` and raised by
``Function.verify()``."""

import pytest

from repro.analysis import verify_function
from repro.ir import Builder, FusedStep, IRVerificationError
from repro.ir.core import Function, Operation, Value
from repro.ir.types import TensorType, f64


def _tensor(n=4):
    return TensorType((n,), "float64")


def _chain():
    b = Builder("chain")
    x = b.add_param("x", _tensor())
    add = b.emit("linalg", "add", [x, x])
    relu = b.emit("linalg", "relu", [add.result()])
    return b.ret(relu.result()), x, add, relu


def _raises(func):
    """The raising mode rejects ``func`` too, with the IR's own error."""
    with pytest.raises(IRVerificationError):
        func.verify()


def test_clean_function_has_no_diagnostics():
    func, *_ = _chain()
    assert not verify_function(func)


def test_duplicate_param_value():
    v = Value("x", _tensor())
    func = Function("f", [v, v])
    diags = verify_function(func)
    assert "duplicate-param" in diags.codes()
    _raises(func)


def test_duplicate_param_name():
    func = Function("f", [Value("x", _tensor()), Value("x", _tensor())])
    assert "duplicate-param" in verify_function(func).codes()
    _raises(func)


def test_unknown_op():
    func, x, *_ = _chain()
    ghost = Operation("nope", "mystery", [x], {})
    ghost.results = [Value("g", _tensor(), producer=ghost)]
    func.ops.insert(0, ghost)
    diags = verify_function(func)
    assert "unknown-op" in diags.codes()
    assert any("nope.mystery" in d.message for d in diags)
    _raises(func)


def test_operand_arity():
    func, x, add, _ = _chain()
    add.operands.append(x)  # linalg.add wants exactly 2
    diags = verify_function(func)
    assert "operand-arity" in diags.codes()
    _raises(func)


def test_use_before_def():
    func, x, add, relu = _chain()
    func.ops.reverse()  # relu now reads add's result before it exists
    assert "use-before-def" in verify_function(func).codes()
    _raises(func)


def test_cross_function_operand():
    other, _, add_other, _ = _chain()
    func, x, add, _ = _chain()
    add.operands[1] = add_other.result()
    diags = verify_function(func)
    assert "cross-function-operand" in diags.codes()
    assert any("different function" in d.message for d in diags)
    _raises(func)


def test_op_invariant_via_dialect_hook():
    func, x, *_ = _chain()
    bad = Operation(
        "kernel",
        "fused",
        [x],
        {
            "result_type": _tensor(),
            # step 0 reads step 5's buffer, which never exists
            "steps": (FusedStep("linalg", "relu", (-6,)),),
        },
    )
    bad.results = [Value("k", _tensor(), producer=bad)]
    func.ops.insert(0, bad)
    diags = verify_function(func)
    assert "op-invariant" in diags.codes()
    _raises(func)


def test_infer_failed():
    func, x, *_ = _chain()
    bad = Operation("linalg", "add", [x, Value("s", f64)], {})
    bad.results = [Value("r", _tensor(), producer=bad)]
    # parameter-like scalar so the operand itself is defined
    func.params.append(bad.operands[1])
    func.ops.insert(0, bad)
    assert "infer-failed" in verify_function(func).codes()
    _raises(func)


def test_result_arity():
    func, x, add, _ = _chain()
    add.results.append(Value("extra", _tensor(), producer=add))
    assert "result-arity" in verify_function(func).codes()
    _raises(func)


def test_type_mismatch():
    func, x, add, _ = _chain()
    add.result().type = TensorType((99,), "int64")
    diags = verify_function(func)
    assert "type-mismatch" in diags.codes()
    assert any("inference says" in d.message for d in diags)
    _raises(func)


def test_producer_link_broken():
    func, x, add, _ = _chain()
    add.result().producer = None
    assert "producer-link-broken" in verify_function(func).codes()
    _raises(func)


def test_duplicate_result():
    func, x, add, relu = _chain()
    relu.results = [add.result()]  # relu claims to define add's value again
    assert "duplicate-result" in verify_function(func).codes()
    _raises(func)


def test_undefined_return():
    func, *_ = _chain()
    func.returns = [Value("phantom", _tensor())]
    assert "undefined-return" in verify_function(func).codes()
    _raises(func)


def test_op_after_return():
    func, x, *_ = _chain()
    tail = Operation("linalg", "exp", [x], {})
    tail.results = [Value("t", _tensor(), producer=tail)]
    func.ops.append(tail)
    diags = verify_function(func)
    assert "op-after-return" in diags.codes()
    assert any(d.op_index == len(func.ops) - 1 for d in diags)
    _raises(func)


def test_collect_all_reports_every_violation_at_once():
    func, x, add, relu = _chain()
    add.result().type = TensorType((9,), "float64")  # type-mismatch
    func.returns.append(Value("phantom", _tensor()))  # undefined-return
    tail = Operation("linalg", "exp", [x], {})
    tail.results = [Value("t", _tensor(), producer=tail)]
    func.ops.append(tail)  # op-after-return
    diags = verify_function(func)
    codes = diags.codes()
    assert {"type-mismatch", "undefined-return", "op-after-return"} <= set(codes)
    assert len(diags.errors) >= 3


def test_diagnostic_rendering_mentions_op_text_and_hint():
    func, x, add, _ = _chain()
    add.result().type = TensorType((9,), "float64")
    report = verify_function(func).render()
    assert "linalg.add" in report
    assert "hint:" in report
