"""Lint rules: each fires on the pattern it names, and the optimized
pipeline output is always clean (no false positives after the passes ran)."""

import numpy as np

from repro.analysis import lint_function
from repro.ir import Builder, PassManager
from repro.ir.types import TensorType


def _tensor(n=4):
    return TensorType((n,), "float64")


def test_dead_value_rule():
    b = Builder("f")
    x = b.add_param("x", _tensor())
    b.emit("linalg", "exp", [x])  # dead
    relu = b.emit("linalg", "relu", [x])
    func = b.ret(relu.result())
    diags = lint_function(func)
    assert "dead-value" in diags.codes()
    assert all(d.severity.name == "WARNING" for d in diags)


def test_dead_opaque_call_is_not_reported():
    b = Builder("f")
    x = b.add_param("x", _tensor())
    b.emit("kernel", "call", [x], {"kernel": "blackbox", "result_type": _tensor()})
    relu = b.emit("linalg", "relu", [x])
    func = b.ret(relu.result())
    assert "dead-value" not in lint_function(func).codes()


def test_redundant_materialization_rule():
    b = Builder("f")
    x = b.add_param("x", _tensor())
    a1 = b.emit("linalg", "add", [x, x])
    a2 = b.emit("linalg", "add", [x, x])  # identical recompute
    s = b.emit("linalg", "mul", [a1.result(), a2.result()])
    func = b.ret(s.result())
    diags = lint_function(func)
    assert "redundant-materialization" in diags.codes()
    [finding] = diags.by_code("redundant-materialization")
    assert "op#0" in finding.message


def test_refusable_fusion_rule():
    b = Builder("f")
    x = b.add_param("x", _tensor())
    add = b.emit("linalg", "add", [x, x])
    relu = b.emit("linalg", "relu", [add.result()])
    func = b.ret(relu.result())
    diags = lint_function(func)
    assert "refusable-fusion" in diags.codes()


def test_fusion_not_reported_when_value_has_many_uses():
    b = Builder("f")
    x = b.add_param("x", _tensor())
    add = b.emit("linalg", "add", [x, x])
    r1 = b.emit("linalg", "relu", [add.result()])
    r2 = b.emit("linalg", "exp", [add.result()])
    s = b.emit("linalg", "mul", [r1.result(), r2.result()])
    func = b.ret(s.result())
    # add's result feeds two consumers: fusing would duplicate work
    findings = lint_function(func).by_code("refusable-fusion")
    assert all("add" not in d.message for d in findings)


def test_constant_foldable_rule():
    b = Builder("f")
    c1 = b.emit("linalg", "constant", attrs={"value": np.ones(3)})
    c2 = b.emit("linalg", "constant", attrs={"value": np.ones(3)})
    add = b.emit("linalg", "add", [c1.result(), c2.result()])
    func = b.ret(add.result())
    assert "constant-foldable" in lint_function(func).codes()


def test_optimized_pipeline_output_is_lint_clean():
    """After the default passes run to fixpoint, every rule must be quiet —
    each lint rule is 'a pass would have fixed this'."""
    b = Builder("f")
    x = b.add_param("x", _tensor())
    c1 = b.emit("linalg", "constant", attrs={"value": np.ones(4)})
    c2 = b.emit("linalg", "constant", attrs={"value": np.full(4, 2.0)})
    folded = b.emit("linalg", "add", [c1.result(), c2.result()])
    b.emit("linalg", "exp", [x])  # dead
    a1 = b.emit("linalg", "add", [x, folded.result()])
    a2 = b.emit("linalg", "add", [x, folded.result()])  # CSE fodder
    m = b.emit("linalg", "mul", [a1.result(), a2.result()])
    relu = b.emit("linalg", "relu", [m.result()])
    func = b.ret(relu.result())

    assert lint_function(func)  # plenty to complain about before
    PassManager().run(func)
    after = lint_function(func)
    assert not after, after.render()
