"""Pass-level miscompile attribution and per-pass statistics.

Five deliberately miscompiling passes — each breaking a different
invariant — must each be attributed by name by ``PassManager(verify_each=True)``,
even when interleaved with the healthy pipeline."""

import pytest

from repro.ir import (
    Builder,
    CommonSubexpressionElimination,
    ConstantFold,
    DeadCodeElimination,
    MiscompileError,
    PassManager,
)
from repro.ir.core import Operation, Value
from repro.ir.passes import Pass, PassStats
from repro.ir.types import TensorType


def _tensor(n=4):
    return TensorType((n,), "float64")


def _chain():
    b = Builder("victim")
    x = b.add_param("x", _tensor())
    add = b.emit("linalg", "add", [x, x])
    relu = b.emit("linalg", "relu", [add.result()])
    exp = b.emit("linalg", "exp", [relu.result()])
    return b.ret(exp.result())


class DropsNeededOp(Pass):
    """Miscompile #1: deletes an op whose result is still used."""

    name = "drops-needed-op"

    def run(self, func, stats):
        for index, op in enumerate(func.ops):
            if op.name == "add":
                del func.ops[index]
                return True
        return False


class CorruptsResultType(Pass):
    """Miscompile #2: rewrites a result type behind inference's back."""

    name = "corrupts-result-type"

    def run(self, func, stats):
        for op in func.ops:
            if op.name == "relu" and op.result().type.dtype != "int32":
                op.result().type = TensorType((4,), "int32")
                return True
        return False


class DuplicatesResult(Pass):
    """Miscompile #3: makes two ops claim the same SSA value."""

    name = "duplicates-result"

    def run(self, func, stats):
        for op in func.ops:
            if op.name == "exp" and op.results[0] is not func.ops[0].results[0]:
                op.results = [func.ops[0].results[0]]
                return True
        return False


class BreaksProducerLink(Pass):
    """Miscompile #4: detaches a result from the op that defines it."""

    name = "breaks-producer-link"

    def run(self, func, stats):
        for op in func.ops:
            if op.name == "relu" and op.result().producer is op:
                op.result().producer = None
                return True
        return False


class EmitsUnregisteredOp(Pass):
    """Miscompile #5: inserts an op no dialect registers."""

    name = "emits-unregistered-op"

    def run(self, func, stats):
        if any(op.dialect == "nope" for op in func.ops):
            return False
        ghost = Operation("nope", "mystery", [func.params[0]], {})
        ghost.results = [Value("g", _tensor(), producer=ghost)]
        func.ops.insert(0, ghost)
        return True


@pytest.mark.parametrize(
    "bad_pass, cause_fragment",
    [
        (DropsNeededOp(), "defined by a different function"),
        (CorruptsResultType(), "inference says"),
        (DuplicatesResult(), "duplicate result value"),
        (BreaksProducerLink(), "does not point back at its defining op"),
        (EmitsUnregisteredOp(), "nope.mystery is not registered"),
    ],
    ids=[
        "drops-op", "corrupts-type", "duplicates-result", "breaks-producer-link",
        "emits-unregistered-op",
    ],
)
def test_each_seeded_miscompile_is_attributed(bad_pass, cause_fragment):
    passes = [ConstantFold(), CommonSubexpressionElimination(), bad_pass]
    with pytest.raises(MiscompileError) as info:
        PassManager(passes, verify_each=True).run(_chain())
    assert info.value.pass_name == bad_pass.name
    assert cause_fragment in info.value.cause


def test_report_diff_shows_the_guilty_rewrite():
    with pytest.raises(MiscompileError) as info:
        PassManager([DropsNeededOp()], verify_each=True).run(_chain())
    diff = info.value.diff()
    assert "-  %v0 = linalg.add(%x, %x)" in diff
    assert "before drops-needed-op" in diff
    assert "linalg.add" in info.value.render()
    assert info.value.before_text != info.value.after_text


def test_clean_pipeline_reports_nothing():
    func = _chain()
    stats = PassManager(verify_each=True).run(func)  # raises nothing
    assert stats.ops_fused >= 1  # the healthy pipeline did rewrite the chain
    func.verify()


def test_passmanager_verify_each_raises_named_error():
    func = _chain()
    manager = PassManager(
        [DeadCodeElimination(), CorruptsResultType()], verify_each=True
    )
    with pytest.raises(MiscompileError) as info:
        manager.run(func)
    assert info.value.pass_name == "corrupts-result-type"
    assert info.value.function_name == "victim"
    assert "relu" in info.value.after_text


def test_without_verify_each_the_break_surfaces_late():
    """The contrast verify-after-each-pass exists for: the plain manager only
    notices at the final whole-function verify, with no pass attribution."""
    func = _chain()
    manager = PassManager([CorruptsResultType()])
    with pytest.raises(MiscompileError) as info_each:
        PassManager([CorruptsResultType()], verify_each=True).run(_chain())
    assert info_each.value.pass_name == "corrupts-result-type"
    try:
        manager.run(func)
    except MiscompileError:  # pragma: no cover - would defeat the contrast
        pytest.fail("plain run must not produce a pass-attributed error")
    except Exception as exc:
        assert not isinstance(exc, MiscompileError)


def test_in_place_keeps_broken_ir_for_inspection():
    """Passes rewrite in place: after the error the function holds the
    guilty rewrite, which is what ``after_text`` prints."""
    func = _chain()
    with pytest.raises(MiscompileError) as info:
        PassManager([DropsNeededOp()], verify_each=True).run(func)
    assert all(op.name != "add" for op in func.ops)  # the bad rewrite stuck
    assert func.to_text() == info.value.after_text


class BreaksOnSecondVisit(Pass):
    """Clean on its first run, then drops the op the function returns."""

    name = "breaks-on-second-visit"

    def __init__(self):
        self.visits = 0

    def run(self, func, stats):
        self.visits += 1
        if self.visits < 2:
            return False
        func.ops.pop()
        return True


def test_the_error_names_the_fixpoint_iteration():
    """DCE's rewrite in iteration 0 forces a second sweep, and the breaker
    only strikes in it: the error names iteration 1, not the first."""
    b = Builder("victim")
    x = b.add_param("x", _tensor())
    b.emit("linalg", "exp", [x])  # dead: DCE removes it in iteration 0
    relu = b.emit("linalg", "relu", [x])
    func = b.ret(relu.result())
    manager = PassManager([DeadCodeElimination(), BreaksOnSecondVisit()], verify_each=True)
    with pytest.raises(MiscompileError) as info:
        manager.run(func)
    assert (info.value.pass_name, info.value.iteration) == ("breaks-on-second-visit", 1)
    assert "linalg.exp" not in info.value.before_text  # DCE's rewrite had landed


# -- per-pass statistics (the PassManager satellite) -----------------------------


def test_per_pass_stats_are_separated():
    b = Builder("stats")
    x = b.add_param("x", _tensor())
    b.emit("linalg", "add", [x, x])  # CSE removes this duplicate...
    a2 = b.emit("linalg", "add", [x, x])
    b.emit("linalg", "exp", [x])  # DCE victim
    r = b.emit("linalg", "relu", [a2.result()])  # ...then add+relu fuse
    func = b.ret(r.result())

    stats = PassManager().run(func)
    assert stats.per_pass["cse"].ops_removed >= 1
    assert stats.per_pass["dce"].ops_removed >= 1
    assert stats.per_pass["fuse-elementwise"].ops_fused >= 1
    assert stats.per_pass["constant-fold"].ops_removed == 0
    # the aggregate equals the sum of the per-pass counters
    assert stats.ops_removed == sum(
        s.ops_removed for s in stats.per_pass.values()
    )
    assert stats.ops_fused == sum(s.ops_fused for s in stats.per_pass.values())


def test_for_pass_creates_and_reuses_substats():
    stats = PassStats()
    first = stats.for_pass("dce")
    first.ops_removed = 3
    assert stats.for_pass("dce") is first
    stats.aggregate()
    assert stats.ops_removed == 3
