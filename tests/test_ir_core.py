"""Tests for the SSA core: builder, verifier, printer, types."""

from __future__ import annotations

import pytest

from repro.ir import (
    Builder,
    FrameType,
    IRVerificationError,
    TensorType,
    col,
    lit,
    op_def,
)
from repro.ir.core import Operation, Value


def simple_frame():
    return FrameType((("k", "int64"), ("x", "float64")))


class TestTypes:
    def test_tensor_type_repr_and_elements(self):
        t = TensorType((2, None, 3))
        assert repr(t) == "tensor<2x?x3xfloat64>"
        assert t.num_elements() is None
        assert TensorType((2, 3)).num_elements() == 6
        assert TensorType((), "int64").rank == 0

    def test_tensor_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            TensorType((-1, 2))

    def test_frame_type_columns(self):
        f = simple_frame()
        assert f.names == ("k", "x")
        assert f.dtype_of("x") == "float64"
        assert f.has_column("k") and not f.has_column("z")
        with pytest.raises(KeyError):
            f.dtype_of("z")

    def test_frame_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            FrameType((("a", "int64"), ("a", "int64")))

    def test_type_equality(self):
        assert TensorType((2, 3)) == TensorType((2, 3))
        assert TensorType((2, 3)) != TensorType((3, 2))
        assert simple_frame() == simple_frame()


class TestBuilder:
    def test_emit_infers_result_types(self):
        b = Builder("f")
        scan = b.emit("relational", "scan", (), {"table": "t", "schema": simple_frame()})
        assert scan.result().type == simple_frame()
        filt = b.emit("relational", "filter", [scan.result()], {"pred": col("x") > lit(1)})
        assert isinstance(filt.result().type, FrameType)

    def test_verify_accepts_wellformed(self):
        b = Builder("f")
        scan = b.emit("relational", "scan", (), {"table": "t", "schema": simple_frame()})
        func = b.ret(scan.result())
        func.verify()  # does not raise

    def test_verify_rejects_use_before_def(self):
        b = Builder("f")
        scan = b.emit("relational", "scan", (), {"table": "t", "schema": simple_frame()})
        func = b.ret(scan.result())
        # manufacture an op whose operand was never defined
        ghost = Value("ghost", simple_frame())
        func.ops.append(
            Operation("relational", "filter", [ghost], {"pred": col("x") > lit(0)},)
        )
        func.ops[-1].results = [Value("r", simple_frame())]
        with pytest.raises(IRVerificationError, match="before definition"):
            func.verify()

    def test_verify_rejects_undefined_return(self):
        b = Builder("f")
        b.emit("relational", "scan", (), {"table": "t", "schema": simple_frame()})
        func = b.ret(Value("ghost", simple_frame()))
        with pytest.raises(IRVerificationError, match="undefined value"):
            func.verify()

    def test_verify_rejects_wrong_arity(self):
        b = Builder("f")
        scan1 = b.emit("relational", "scan", (), {"table": "t", "schema": simple_frame()})
        scan2 = b.emit("relational", "scan", (), {"table": "t", "schema": simple_frame()})
        func = b.ret(scan2.result())
        func.ops[1].operands.append(scan1.result())  # scan takes 0 operands
        with pytest.raises(IRVerificationError, match="expects 0 operands"):
            func.verify()

    def test_bad_op_name_raises(self):
        b = Builder("f")
        with pytest.raises(KeyError, match="unknown op"):
            b.emit("relational", "nonsense", (), {})

    def test_infer_failure_propagates(self):
        b = Builder("f")
        with pytest.raises(KeyError, match="'table'"):
            b.emit("relational", "scan", (), {"schema": simple_frame()})


class TestPrinting:
    def test_to_text_round_structure(self):
        b = Builder("q")
        scan = b.emit("relational", "scan", (), {"table": "t", "schema": simple_frame()})
        filt = b.emit("relational", "filter", [scan.result()], {"pred": col("x") > lit(1)})
        func = b.ret(filt.result())
        text = func.to_text()
        assert "func @q()" in text
        assert "relational.scan()" in text
        assert "relational.filter(%v0)" in text
        assert text.strip().endswith("}")
        assert "return %v1" in text

    def test_deterministic_output(self):
        def build():
            b = Builder("q")
            scan = b.emit(
                "relational", "scan", (), {"table": "t", "schema": simple_frame()}
            )
            return b.ret(scan.result()).to_text()

        assert build() == build()


class TestOpRegistry:
    def test_op_def_lookup(self):
        defn = op_def("linalg", "matmul")
        assert defn.qualified == "linalg.matmul"
        assert defn.num_operands == 2
        assert not defn.elementwise

    def test_elementwise_flags(self):
        assert op_def("linalg", "relu").elementwise
        assert op_def("df", "where").elementwise
        assert not op_def("df", "hash_join").elementwise
