"""Tests for backend selection and dialect lowering."""

from __future__ import annotations

import pytest

from repro.caching.columnar import RecordBatch
from repro.ir import (
    ALL_BACKENDS,
    CPU_BACKEND,
    FPGA_BACKEND,
    GPU_BACKEND,
    Builder,
    FrameType,
    SelectionPolicy,
    TensorType,
    col,
    estimated_cost,
    lit,
    lower_relational_to_df,
    op_work_elements,
    run_function,
    select_backends,
)


def relational_query():
    b = Builder("q")
    schema = FrameType((("k", "int64"), ("x", "float64")))
    scan = b.emit("relational", "scan", (), {"table": "t", "schema": schema})
    filt = b.emit("relational", "filter", [scan.result()], {"pred": col("x") > lit(0.3)})
    agg = b.emit(
        "relational",
        "aggregate",
        [filt.result()],
        {"keys": ("k",), "aggs": (("s", "sum", "x"),)},
    )
    return b.ret(agg.result())


def matmul_func(m=512, k=512, n=512):
    b = Builder("mm")
    x = b.add_param("x", TensorType((m, k)))
    y = b.add_param("y", TensorType((k, n)))
    mm = b.emit("linalg", "matmul", [x, y])
    return b.ret(mm.result())


class TestLowering:
    def test_relational_ops_become_df_ops(self):
        func = relational_query()
        lowered = lower_relational_to_df(func)
        assert [op.qualified for op in lowered.ops] == [
            "df.source",
            "df.where",
            "df.hash_aggregate",
        ]
        lowered.verify()

    def test_lowering_preserves_semantics(self, rng):
        func = relational_query()
        t = RecordBatch.from_arrays(
            {"k": rng.integers(0, 5, 300), "x": rng.random(300)}
        )
        (before,) = run_function(func, tables={"t": t})
        (after,) = run_function(lower_relational_to_df(func), tables={"t": t})
        assert before == after

    def test_mixed_dialect_passthrough(self):
        b = Builder("m")
        schema = FrameType((("x", "float64"),))
        scan = b.emit("relational", "scan", (), {"table": "t", "schema": schema})
        tensor = b.emit("linalg", "frame_to_tensor", [scan.result()], {"columns": ("x",)})
        func = b.ret(tensor.result())
        lowered = lower_relational_to_df(func)
        assert [op.qualified for op in lowered.ops] == [
            "df.source",
            "linalg.frame_to_tensor",
        ]

    def test_select_backends_annotates_the_lowered_ops(self):
        lowered = lower_relational_to_df(relational_query())
        select_backends(lowered)
        assert all("backend" in op.attrs for op in lowered.ops)


class TestWorkModel:
    def test_matmul_work_is_cubic(self):
        small = matmul_func(10, 10, 10)
        big = matmul_func(100, 100, 100)
        w_small = op_work_elements(small.ops[0])
        w_big = op_work_elements(big.ops[0])
        assert w_big == pytest.approx(w_small * 1000)

    def test_dynamic_dims_use_default(self):
        # a dynamic tensor counts as default_rows elements per value touched
        b = Builder("f")
        x = b.add_param("x", TensorType((None, 4)))
        r = b.emit("linalg", "relu", [x])
        assert op_work_elements(r, default_rows=1000) == 2000.0


class TestSelection:
    def test_cpu_only_policy(self):
        func = matmul_func()
        select_backends(func, policy=SelectionPolicy.CPU_ONLY)
        assert all(op.attrs["backend"] == "cpu" for op in func.ops)

    def test_cheapest_puts_big_matmul_on_gpu(self):
        func = matmul_func(1024, 1024, 1024)
        chosen = select_backends(func, policy=SelectionPolicy.CHEAPEST)
        assert list(chosen.values()) == ["gpu"]

    def test_cheapest_keeps_tiny_op_on_cpu(self):
        # GPU launch overhead dominates a tiny op; predefined rule picks CPU
        func = matmul_func(4, 4, 4)
        chosen = select_backends(func, policy=SelectionPolicy.CHEAPEST)
        assert list(chosen.values()) == ["cpu"]

    def test_prefer_accelerator_overrides_overhead(self):
        func = matmul_func(4, 4, 4)
        chosen = select_backends(func, policy=SelectionPolicy.PREFER_ACCELERATOR)
        assert list(chosen.values()) == ["gpu"]

    def test_unsupported_op_falls_back_to_cpu(self):
        b = Builder("f")
        schema = FrameType((("x", "float64"),))
        scan = b.emit("df", "source", (), {"table": "t", "schema": schema})
        srt = b.emit("df", "sort", [scan.result()], {"by": ("x",)})
        func = b.ret(srt.result())
        chosen = select_backends(func, policy=SelectionPolicy.PREFER_ACCELERATOR)
        # sort is not in the GPU/FPGA supported sets
        assert chosen["1:df.sort"] == "cpu"

    def test_requires_cpu_fallback(self):
        func = matmul_func()
        with pytest.raises(ValueError, match="CPU backend"):
            select_backends(func, backends=[GPU_BACKEND])

    def test_estimated_cost_accumulates(self):
        func = matmul_func(256, 256, 256)
        select_backends(func, policy=SelectionPolicy.CPU_ONLY)
        cpu_cost = estimated_cost(func)
        select_backends(func, policy=SelectionPolicy.CHEAPEST)
        best_cost = estimated_cost(func)
        assert best_cost <= cpu_cost

    def test_backend_supports_matching(self):
        func = matmul_func()
        mm = func.ops[0]
        assert GPU_BACKEND.supports(mm)
        assert not FPGA_BACKEND.supports(mm)  # matmul not in FPGA subset
        assert CPU_BACKEND.supports(mm)  # empty set = everything

    def test_figure2_dual_lowering(self):
        """Figure 2: the same MLIR-based op D lowered to GPU (D1) and FPGA
        (D2) for a direct comparison."""
        b = Builder("d")
        x = b.add_param("x", TensorType((100_000,)))
        d = b.emit("linalg", "relu", [x])
        func = b.ret(d.result())
        op = func.ops[0]
        costs = {
            backend.name: backend.cost(op)
            for backend in ALL_BACKENDS
            if backend.supports(op)
        }
        assert set(costs) == {"cpu", "gpu", "fpga"}
        # all three backends can host the hardware-agnostic op; the cost
        # model makes them comparable without porting anything by hand
        assert min(costs.values()) > 0
