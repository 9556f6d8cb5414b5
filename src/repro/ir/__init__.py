"""The multi-level IR (the paper's MLIR substitute).

Hardware-agnostic ops organized in dialects (relational, df, linalg,
kernel), a pass manager with cross-domain elementwise fusion, multi-backend
lowering with cost models, and a numpy reference interpreter.
"""

from . import dialects  # noqa: F401 — registers all ops
from .backends import (
    ALL_BACKENDS,
    CPU_BACKEND,
    FPGA_BACKEND,
    GPU_BACKEND,
    Backend,
    SelectionPolicy,
    estimated_cost,
    op_work_elements,
    select_backends,
)
from .core import (
    Builder,
    Function,
    IRVerificationError,
    OpDef,
    Operation,
    Value,
    op_def,
    register_op,
)
from .dialects.kernel import FusedStep
from .expr import BinOp, Col, Expr, FuncCall, Lit, UnaryOp, col, lit
from .interpreter import Interpreter, execute_op, run_function
from .kernels import HANDCRAFTED, KERNELS, hash_partition, register_handcrafted
from .lowering import (
    RELATIONAL_TO_DF,
    lower_relational_to_df,
    optimize_and_lower,
)
from .passes import (
    CommonSubexpressionElimination,
    ConstantFold,
    DeadCodeElimination,
    FuseElementwise,
    MiscompileError,
    Pass,
    PassManager,
    PassStats,
)
from .types import FrameType, IRType, ScalarType, TensorType, boolean, f64, i64

__all__ = [
    "Builder",
    "Function",
    "Operation",
    "Value",
    "OpDef",
    "op_def",
    "register_op",
    "IRVerificationError",
    "FusedStep",
    "Expr",
    "Col",
    "Lit",
    "BinOp",
    "UnaryOp",
    "FuncCall",
    "col",
    "lit",
    "Interpreter",
    "run_function",
    "execute_op",
    "KERNELS",
    "HANDCRAFTED",
    "register_handcrafted",
    "hash_partition",
    "lower_relational_to_df",
    "optimize_and_lower",
    "RELATIONAL_TO_DF",
    "Pass",
    "PassManager",
    "PassStats",
    "MiscompileError",
    "DeadCodeElimination",
    "CommonSubexpressionElimination",
    "ConstantFold",
    "FuseElementwise",
    "Backend",
    "CPU_BACKEND",
    "GPU_BACKEND",
    "FPGA_BACKEND",
    "ALL_BACKENDS",
    "SelectionPolicy",
    "select_backends",
    "estimated_cost",
    "op_work_elements",
    "IRType",
    "ScalarType",
    "TensorType",
    "FrameType",
    "f64",
    "i64",
    "boolean",
]
