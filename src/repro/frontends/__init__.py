"""The domain-specific declarative tier: SQL, dataframes, graph
processing, streaming and ML — all lowering onto the same FlowGraph/IR.

A map/shuffle/reduce job is a keyed FlowGraph edge, or SQL ``GROUP BY``."""

from . import sql
from .dataframe import DataFrame, from_batch, from_table
from .graph import (
    EdgeList,
    connected_components,
    pagerank,
    pagerank_flowgraph,
    sssp,
)
from .matrix import Matrix, constant, param
from .mpmd import (
    PipelineParallelTrainer,
    StageState,
    serial_reference_training,
)
from .streaming import (
    FilterOp,
    MapOp,
    StreamJob,
    StreamOp,
    WindowAggregate,
    micro_batches,
)
from .ml import (
    LinearModel,
    LogisticModel,
    ParameterServer,
    make_classification,
    make_regression,
    training_flowgraph,
)

__all__ = [
    "sql",
    "DataFrame",
    "from_table",
    "from_batch",
    "Matrix",
    "param",
    "constant",
    "EdgeList",
    "pagerank",
    "sssp",
    "connected_components",
    "pagerank_flowgraph",
    "LinearModel",
    "LogisticModel",
    "ParameterServer",
    "training_flowgraph",
    "make_regression",
    "make_classification",
    "PipelineParallelTrainer",
    "StageState",
    "serial_reference_training",
    "StreamJob",
    "StreamOp",
    "MapOp",
    "FilterOp",
    "WindowAggregate",
    "micro_batches",
]
