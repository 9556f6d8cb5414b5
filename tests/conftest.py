"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import customers_table, orders_table
from repro.caching.columnar import RecordBatch
from repro.cluster.cluster import build_physical_disagg, build_serverful
from repro.cluster.simtime import Simulator
from repro.ir.types import FrameType

# every Simulator.run in the suite must leave no cyclic garbage (tests/acyclic.py)
pytest_plugins = ["acyclic"]


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def small_batch() -> RecordBatch:
    return RecordBatch.from_pydict(
        {
            "k": [0, 1, 0, 1, 2],
            "x": [1.0, 2.0, 3.0, 4.0, 5.0],
        }
    )


@pytest.fixture
def orders() -> RecordBatch:
    return orders_table(1000, num_customers=50, seed=7)


@pytest.fixture
def customers() -> RecordBatch:
    return customers_table(50, num_regions=4, seed=8)


@pytest.fixture
def catalog() -> dict:
    return {
        "orders": FrameType(
            (
                ("oid", "int64"),
                ("cust", "int64"),
                ("amount", "float64"),
                ("qty", "int64"),
            )
        ),
        "customers": FrameType(
            (("cid", "int64"), ("region", "int64"), ("credit", "float64"))
        ),
    }


@pytest.fixture
def phys_cluster():
    return build_physical_disagg()


@pytest.fixture
def server_cluster():
    return build_serverful(n_servers=3)
