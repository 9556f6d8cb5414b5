"""Shared fixtures for the experiment benchmarks."""

from __future__ import annotations

import json
import os

import pytest


@pytest.fixture
def write_result(tmp_path):
    """``write_result(filename, payload)`` dumps one experiment's result JSON
    and returns its path.  It lands under ``BENCH_ARTIFACTS`` when that is
    set, else under the test's temp directory, so a plain run never rewrites
    a committed baseline; ``BENCH_ARTIFACTS=benchmarks/baselines`` refreshes
    them on purpose."""

    def write(filename: str, payload: dict) -> str:
        out_dir = os.environ.get("BENCH_ARTIFACTS") or str(tmp_path)
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, filename)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return path

    return write
