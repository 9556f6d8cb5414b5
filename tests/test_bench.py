"""Tests for the benchmark harness utilities and Table 1 data."""

from __future__ import annotations

import pytest

from repro.bench import (
    RELATED_WORK,
    ResultTable,
    fmt_bytes,
    fmt_seconds,
    lineitem_like_table,
    orders_table,
    render_table1,
    skadi_unique_claim,
)


class TestFormatting:
    def test_fmt_seconds_ranges(self):
        assert fmt_seconds(5e-7) == "0.5 us"
        assert fmt_seconds(2.5e-3) == "2.50 ms"
        assert fmt_seconds(1.5) == "1.50 s"

    def test_fmt_bytes_ranges(self):
        assert fmt_bytes(100) == "100 B"
        assert fmt_bytes(2048) == "2.0 KiB"
        assert fmt_bytes(3 * 1024 * 1024) == "3.0 MiB"
        assert fmt_bytes(5 * 1024**3) == "5.0 GiB"


class TestResultTable:
    def test_render(self):
        table = ResultTable("demo", ["a", "b"])
        table.add_row(1, "x")
        table.add_row(22, "yy")
        text = table.to_text()
        assert "== demo ==" in text
        assert "a  | b" in text
        assert text.splitlines()[-1] == "22 | yy"

    def test_row_arity_checked(self):
        table = ResultTable("demo", ["a"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)


class TestTable1:
    def test_eighteen_systems(self):
        assert len(RELATED_WORK) == 18
        assert RELATED_WORK[-1].name == "Skadi"

    def test_render_has_all_rows(self):
        table = render_table1()
        text = table.to_text()
        for row in RELATED_WORK:
            assert row.name in text

    def test_skadi_is_unique_full_house(self):
        assert skadi_unique_claim()

    def test_paper_specific_cells(self):
        """Spot-check cells against the paper's Table 1."""
        by_name = {r.name: r for r in RELATED_WORK}
        assert by_name["LegoOS"].api == "POSIX" and by_name["LegoOS"].phys_disagg
        assert by_name["Ray"].serverless == "stateful" and by_name["Ray"].integration
        assert by_name["DAPHNE"].ir == "MLIR" and by_name["DAPHNE"].serverless == "stateless"
        assert by_name["Pathways"].ir == "MLIR"
        assert by_name["Dryad"].serverless == "stateless"
        assert not by_name["Cloudburst"].phys_disagg


class TestWorkloads:
    def test_orders_table_deterministic(self):
        assert orders_table(100, seed=3) == orders_table(100, seed=3)

    def test_lineitem_columns(self):
        t = lineitem_like_table(50)
        assert "l_extendedprice" in t.schema.names
        assert t.num_rows == 50
