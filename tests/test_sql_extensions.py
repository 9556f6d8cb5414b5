"""Tests for SQL extensions: DISTINCT, BETWEEN, IN / NOT IN."""

from __future__ import annotations

import numpy as np
import pytest

from repro import RecordBatch, Skadi
from repro.frontends.sql import SQLSyntaxError, parse_select, sql_to_ir
from repro.ir import FrameType, run_function
from repro.ir.kernels import k_distinct


@pytest.fixture
def table(rng):
    return RecordBatch.from_arrays(
        {
            "oid": np.arange(300, dtype=np.int64),
            "k": rng.integers(0, 5, 300),
            "r": rng.integers(0, 3, 300),
            "x": np.round(rng.random(300) * 100, 0),
        }
    )


CATALOG = {
    "t": FrameType(
        (("oid", "int64"), ("k", "int64"), ("r", "int64"), ("x", "float64"))
    )
}


def run_sql(sql, table):
    (out,) = run_function(sql_to_ir(sql, CATALOG), tables={"t": table})
    return out


class TestDistinctKernel:
    def test_dedups_rows_keeping_first(self):
        batch = RecordBatch.from_pydict({"a": [1, 2, 1, 2, 3], "b": [9, 8, 9, 7, 6]})
        out = k_distinct({}, batch)
        assert out.to_pydict() == {"a": [1, 2, 2, 3], "b": [9, 8, 7, 6]}

    def test_empty_passthrough(self):
        batch = RecordBatch.from_arrays({"a": np.array([], dtype=np.int64)})
        assert k_distinct({}, batch).num_rows == 0

    def test_all_unique_unchanged(self, rng):
        batch = RecordBatch.from_arrays({"a": np.arange(50)})
        assert k_distinct({}, batch) == batch


class TestParsing:
    def test_distinct_flag(self):
        assert parse_select("SELECT DISTINCT k FROM t").distinct
        assert not parse_select("SELECT k FROM t").distinct

    def test_between_desugars(self):
        stmt = parse_select("SELECT k FROM t WHERE x BETWEEN 10 AND 20")
        assert repr(stmt.where) == "((col(x) >= 10) and (col(x) <= 20))"

    def test_in_desugars_to_or_chain(self):
        stmt = parse_select("SELECT k FROM t WHERE k IN (1, 2, 3)")
        text = repr(stmt.where)
        assert text.count("==") == 3 and text.count("or") == 2

    def test_not_in(self):
        stmt = parse_select("SELECT k FROM t WHERE k NOT IN (1)")
        assert repr(stmt.where) == "not((col(k) == 1))"

    def test_not_without_in_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("SELECT k FROM t WHERE k NOT 5")


class TestSemantics:
    def test_distinct_single_column(self, table):
        out = run_sql("SELECT DISTINCT k FROM t", table)
        assert sorted(out.column("k").tolist()) == sorted(
            set(table.column("k").tolist())
        )

    def test_distinct_multi_column(self, table):
        out = run_sql("SELECT DISTINCT k, r FROM t", table)
        expected = set(zip(table.column("k").tolist(), table.column("r").tolist(), strict=False))
        got = set(zip(out.column("k").tolist(), out.column("r").tolist(), strict=False))
        assert got == expected
        assert out.num_rows == len(expected)

    def test_between_inclusive(self, table):
        out = run_sql("SELECT oid FROM t WHERE x BETWEEN 10 AND 20", table)
        mask = (table.column("x") >= 10) & (table.column("x") <= 20)
        assert out.num_rows == int(mask.sum())

    def test_in_list(self, table):
        out = run_sql("SELECT oid FROM t WHERE k IN (0, 4)", table)
        mask = np.isin(table.column("k"), [0, 4])
        assert sorted(out.column("oid").tolist()) == sorted(
            table.column("oid")[mask].tolist()
        )

    def test_not_in_list(self, table):
        out = run_sql("SELECT oid FROM t WHERE k NOT IN (0, 1, 2)", table)
        mask = ~np.isin(table.column("k"), [0, 1, 2])
        assert out.num_rows == int(mask.sum())


class TestAggregateOverExpression:
    def test_sum_of_product(self, table):
        out = run_sql("SELECT SUM(x * k) AS s FROM t", table)
        expected = float((table.column("x") * table.column("k")).sum())
        assert out.column("s")[0] == pytest.approx(expected)

    def test_grouped_expression_aggregate(self, table):
        out = run_sql(
            "SELECT r, SUM(x * 2 + 1) AS s FROM t GROUP BY r ORDER BY r", table
        )
        for r, s in zip(out.column("r").tolist(), out.column("s").tolist(), strict=False):
            mask = table.column("r") == r
            assert s == pytest.approx(float((table.column("x")[mask] * 2 + 1).sum()))

    def test_mixed_plain_and_expression_aggs(self, table):
        out = run_sql(
            "SELECT COUNT(*) AS n, SUM(x) AS sx, AVG(x * x) AS axx FROM t", table
        )
        assert out.column("n")[0] == table.num_rows
        assert out.column("axx")[0] == pytest.approx(
            float((table.column("x") ** 2).mean())
        )

    def test_distributed_matches(self, table):
        sql = "SELECT k, SUM(x * x) AS s FROM t GROUP BY k ORDER BY k"
        skadi = Skadi(shards=3)
        out = skadi.sql(sql, {"t": table})
        oracle = run_sql(sql, table)
        np.testing.assert_allclose(out.column("s"), oracle.column("s"))


class TestExplain:
    def test_explain_shows_all_tiers(self, table):
        skadi = Skadi(shards=2)
        text = skadi.explain(
            "SELECT k, SUM(x) AS s FROM t WHERE x > 10 GROUP BY k", {"t": table}
        )
        assert "logical (relational) IR" in text
        assert "lowered (df/kernel) IR" in text
        assert "flowgraph" in text
        # the result is gathered anyway: a partial per shard, fused into the
        # filter, and one final; nothing is shuffled
        assert "df.where+df.hash_aggregate:partial x2" in text
        assert "df.hash_aggregate:final x1" in text
        assert "shuffle on" not in text
        assert "physical tasks: 5" in text

    def test_explain_shows_a_shuffle(self, table):
        text = Skadi(shards=2).explain("SELECT DISTINCT k FROM t", {"t": table})
        assert "shuffle on 'k'" in text

    def test_explain_does_not_execute(self, table):
        skadi = Skadi(shards=2)
        skadi.explain("SELECT k FROM t", {"t": table})
        assert skadi.runtime.tasks_finished == 0


class TestDistributedDistinct:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_sharded_distinct_matches_oracle(self, table, shards):
        skadi = Skadi(shards=shards)
        out = skadi.sql("SELECT DISTINCT k, r FROM t ORDER BY k", {"t": table})
        oracle = run_sql("SELECT DISTINCT k, r FROM t ORDER BY k", table)
        got = sorted(zip(out.column("k").tolist(), out.column("r").tolist(), strict=False))
        want = sorted(zip(oracle.column("k").tolist(), oracle.column("r").tolist(), strict=False))
        assert got == want

    def test_sharded_distinct_shuffles(self, table):
        skadi = Skadi(shards=3)
        skadi.sql("SELECT DISTINCT k, r FROM t", {"t": table})
        # the distinct stage ran sharded (more tasks than a 1-gather plan)
        assert skadi.last_report.physical_tasks > 6
