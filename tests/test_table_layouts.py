"""Skadi lays each immutable table out once: the puts, source shards, hash
partitions and gathered broadcast side of a table are kept across queries
(``flowgraph.launch.TableLayouts``).

* A repeated query reuses them and moves no payload bytes; a query over other
  columns shares nothing.
* The contract that makes this safe: a queried table is read-only, and a name
  bound to a new table frees the old layout.
* A fault between passes never changes an answer.  The four ``sql_suite``
  shapes give the same rows after the GPU every query ran on is failed (and
  restored, which needs an arrival signal that does not outlive its copy),
  after the kept shards are wiped (lineage replays them from the kept put),
  and after the head's store loses the puts (the table is laid out afresh: a
  put has no lineage).
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro import RecordBatch, Skadi
from repro.bench.workloads import customers_table, lineitem_like_table, orders_table

BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

from ledger.workloads import QUERIES  # noqa: E402

GPU = "gpucard0/gpu0"  # where the default placement runs the queries' compute tasks


@pytest.fixture
def tables() -> Dict[str, RecordBatch]:
    return {
        "lineitem": lineitem_like_table(3000, seed=11),
        "orders": orders_table(2000, num_customers=100, seed=12),
        "customers": customers_table(100, seed=13),
    }


def test_a_repeated_query_reuses_the_layout_and_moves_nothing(tables):
    skadi = Skadi(shards=4)
    sql = QUERIES["scan_agg"]
    first = skadi.sql(sql, tables)
    plan = skadi.last_report
    assert plan.bytes_moved > 0 and plan.reused_tasks == 0
    again = skadi.sql(sql, tables)
    report = skadi.last_report
    assert again == first
    assert report.bytes_moved == 0
    # the 4 source shards; the plan's size is what it was, reuse is reported
    # beside it
    assert report.reused_tasks == 4
    assert report.physical_tasks == plan.physical_tasks


def test_the_broadcast_side_is_kept_and_a_lost_copy_replays_from_the_kept_shards(tables):
    skadi = Skadi(shards=4)
    sql = QUERIES["join_group"]
    first = skadi.sql(sql, tables)
    again = skadi.sql(sql, tables)
    report = skadi.last_report
    assert again == first
    # both tables' 4 source shards and the coalesce of customers' are kept;
    # the filtered join with its partial aggregate (4) and the final (1) run
    assert report.reused_tasks == 9
    assert report.physical_tasks - report.reused_tasks == 5
    assert report.bytes_moved == 0
    ((key, (coalesced,)),) = [
        (key, refs) for key, refs in skadi.layouts.kept["customers"].tasks.items()
        if key[0] == "coalesce"
    ]
    assert len(key) == 1 + 4  # keyed on its four input shards' keys
    rt = skadi.runtime
    for store in rt._store_of_device.values():
        store.delete(coalesced.object_id)  # memory gone, nobody told the GCS
    assert skadi.sql(sql, tables) == first
    # one replay, of the coalesce alone: its input shards are still there
    assert rt.lineage.replays == 1
    assert skadi.last_report.reused_tasks == 9


def test_queries_over_different_columns_share_nothing(tables):
    narrow = "SELECT SUM(amount) AS s FROM orders"
    skadi = Skadi(shards=4)
    skadi.sql("SELECT oid, amount FROM orders ORDER BY amount DESC, oid DESC LIMIT 5", tables)
    skadi.sql(narrow, tables)
    fresh = Skadi(shards=4)
    fresh.sql(narrow, tables)
    assert skadi.last_report.reused_tasks == 0
    assert skadi.last_report.bytes_moved == fresh.last_report.bytes_moved > 0


def test_a_replaced_table_is_laid_out_afresh_and_the_old_layout_freed(tables):
    skadi = Skadi(shards=2)
    sql = "SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders"
    skadi.sql(sql, tables)
    old = skadi.layouts.kept["orders"].refs()
    assert old and all(skadi.runtime.ownership.contains(r.object_id) for r in old)
    replaced = dict(tables, orders=orders_table(500, num_customers=10, seed=99))
    out = skadi.sql(sql, replaced)
    assert out.column("n").tolist() == [500]
    assert out.column("s").tolist() == pytest.approx([replaced["orders"].column("amount").sum()])
    assert skadi.last_report.reused_tasks == 0
    assert not any(skadi.runtime.ownership.contains(r.object_id) for r in old)


def test_a_queried_table_is_read_only_down_to_its_base():
    base = np.arange(20, dtype=np.float64)
    table = RecordBatch.from_arrays({"x": base[:10], "g": np.arange(10) % 3})
    out = Skadi(shards=2).sql("SELECT SUM(x) AS s FROM t", {"t": table})
    assert out.column("s").tolist() == [45.0]
    with pytest.raises(ValueError):
        table.column("x")[0] = 1.0
    with pytest.raises(ValueError):
        base[0] = 1.0  # a write through the view's base would change the table too


def two_passes(tables, between) -> Skadi:
    """The four shapes, ``between(skadi)``, the four again: same rows."""
    skadi = Skadi(shards=4)
    first = {name: skadi.sql(sql, tables) for name, sql in QUERIES.items()}
    between(skadi)
    for name, sql in QUERIES.items():
        assert skadi.sql(sql, tables) == first[name], name
    return skadi


@pytest.mark.parametrize("restore", [True, False], ids=["failed-and-restored", "failed"])
def test_a_gpu_death_between_passes_keeps_every_answer(tables, restore):
    def strike(skadi):
        skadi.runtime.fail_device(GPU)
        if restore:
            skadi.runtime.restore_device(GPU)

    skadi = two_passes(tables, strike)
    assert skadi.last_report.reused_tasks == 4  # top_k's kept source shards


def test_wiped_shards_are_replayed_from_the_kept_put(tables):
    def wipe(skadi):
        rt = skadi.runtime
        for layout in skadi.layouts.kept.values():
            for ref in (ref for outputs in layout.tasks.values() for ref in outputs):
                for store in rt._store_of_device.values():
                    store.delete(ref.object_id)  # memory gone, nobody told the GCS

    skadi = two_passes(tables, wipe)
    assert skadi.runtime.log.count("lineage_replay") > 0
    assert skadi.runtime.log.count("object_reconciled") > 0


def test_a_lost_put_lays_its_table_out_afresh(tables):
    puts = []

    def lose_the_head_store(skadi):
        puts.extend(r for layout in skadi.layouts.kept.values() for r in layout.puts.values())
        skadi.runtime.fail_device("server0/cpu")
        skadi.runtime.restore_device("server0/cpu")

    skadi = two_passes(tables, lose_the_head_store)
    assert skadi.last_report.reused_tasks == 0
    assert not any(skadi.runtime.ownership.contains(r.object_id) for r in puts)
