"""Skadi lays each immutable table out once: the puts, source shards (a
broadcast side's one shard among them), hash partitions and gathered
broadcast sides of a table are kept across queries
(``flowgraph.launch.TableLayouts``).

* A repeated query reuses them and moves no payload bytes; a query over other
  columns, or hash-partitioned on another key, shares nothing.
* A keyed edge's source shard partitions itself, so a lost partition replays
  that source task once.
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
from repro.frontends.dataframe import from_batch
from repro.frontends.sql import sql_to_ir
from repro.ir import FrameType, run_function
from repro.runtime.supervision import retry_backoff_delay

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


def reference(sql: str, tables: Dict[str, RecordBatch]) -> RecordBatch:
    catalog = {
        name: FrameType(tuple((f.name, f.dtype.name) for f in batch.schema.fields))
        for name, batch in tables.items()
    }
    (out,) = run_function(sql_to_ir(sql, catalog), tables=tables)
    return out


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


def test_the_broadcast_side_is_kept_and_a_lost_copy_replays_its_source_shard(tables):
    skadi = Skadi(shards=4)
    sql = QUERIES["join_group"]
    first = skadi.sql(sql, tables)
    again = skadi.sql(sql, tables)
    report = skadi.last_report
    assert again == first
    # orders' 4 source shards and customers' one (the broadcast side, scanned
    # as one shard) are kept; the filtered join with its partial aggregate (4)
    # and the final (1) run
    assert report.reused_tasks == 5
    assert report.physical_tasks - report.reused_tasks == 5
    assert report.bytes_moved == 0
    ((key, (shard,)),) = skadi.layouts.kept["customers"].tasks.items()
    assert key[1:3] == (0, 1)  # shard 0 of 1
    rt = skadi.runtime
    for store in rt._store_of_device.values():
        store.delete(shard.object_id)  # memory gone, nobody told the GCS
    assert skadi.sql(sql, tables) == first
    # one replay, of the source shard alone: the table's put is still there
    assert rt.lineage.replays == 1
    assert skadi.last_report.reused_tasks == 5


def test_a_gathered_broadcast_side_is_kept_and_a_lost_copy_replays_from_the_kept_shards(
    tables,
):
    # customers joined twice: one scan read by both joins keeps its 4 shards,
    # and each join gathers them with a coalesce, kept once for the table
    orders = from_batch("orders", tables["orders"])
    customers = from_batch("customers", tables["customers"])
    frame = orders.join(customers, left_on="cust", right_on="cid").join(
        customers, left_on="cust", right_on="cid"
    )
    skadi = Skadi(shards=4)
    first = skadi.dataframe(frame, tables)
    # the second join's coalesce is the first one's kept copy
    assert skadi.last_report.reused_tasks == 1
    assert skadi.dataframe(frame, tables) == first
    report = skadi.last_report
    # both tables' 4 source shards and the coalesce (twice) are kept; the
    # 4 tasks of the two fused joins run
    assert report.reused_tasks == 10
    assert report.physical_tasks - report.reused_tasks == 4
    assert report.bytes_moved == 0
    ((key, (coalesced,)),) = [
        (key, refs) for key, refs in skadi.layouts.kept["customers"].tasks.items()
        if key[0] == "coalesce"
    ]
    assert len(key) == 1 + 4  # keyed on its four input shards' keys
    rt = skadi.runtime
    for store in rt._store_of_device.values():
        store.delete(coalesced.object_id)  # memory gone, nobody told the GCS
    assert skadi.dataframe(frame, tables) == first
    # one replay, of the coalesce alone: its input shards are still there
    assert rt.lineage.replays == 1
    assert skadi.last_report.reused_tasks == 10


def test_a_repeated_shuffle_join_reuses_the_partitioned_shards(tables):
    skadi = Skadi(shards=4, broadcast_threshold=0)
    sql = QUERIES["join_group"]
    first = skadi.sql(sql, tables)
    plan = skadi.last_report
    again = skadi.sql(sql, tables)
    report = skadi.last_report
    assert again == first
    # customers' 4 source shards, each kept with its 4 partitions, and orders'
    # 4 (its filter partitions); the filter, join with its partial aggregate
    # and the final run again: 9 tasks and 18 messages (with a split task per
    # shard it was 12 kept tasks and 26 messages)
    assert report.reused_tasks == 8
    assert report.physical_tasks == plan.physical_tasks == 17
    assert report.control_messages == 18
    assert report.bytes_moved == 0
    kept = skadi.layouts.kept["customers"].tasks
    assert sorted(len(refs) for refs in kept.values()) == [4] * 4


def test_a_lost_partition_replays_its_source_shard_once(tables):
    skadi = Skadi(shards=4, broadcast_threshold=0)
    sql = QUERIES["join_group"]
    first = skadi.sql(sql, tables)
    rt = skadi.runtime
    lost = skadi.layouts.kept["customers"].tasks[(("cid", "region"), 0, 4, "cid", 4)][1]
    for store in rt._store_of_device.values():
        store.delete(lost.object_id)  # memory gone, nobody told the GCS
    assert skadi.sql(sql, tables) == first
    report = skadi.last_report
    # the partition's producer is its source shard, replayed once from the put
    assert rt.lineage.replays == 1
    assert rt.lineage.producer(lost.object_id).name == "scan:customers[0/4]"
    assert report.bytes_moved == 96 and report.control_messages == 21
    # the join shard that read the partition retries once; past that backoff
    # (1 ms, jittered by a hash of its task id) the pass takes 109.31 us.  With
    # a split task per shard the split alone replayed and the pass took the
    # same 109.31 us past the backoff, in 29 messages; the whole pass was
    # 1,222.3 us there and is 1,305.0 us here, the difference being the
    # backoff jitter of the retried task's id
    (retry,) = rt.log.of_kind("task_retry")
    backoff = retry_backoff_delay(rt.config, dict(retry.detail)["task"], 1)
    assert report.sim_seconds - backoff == pytest.approx(109.31e-6, abs=0.01e-6)


def test_a_table_partitioned_on_two_keys_keeps_two_layouts(tables):
    queries = [
        "SELECT cid, region FROM customers ORDER BY cid",
        "SELECT region, SUM(qty) AS q, COUNT(*) AS n FROM orders JOIN customers ON cust = cid "
        "GROUP BY region ORDER BY region",
        "SELECT cid, SUM(qty) AS q FROM orders JOIN customers ON qty = region "
        "GROUP BY cid ORDER BY cid",
    ]
    skadi = Skadi(shards=4, broadcast_threshold=0)
    for sql in queries:  # integer columns only, so the answers compare exactly
        assert skadi.sql(sql, tables) == reference(sql, tables), sql
        assert skadi.last_report.reused_tasks == 0
    kept = skadi.layouts.kept["customers"].tasks
    # the same two columns, read whole, hashed on cid and hashed on region
    assert sorted(kept, key=repr) == sorted(
        (
            (("cid", "region"), shard, 4, key, outputs)
            for shard in range(4)
            for key, outputs in ((None, 1), ("cid", 4), ("region", 4))
        ),
        key=repr,
    )
    refs = [ref.object_id for outputs in kept.values() for ref in outputs]
    assert len(refs) == len(set(refs)) == 4 * (1 + 4 + 4)


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
