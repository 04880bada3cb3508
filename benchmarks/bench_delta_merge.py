"""E3 — §III: application-aware key order makes the delta merge cheap.

Paper claim: "By knowing the mechanism of how the keys are generated, the
dictionary maintenance and merging can be done much simpler and more
efficiently. ... a stable sort order without resorting can be achieved,
improving the merge process."

Measured shape: with monotone application-generated keys the merge rewrites
zero value-ids (no dictionary resort); with random keys every merge remaps
the full main fragment, and merge time grows accordingly.
"""

from __future__ import annotations

import random

import pytest

from repro.columnstore.merge import merge_table
from repro.columnstore.table import ColumnTable
from repro.core import types
from repro.core.schema import schema
from repro.transaction.manager import TransactionManager

BASE_ROWS = 30_000
DELTA_ROWS = 3_000


def build(keys):
    manager = TransactionManager()
    table = ColumnTable("t", schema(("key", types.VARCHAR), ("v", types.INTEGER)))
    txn = manager.begin()
    table.insert_many(([key, i] for i, key in enumerate(keys[:BASE_ROWS])), txn)
    manager.commit(txn)
    merge_table(table)
    txn = manager.begin()
    table.insert_many(
        ([key, i] for i, key in enumerate(keys[BASE_ROWS:])), txn
    )
    manager.commit(txn)
    return table


def monotone_keys():
    return [f"ctx-{i:08d}" for i in range(BASE_ROWS + DELTA_ROWS)]


def random_keys():
    rng = random.Random(3)
    keys = [f"k{rng.getrandbits(48):012x}" for _ in range(BASE_ROWS + DELTA_ROWS)]
    return keys


@pytest.mark.benchmark(group="E3-delta-merge")
@pytest.mark.parametrize("order", ["monotone", "random"])
def test_merge_cost_by_key_order(benchmark, reporter, order):
    keys = monotone_keys() if order == "monotone" else random_keys()

    def setup():
        return (build(keys),), {}

    def run(table):
        return merge_table(table)

    stats = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    reporter(
        "E3",
        key_order=order,
        rows_merged=stats.rows_merged,
        columns_remapped=stats.columns_remapped,
        ids_rewritten=stats.ids_rewritten,
    )
    if order == "monotone":
        assert stats.ids_rewritten == 0
    else:
        assert stats.ids_rewritten >= BASE_ROWS  # the key column remapped


SMALL_MAIN_ROWS = 50_000
SMALL_DELTA_ROWS = 10


def build_small_delta(order):
    """A merged 50 k-row main plus a 10-row delta whose keys sort after
    every main key (monotone) or among them (random)."""
    manager = TransactionManager()
    table = ColumnTable("t", schema(("key", types.VARCHAR), ("v", types.INTEGER)))
    txn = manager.begin()
    table.insert_many(([f"ctx-{2 * i:08d}", i] for i in range(SMALL_MAIN_ROWS)), txn)
    manager.commit(txn)
    merge_table(table)
    offset = 2 * SMALL_MAIN_ROWS if order == "monotone" else 1
    txn = manager.begin()
    table.insert_many(
        ([f"ctx-{offset + 2 * i:08d}", SMALL_MAIN_ROWS + i] for i in range(SMALL_DELTA_ROWS)), txn
    )
    manager.commit(txn)
    return table


@pytest.mark.benchmark(group="E3-small-delta")
@pytest.mark.parametrize("order", ["monotone", "random"])
def test_small_delta_merge_into_large_main(benchmark, reporter, order):
    """The merge's cost with a 10-row delta: what the dictionary and the
    remap cost when the delta costs next to nothing."""

    def setup():
        return (build_small_delta(order),), {}

    stats = benchmark.pedantic(merge_table, setup=setup, rounds=3, iterations=1)
    reporter(
        "E3",
        key_order=f"{order}, {SMALL_DELTA_ROWS} into {SMALL_MAIN_ROWS}",
        rows_merged=stats.rows_merged,
        columns_remapped=stats.columns_remapped,
        ids_rewritten=stats.ids_rewritten,
        merge_ms=round(stats.duration_seconds * 1000, 2),
    )
    assert stats.rows_merged == SMALL_DELTA_ROWS
    if order == "monotone":
        assert stats.ids_rewritten == 0
    else:
        assert stats.ids_rewritten == SMALL_MAIN_ROWS  # the key column remapped
