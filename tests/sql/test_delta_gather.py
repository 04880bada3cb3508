"""Reads gather only their own delta rows.

A point read pays for the rows it selects, not for the size of the delta
next to them: a scan hands the delta fragment only the positions that
reach into it — to test a conjunct (``DeltaColumn.mask``) or to read a
column (``DeltaColumn.take``) — and never the whole fragment. The dtype
contract does not move: an INTEGER column holding a NULL anywhere reads as
exact Python integers beside ``None`` (``object``), exactly as
``column_array(name)[positions]`` does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnstore.column import DeltaColumn
from repro.core.database import Database

MAIN_ROWS, DELTA_ROWS = 2_000, 1_000


@pytest.fixture
def gathered(monkeypatch):
    """Every delta-local position handed to a delta fragment, in order."""
    seen: list[int] = []

    def counting(method):
        def wrapper(self, positions, *args):
            assert len(positions) < len(self), "a read gathered the whole delta"
            seen.extend(np.asarray(positions).tolist())
            return method(self, positions, *args)

        return wrapper

    monkeypatch.setattr(DeltaColumn, "take", counting(DeltaColumn.take))
    monkeypatch.setattr(DeltaColumn, "mask", counting(DeltaColumn.mask))
    return seen


@pytest.fixture
def database():
    db = Database()
    db.execute("CREATE TABLE k (id INT PRIMARY KEY, v INT, s VARCHAR)")
    txn = db.begin()
    db.table("k").insert_many(([i, i * 3, f"s{i % 7}"] for i in range(MAIN_ROWS)), txn)
    db.commit(txn)
    db.merge("k")
    txn = db.begin()
    db.table("k").insert_many(
        ([i, i * 3, f"s{i % 7}"] for i in range(MAIN_ROWS, MAIN_ROWS + DELTA_ROWS)), txn
    )
    db.commit(txn)
    return db


def delta_values_read(db: Database, gathered: list[int], sql: str) -> tuple[int, list]:
    before = len(gathered)
    rows = db.execute(sql).rows
    return len(gathered) - before, rows


def test_point_read_of_a_main_key_gathers_no_delta_value(database, gathered):
    for key in (5, 1_234):
        count, rows = delta_values_read(database, gathered, f"SELECT v, s FROM k WHERE id = {key}")
        assert rows == [[key * 3, f"s{key % 7}"]]
        assert count == 0


def test_point_read_of_a_delta_key_gathers_one_value_per_column(database, gathered):
    key = MAIN_ROWS + 617
    count, rows = delta_values_read(database, gathered, f"SELECT v, s FROM k WHERE id = {key}")
    assert rows == [[key * 3, f"s{key % 7}"]]
    assert count == 3  # v, s, and the key column the scan also reads


def test_filter_on_delta_rows_gathers_only_the_candidates(database, gathered):
    # the key access path leaves two candidates; the codes-first filter
    # tests `v` on the one delta row among them (typed values), and the
    # projection reads it once more
    key = MAIN_ROWS + 3
    count, rows = delta_values_read(
        database, gathered, f"SELECT s FROM k WHERE id IN (7, {key}) AND v > 0"
    )
    assert sorted(rows) == [["s0"], [f"s{key % 7}"]]
    assert count == 4  # v for the filter, then id, s, v for the survivor


@pytest.mark.parametrize("null_at", ["delta", "main"])
def test_an_integer_column_with_a_null_reads_as_exact_integers(null_at):
    db = Database()
    db.execute("CREATE TABLE n (id INT PRIMARY KEY, v INT)")
    main_rows = [[i, None if (null_at == "main" and i == 3) else i * 10] for i in range(20)]
    delta_rows = [[i, None if (null_at == "delta" and i == 27) else i * 10] for i in range(20, 30)]
    txn = db.begin()
    db.table("n").insert_many(main_rows, txn)
    db.commit(txn)
    db.merge("n")
    txn = db.begin()
    db.table("n").insert_many(delta_rows, txn)
    db.commit(txn)
    partition = db.table("n").partitions[0]
    whole = partition.column_array("v")
    assert whole.dtype == object
    assert {type(value) for value in whole} == {int, type(None)}
    for positions in ([1, 2], [1, 22], [21, 25], [], [3, 27]):
        picked = np.asarray(positions, dtype=np.int64)
        got = partition.take("v", picked)
        assert got.dtype == whole[picked].dtype, positions
        np.testing.assert_array_equal(got, whole[picked])
    got = db.execute("SELECT v FROM n WHERE id = 5").rows
    assert got == [[50]]
