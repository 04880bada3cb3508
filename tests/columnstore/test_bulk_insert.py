"""Set-at-a-time inserts: ``ColumnTable.insert_many`` against row by row.

A batch is coerced a column at a time, key-checked as a set, appended with
one ``extend`` per column and stamped through one range slot; these tests
pin that it ends exactly where inserting its rows one by one would — the
same rows, the same key verdicts — and that a refused batch leaves no
trace, a rolled-back one only tombstones, and a durable one recovers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.aging.tiering import evict_partition
from repro.columnstore.partition import HashPartitioning
from repro.columnstore.table import ColumnTable
from repro.core import types
from repro.core.database import Database
from repro.core.schema import schema
from repro.errors import DuplicateKeyError, WriteConflictError
from repro.transaction.mvcc import INF_CID

# -- key enforcement: a batch and its rows one by one agree -------------------------------


def _keyed(where):
    """Keys 1..3 committed, in main or in the delta; key 4 committed and
    then deleted."""
    database = Database()
    database.execute("CREATE TABLE k (id INT PRIMARY KEY, v VARCHAR)")
    database.execute("INSERT INTO k VALUES (1, 'a')")
    database.execute("INSERT INTO k VALUES (2, 'b')")
    database.execute("INSERT INTO k VALUES (3, 'c')")
    database.execute("INSERT INTO k VALUES (4, 'd')")
    database.execute("DELETE FROM k WHERE id = 4")
    if where == "main":
        database.merge("k")
    return database


def _duplicate_in_batch(database):
    return database.begin(), [[10, "x"], [11, "y"], [10, "z"]]


def _live_committed(database):
    return database.begin(), [[10, "x"], [2, "y"]]


def _own_key(database):
    txn = database.begin()
    database.execute("INSERT INTO k VALUES (10, 'mine')", txn=txn)
    return txn, [[11, "x"], [10, "y"]]


def _rolled_back(database):
    gone = database.begin()
    database.execute("INSERT INTO k VALUES (10, 'gone')", txn=gone)
    database.rollback(gone)
    return database.begin(), [[11, "x"], [10, "y"]]


def _deleted_by_open_transaction(database):
    deleter = database.begin()
    database.execute("DELETE FROM k WHERE id = 2", txn=deleter)
    return database.begin(), [[10, "x"], [2, "y"]]


def _deleted_by_unseen_commit(database):
    txn = database.begin()
    database.execute("DELETE FROM k WHERE id = 3")
    return txn, [[10, "x"], [3, "y"]]


def _created_by_open_transaction(database):
    other = database.begin()
    database.execute("INSERT INTO k VALUES (10, 'other')", txn=other)
    return database.begin(), [[11, "x"], [10, "y"]]


def _deleted_and_committed(database):
    return database.begin(), [[4, "again"], [10, "x"]]


CASES = {
    "duplicate in the batch": (_duplicate_in_batch, DuplicateKeyError),
    "live committed key": (_live_committed, DuplicateKeyError),
    "the transaction's own key": (_own_key, DuplicateKeyError),
    "a rolled-back version": (_rolled_back, None),
    "deleted by an open transaction": (_deleted_by_open_transaction, WriteConflictError),
    "deleted by a commit the snapshot does not see": (_deleted_by_unseen_commit, WriteConflictError),
    "created by an open transaction": (_created_by_open_transaction, WriteConflictError),
    "deleted and committed": (_deleted_and_committed, None),
}


def _outcome(insert):
    try:
        insert()
    except Exception as exc:  # noqa: BLE001 - the type is the verdict
        return type(exc)
    return None


@pytest.mark.parametrize("where", ["main", "delta"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_batch_ends_where_its_rows_one_by_one_end(case, where):
    build, expected = CASES[case]
    verdicts = []
    for mode in ("batch", "rows"):
        database = _keyed(where)
        table = database.table("k")
        txn, batch = build(database)
        if mode == "batch":
            verdicts.append(_outcome(lambda: table.insert_many(batch, txn)))
        else:
            verdicts.append(_outcome(lambda: [table.insert(row, txn) for row in batch]))
    assert verdicts == [expected, expected]


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_refused_batch_leaves_no_trace(case):
    build, expected = CASES[case]
    database = _keyed("delta")
    table, partition = database.table("k"), database.table("k").partitions[0]
    txn, batch = build(database)
    before = (
        partition.n_delta,
        partition.created.view().copy(),
        partition.deleted.view().copy(),
        len(txn._created_slots),
        len(txn._redo_records),
        len(txn._commit_hooks),
    )
    verdict = _outcome(lambda: table.insert_many(batch, txn))
    assert verdict is expected
    if expected is None:
        return
    after = (
        partition.n_delta,
        partition.created.view(),
        partition.deleted.view(),
        len(txn._created_slots),
        len(txn._redo_records),
        len(txn._commit_hooks),
    )
    assert after[0] == before[0] and after[3:] == before[3:]
    assert np.array_equal(after[1], before[1]) and np.array_equal(after[2], before[2])


@pytest.mark.parametrize("mode", ["batch", "rows"])
def test_an_evicted_partition_still_refuses_its_keys(tmp_path, mode):
    database = _keyed("main")
    table = database.table("k")
    evict_partition(table.partitions[0], tmp_path)
    assert len(table.partitions[0]) == 0  # its keys are on disk only
    txn, batch = database.begin(), [[10, "x"], [2, "again"]]
    with pytest.raises(DuplicateKeyError, match="id = 2"):
        if mode == "batch":
            table.insert_many(batch, txn)
        else:
            for row in batch:
                table.insert(row, txn)


def test_a_nan_reads_the_same_before_and_after_a_merge():
    database = Database()
    database.execute("CREATE TABLE d (id INT PRIMARY KEY, amount DOUBLE, fixed DOUBLE DEFAULT 7.5)")
    table = database.table("d")
    txn = database.begin()
    table.insert([0, math.nan, math.nan], txn)
    table.insert_many([[1, 2.5, 1.0], [2, math.nan, math.nan]], txn)
    database.commit(txn)
    query = "SELECT id, amount, fixed FROM d ORDER BY id"
    before = database.query(query).rows
    database.merge("d")
    assert database.query(query).rows == before == [[0, None, 7.5], [1, 2.5, 1.0], [2, None, 7.5]]


def test_an_empty_table_checks_nothing(monkeypatch):
    database = Database()
    database.execute("CREATE TABLE k (id INT PRIMARY KEY, v VARCHAR)")
    table = database.table("k")
    monkeypatch.setattr(ColumnTable, "_check_key_value", None)  # must not be reached
    txn = database.begin()
    assert table.insert_many([[i, f"v{i}"] for i in range(100)], txn) == 100
    database.commit(txn)
    assert database.query("SELECT COUNT(*) FROM k").scalar() == 100


# -- stamps, redo records, commit hooks ------------------------------------------------------


def test_a_batch_is_one_range_slot_one_redo_record_one_hook():
    database = Database()
    database.execute("CREATE TABLE k (id INT PRIMARY KEY, v VARCHAR)")
    database.execute("INSERT INTO k VALUES (0, 'first')")
    table, partition = database.table("k"), database.table("k").partitions[0]
    txn = database.begin()
    table.insert_many([[i, f"v{i}"] for i in range(1, 51)], txn)
    assert len(txn._created_slots) == len(txn._redo_records) == len(txn._commit_hooks) == 1
    assert txn._created_slots[0].position == slice(1, 51)
    assert (partition.created.view()[1:] == txn.stamp).all()
    database.rollback(txn)  # every row of the batch becomes a tombstone through the slot
    assert (partition.created.view()[1:] == INF_CID).all() and partition.created[0] > 0
    assert database.query("SELECT id FROM k").rows == [[0]]


def test_a_committed_batch_is_stamped_and_announced_once():
    database = Database()
    database.execute("CREATE TABLE k (id INT PRIMARY KEY, v VARCHAR)")
    table = database.table("k")
    heard = []
    table.on_change(lambda event, partition, positions, rows: heard.append((event, positions, rows)))
    txn = database.begin()
    table.insert_many([[1, "a"], [2, "b"]], txn)
    assert heard == []
    cid = database.commit(txn)
    assert heard == [("insert", [0, 1], [[1, "a"], [2, "b"]])]
    assert table.partitions[0].created.view().tolist() == [cid, cid]


def test_a_partitioned_batch_goes_to_each_partition_once():
    database = Database()
    table = ColumnTable(
        "h",
        schema(("id", types.INTEGER), ("v", types.VARCHAR), primary_key=["id"]),
        partitioning=HashPartitioning(["id"], 4),
    )
    txn = database.begin()
    rows = [[i, f"v{i}"] for i in range(40)]
    table.insert_many(rows, txn)
    used = [partition for partition in table.partitions if partition.n_delta]
    assert len(txn._created_slots) == len(txn._redo_records) == len(used) > 1
    for row in rows:  # each row sits where the single-row path routes it
        ordinal = table.partitioning.route(row, table.schema)
        assert len(table.partitions[ordinal].delta["id"].positions_of(row[0])) == 1
    database.commit(txn)
    assert sorted(table.scan_rows(database.txn_manager.last_committed_cid)) == rows
    with pytest.raises(DuplicateKeyError):
        table.insert_many([[100, "new"], [7, "again"]], database.begin())


# -- INSERT ... SELECT is one batch ------------------------------------------------------------


def test_insert_select_with_a_duplicate_key_writes_none_of_its_rows():
    database = _keyed("main")
    database.execute("CREATE TABLE src (id INT, v VARCHAR)")
    database.execute("INSERT INTO src VALUES (20, 'new'), (2, 'clash'), (21, 'new')")
    table = database.table("k")
    delta_rows = table.delta_rows()
    txn = database.begin()
    with pytest.raises(DuplicateKeyError, match="id = 2"):
        database.execute("INSERT INTO k SELECT id, v FROM src", txn=txn)
    assert table.delta_rows() == delta_rows and txn.is_read_only
    database.execute("INSERT INTO k (id, v) SELECT id + 100, v FROM src", txn=txn)
    database.commit(txn)
    assert database.query("SELECT id FROM k WHERE id > 99 ORDER BY id").rows == [[102], [120], [121]]


# -- durability of the batch record -----------------------------------------------------------


def _durable_state(database):
    """The visible rows, by SQL and by a raw scan of the stamps."""
    table = database.table("t")
    scanned = table.scan_rows(database.txn_manager.last_committed_cid)
    return database.query("SELECT id, v, amount FROM t ORDER BY id").rows, sorted(scanned)


@pytest.mark.parametrize("savepoint", [None, "savepoint", "physical_savepoint"])
def test_a_bulk_load_survives_recovery(tmp_path, savepoint):
    database = Database(data_dir=tmp_path)
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR, amount DOUBLE)")
    txn = database.begin()
    database.table("t").insert_many(([i, f"n{i % 7}", i * 0.25] for i in range(1000)), txn)
    database.commit(txn)
    if savepoint == "physical_savepoint":
        database.merge("t")
    if savepoint is not None:
        getattr(database, savepoint)()
    database.execute("INSERT INTO t VALUES (1000, 'late', 1.5)")
    database.execute("UPDATE t SET amount = amount + 1 WHERE id = 5")
    database.execute("DELETE FROM t WHERE id = 6")
    expected = _durable_state(database)
    assert len(expected[0]) == 1000
    database.persistence.close()

    recovered = Database(data_dir=tmp_path)
    assert _durable_state(recovered) == expected
    with pytest.raises(DuplicateKeyError):
        recovered.execute("INSERT INTO t VALUES (7, 'again', 0.0)")
    recovered.execute("INSERT INTO t VALUES (6, 'back', 0.0)")  # deleted: free again


def test_a_physical_savepoint_holds_no_derived_dictionary_state(tmp_path):
    database = Database(data_dir=tmp_path)
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR, amount DOUBLE)")
    txn = database.begin()
    database.table("t").insert_many(([i, f"n{i % 7}", i * 0.25] for i in range(200)), txn)
    database.commit(txn)
    database.merge("t")
    for column, literal in (("id", "3"), ("v", "'n3'"), ("amount", "0.75")):  # build every index
        assert database.query(f"SELECT COUNT(*) FROM t WHERE {column} = {literal}").scalar() >= 1
    main = database.table("t").partitions[0].main
    assert all(column.dictionary._index is not None for column in main.values())
    database.physical_savepoint()
    saved = database.persistence.read_physical_savepoint()["tables"]["t"].partitions[0].main
    for column in saved.values():
        assert column.dictionary._index is None and "_array" not in vars(column.dictionary)
        assert column._lookup is None and column._positions is None
    assert isinstance(saved["amount"].dictionary.values, np.ndarray)
    assert isinstance(saved["v"].dictionary.values, list)
    database.persistence.close()
