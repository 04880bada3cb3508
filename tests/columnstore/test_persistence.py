"""Tests for redo log, savepoints, and recovery."""

import datetime as dt

import pytest

from repro.core.database import Database
from repro.errors import DuplicateKeyError


def test_recovery_replays_redo_log(tmp_path):
    database = Database(data_dir=tmp_path)
    database.execute("CREATE TABLE t (id INT, name VARCHAR, d DATE)")
    database.execute("INSERT INTO t VALUES (1, 'a', DATE '2014-01-01'), (2, 'b', DATE '2014-02-01')")
    database.execute("DELETE FROM t WHERE id = 1")
    database.persistence.close()

    recovered = Database(data_dir=tmp_path)
    rows = recovered.execute("SELECT id, name, d FROM t ORDER BY id").rows
    assert rows == [[2, "b", dt.date(2014, 2, 1)]]


@pytest.mark.parametrize("savepoint", [None, "savepoint", "physical_savepoint"])
def test_row_table_writes_survive_recovery(tmp_path, savepoint):
    """A row table logs its writes like a column table: single and multi-row
    VALUES, an UPDATE, and DELETEs — one of two identical rows' worth
    included — come back after a restart, with or without a savepoint
    before the log tail."""
    database = Database(data_dir=tmp_path)
    database.execute("CREATE ROW TABLE r (id INT, v VARCHAR, d DATE)")
    database.execute("INSERT INTO r VALUES (1, 'a', DATE '2014-01-01')")
    if savepoint is not None:
        getattr(database, savepoint)()
    database.execute("INSERT INTO r VALUES (2, 'b', NULL), (3, 'c', NULL), (5, 'e', NULL), (5, 'e', NULL)")
    database.execute("UPDATE r SET v = 'z', d = DATE '2015-03-04' WHERE id >= 3")
    database.execute("DELETE FROM r WHERE id = 2")
    database.execute("DELETE FROM r WHERE id = 5")
    database.execute("INSERT INTO r VALUES (5, 'f', NULL)")
    expected = [[1, "a", dt.date(2014, 1, 1)], [3, "z", dt.date(2015, 3, 4)], [5, "f", None]]
    assert database.execute("SELECT id, v, d FROM r ORDER BY id").rows == expected
    database.persistence.close()

    for _ in range(2):  # recovery re-baselines the files: a second restart reads those
        recovered = Database(data_dir=tmp_path)
        assert recovered.execute("SELECT id, v, d FROM r ORDER BY id").rows == expected
        recovered.persistence.close()


def test_savepoint_truncates_log(tmp_path):
    database = Database(data_dir=tmp_path)
    database.execute("CREATE TABLE t (id INT)")
    database.execute("INSERT INTO t VALUES (1), (2)")
    database.savepoint()
    assert database.persistence.read_redo() == []
    database.execute("INSERT INTO t VALUES (3)")
    database.persistence.close()

    recovered = Database(data_dir=tmp_path)
    assert recovered.execute("SELECT COUNT(*) FROM t").scalar() == 3


def test_update_survives_recovery(tmp_path):
    database = Database(data_dir=tmp_path)
    database.execute("CREATE TABLE t (id INT, v DOUBLE)")
    database.savepoint()
    database.execute("INSERT INTO t VALUES (1, 10.0)")
    database.execute("UPDATE t SET v = 20.0 WHERE id = 1")
    database.persistence.close()

    recovered = Database(data_dir=tmp_path)
    assert recovered.execute("SELECT v FROM t").rows == [[20.0]]


def test_rolled_back_txn_not_replayed(tmp_path):
    database = Database(data_dir=tmp_path)
    database.execute("CREATE TABLE t (id INT)")
    database.savepoint()
    txn = database.begin()
    database.table("t").insert([99], txn)
    database.rollback(txn)
    database.execute("INSERT INTO t VALUES (1)")
    database.persistence.close()

    recovered = Database(data_dir=tmp_path)
    assert recovered.execute("SELECT id FROM t").rows == [[1]]


def test_torn_tail_line_ignored(tmp_path):
    database = Database(data_dir=tmp_path)
    database.execute("CREATE TABLE t (id INT)")
    database.savepoint()
    database.execute("INSERT INTO t VALUES (1)")
    database.persistence.close()
    with open(tmp_path / "redo.log", "a", encoding="utf-8") as handle:
        handle.write('{"cid": 99, "records": [{"op": "insert", "table"')
    recovered = Database(data_dir=tmp_path)
    assert recovered.execute("SELECT COUNT(*) FROM t").scalar() == 1


def test_ddl_survives_recovery_without_savepoint(tmp_path):
    database = Database(data_dir=tmp_path)
    database.execute("CREATE TABLE fresh (id INT)")
    database.execute("INSERT INTO fresh VALUES (7)")
    database.persistence.close()

    recovered = Database(data_dir=tmp_path)
    assert recovered.execute("SELECT id FROM fresh").rows == [[7]]


def test_double_recovery_is_idempotent(tmp_path):
    database = Database(data_dir=tmp_path)
    database.execute("CREATE TABLE t2 (id INT)")
    database.execute("INSERT INTO t2 VALUES (1), (2)")
    database.persistence.close()

    first = Database(data_dir=tmp_path)
    assert first.execute("SELECT COUNT(*) FROM t2").scalar() == 2
    first.persistence.close()
    second = Database(data_dir=tmp_path)
    assert second.execute("SELECT COUNT(*) FROM t2").scalar() == 2


def test_physical_savepoint_recovery(tmp_path):
    database = Database(data_dir=tmp_path)
    database.execute("CREATE TABLE t (id INT, v VARCHAR)")
    database.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    database.execute("DELETE FROM t WHERE id = 2")
    database.merge("t")
    database.physical_savepoint()
    database.execute("INSERT INTO t VALUES (4, 'd')")  # log tail after snapshot
    database.persistence.close()

    recovered = Database(data_dir=tmp_path)
    rows = recovered.execute("SELECT id, v FROM t ORDER BY id").rows
    assert rows == [[1, "a"], [3, "c"], [4, "d"]]
    # new writes work on the re-attached structures
    recovered.execute("UPDATE t SET v = 'z' WHERE id = 1")
    assert recovered.execute("SELECT v FROM t WHERE id = 1").scalar() == "z"


def test_physical_recovery_scrubs_in_flight_transactions(tmp_path):
    database = Database(data_dir=tmp_path)
    database.execute("CREATE TABLE t (id INT)")
    database.execute("INSERT INTO t VALUES (1)")
    zombie = database.begin()
    database.table("t").insert([99], zombie)          # never commits
    matches = database.table("t").find_rows(lambda r: r[0] == 1, zombie.snapshot_cid, zombie.tid)
    database.table("t").partitions[matches[0][0]].mark_deleted(matches[0][1], zombie)
    database.physical_savepoint()                      # crash with zombie open
    database.persistence.close()

    recovered = Database(data_dir=tmp_path)
    assert recovered.execute("SELECT id FROM t").rows == [[1]]


def test_physical_savepoint_preserves_text_index_rebuildability(tmp_path):
    from repro.engines.text.index import create_text_index

    database = Database(data_dir=tmp_path)
    database.execute("CREATE TABLE docs (id INT, body VARCHAR)")
    create_text_index(database, "docs", "body")
    database.execute("INSERT INTO docs VALUES (1, 'searchable text')")
    database.physical_savepoint()
    database.persistence.close()

    recovered = Database(data_dir=tmp_path)
    # listeners were dropped by pickling; a fresh index rebuilds from data
    create_text_index(recovered, "docs", "body")
    assert recovered.execute(
        "SELECT COUNT(*) FROM docs WHERE CONTAINS(body, 'searchable')"
    ).scalar() == 1


@pytest.mark.parametrize("savepoint", ["savepoint", "physical_savepoint"])
def test_replay_of_keyed_deletes_looks_rows_up_by_key(tmp_path, monkeypatch, savepoint):
    """A logged delete names its row; on a keyed table recovery finds the
    version through the key, not by materialising the table per record."""
    from repro.columnstore.table import ColumnTable, TablePartition

    table_rows, touched = 300, 20
    database = Database(data_dir=tmp_path)
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE, name VARCHAR)")
    txn = database.begin()
    database.table("t").insert_many([[i, i * 0.5, f"n{i % 9}"] for i in range(table_rows)], txn)
    database.commit(txn)
    database.merge("t")
    getattr(database, savepoint)()
    for index in range(touched):  # the log tail: 2 * touched delete records
        database.execute(f"UPDATE t SET v = v + 1 WHERE id = {index * 3}")
        database.execute(f"DELETE FROM t WHERE id = {index * 3 + 1}")
    expected = database.execute("SELECT id, v, name FROM t ORDER BY id").rows
    assert len(expected) == table_rows - touched
    database.persistence.close()

    materialised = []
    rows_at = TablePartition.rows_at

    def counting(self, positions, *args):
        materialised.append(len(positions))
        return rows_at(self, positions, *args)

    monkeypatch.setattr(TablePartition, "rows_at", counting)
    monkeypatch.setattr(ColumnTable, "find_rows", None)  # a keyed table must not need it
    recovered = Database(data_dir=tmp_path)
    monkeypatch.undo()
    assert recovered.execute("SELECT id, v, name FROM t ORDER BY id").rows == expected
    # one candidate version per delete record, plus the closing logical
    # savepoint's single pass over the table — not table_rows per record
    assert sum(materialised) <= 2 * touched + table_rows
    with pytest.raises(DuplicateKeyError):  # the recovered table still enforces its key
        recovered.execute("INSERT INTO t VALUES (0, 0.0, 'again')")


def test_replay_of_a_large_delete_is_linear(tmp_path):
    """Recovery matches a logged DELETE's rows through a multiset: 8 000
    deleted rows at the end of a 20 000-row keyless table replay in about
    0.1 s (2 cores, CPython 3.11); a list scan per row took over 3 s."""
    import time

    database = Database(data_dir=tmp_path)
    database.execute("CREATE TABLE t (a INT, b VARCHAR)")
    values = ", ".join(f"({i}, 'v{i % 7}')" for i in range(20000))
    database.execute(f"INSERT INTO t VALUES {values}")
    database.execute("DELETE FROM t WHERE a >= 12000")
    database.persistence.close()

    started = time.perf_counter()
    recovered = Database(data_dir=tmp_path)
    elapsed = time.perf_counter() - started
    assert recovered.execute("SELECT COUNT(*), MAX(a) FROM t").rows == [[12000, 11999]]
    assert elapsed < 1.0, f"reopen took {elapsed:.2f} s"


def test_a_savepoint_naming_a_missing_class_raises_persistence_error(tmp_path):
    from repro.errors import PersistenceError

    database = Database(data_dir=tmp_path)
    database.execute("CREATE TABLE t (id INT)")
    database.physical_savepoint()
    database.persistence.close()
    # a pickle naming a class this build does not have: one GLOBAL opcode, then STOP
    (tmp_path / "savepoint.phys").write_bytes(b"crepro.util.arrays\nGrowableInt64\n.")
    with pytest.raises(PersistenceError, match=r"savepoint\.phys.*GrowableInt64"):
        Database(data_dir=tmp_path)
