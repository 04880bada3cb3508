"""UPDATE, DELETE and multi-row VALUES checked against stdlib ``sqlite3``.

Every DML statement is one set operation on the table: the matched rows
are read once, each assignment is evaluated once over all of them, and
the table deletes the old versions and inserts the new ones together. So
an assignment reads the *old* values of every column, a NULL stays NULL
through arithmetic, and the rowcount is the matched set's size — what
sqlite3 answers too. Each statement runs on rows held in the delta, merged
into the main, and in both (with an updated and a deleted version
around), on a single-partition, a hash-partitioned and a row table.

What sqlite3 cannot judge is pinned directly below: keys are checked at
the end of the statement (sqlite3 checks them row by row), and a refused
statement writes nothing at all.
"""

from __future__ import annotations

import cProfile
import math
import pstats
import sqlite3

import pytest

from repro.core.database import Database
from repro.errors import DuplicateKeyError, TypeMismatchError

ROWS = [
    (i, None if i % 7 == 0 else i % 9, None if i % 5 == 0 else i * 2.5, [None, "x", "y"][i % 3])
    for i in range(40)
]

STATEMENTS = [
    "UPDATE t SET a = a + 1",
    "UPDATE t SET b = a * 2.5 WHERE s = 'x'",
    "UPDATE t SET a = NULL WHERE b > 50",
    "UPDATE t SET s = s || '!' WHERE id IN (3, 4, 5)",
    "UPDATE t SET a = id, b = a WHERE id = 7",
    "UPDATE t SET a = 0 WHERE a IS NULL",
    "UPDATE t SET s = 'none' WHERE s IS NULL AND id > 20",
    "UPDATE t SET b = b / 2, a = a - 1 WHERE id BETWEEN 5 AND 15",
    "UPDATE t SET id = id + 100 WHERE id < 10",
    "UPDATE t SET a = 1 WHERE id = 999",
    "DELETE FROM t WHERE a > 5",
    "DELETE FROM t WHERE id = 3",
    "DELETE FROM t WHERE s IS NULL",
    "DELETE FROM t WHERE id IN (1, 2, 99) OR b < 10",
    "DELETE FROM t",
    "INSERT INTO t VALUES (100, 1, 2.5, 'n'), (101, NULL, NULL, NULL), (102, 3, 4.0, 'm')",
    "INSERT INTO t (id, s) VALUES (103, 'q'), (104, NULL)",
]

#: what ``mixed`` storage does after the merge, on both sides
MIXED_WRITES = ["UPDATE t SET a = 77 WHERE id = 1", "DELETE FROM t WHERE id = 2"]

LAYOUTS = {
    "single": "CREATE TABLE t (id INT PRIMARY KEY, a INT, b DOUBLE, s VARCHAR)",
    "hash": "CREATE TABLE t (id INT PRIMARY KEY, a INT, b DOUBLE, s VARCHAR) "
    "PARTITION BY HASH (id) PARTITIONS 3",
    "row": "CREATE ROW TABLE t (id INT PRIMARY KEY, a INT, b DOUBLE, s VARCHAR)",
}


def _values(rows):
    return ", ".join(
        "(" + ", ".join("NULL" if v is None else repr(v) for v in row) + ")" for row in rows
    )


def _normalise(rows):
    """Rows up to order, with 10.0 and 10 (and NaN and NULL) the same."""

    def value(v):
        if isinstance(v, float):
            if math.isnan(v):
                return None
            if v.is_integer():
                return int(v)
            return round(v, 9)
        return v

    return sorted((tuple(value(v) for v in row) for row in rows), key=repr)


def _contents(connection):
    return _normalise(connection.execute("SELECT id, a, b, s FROM t").fetchall())


def _pair(layout, state):
    """sqlite3 and this database holding the same rows in ``state``."""
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b REAL, s TEXT)")
    database = Database()
    database.execute(LAYOUTS[layout])
    first, rest = (ROWS, []) if state == "delta" else (ROWS[:30], ROWS[30:])
    for connection in (oracle, database):
        connection.execute(f"INSERT INTO t VALUES {_values(first)}")
    if state == "delta":
        return oracle, database
    database.merge("t")
    if state == "mixed":
        for sql in [f"INSERT INTO t VALUES {_values(rest)}", *MIXED_WRITES]:
            oracle.execute(sql)
            database.execute(sql)
    return oracle, database


@pytest.mark.parametrize("state", ["delta", "merged", "mixed"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("sql", STATEMENTS)
def test_dml_matches_sqlite(layout, state, sql):
    oracle, database = _pair(layout, state)
    expected_count = oracle.execute(sql).rowcount
    assert database.execute(sql).rowcount == expected_count
    rows = database.execute("SELECT id, a, b, s FROM t").rows
    assert _normalise(rows) == _contents(oracle)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_statement_sequence_matches_sqlite(layout):
    oracle, database = _pair(layout, "mixed")
    for index, sql in enumerate(STATEMENTS[:-3]):  # all but the emptying DELETE and the inserts
        if index == 5:
            database.merge("t")  # the rest rewrites versions of a fresh main
        assert database.execute(sql).rowcount == oracle.execute(sql).rowcount, sql
    assert _normalise(database.execute("SELECT id, a, b, s FROM t").rows) == _contents(oracle)


# -- what sqlite3 cannot judge ---------------------------------------------------------


def _keyed(count, partitions=None):
    database = Database()
    partitioned = f" PARTITION BY HASH (id) PARTITIONS {partitions}" if partitions else ""
    database.execute(f"CREATE TABLE k (id INT PRIMARY KEY, v DOUBLE){partitioned}")
    database.execute(f"INSERT INTO k VALUES {_values([(i, float(i)) for i in range(count)])}")
    database.merge("k")
    return database


def _ids(database):
    return [row[0] for row in database.query("SELECT id FROM k ORDER BY id").rows]


@pytest.mark.parametrize("partitions", [None, 2])
def test_a_key_collision_anywhere_in_the_set_writes_nothing(partitions):
    database = _keyed(1000, partitions)
    database.execute("INSERT INTO k VALUES (10500, 0.0)")  # row 500 moves onto this key
    table = database.table("k")
    delta_rows, before = table.delta_rows(), _ids(database)
    txn = database.begin()
    with pytest.raises(DuplicateKeyError, match="id = 10500"):
        database.execute("UPDATE k SET id = id + 10000, v = v + 1 WHERE id < 1000", txn=txn)
    assert txn.is_read_only
    assert table.delta_rows() == delta_rows
    database.commit(txn)
    assert _ids(database) == before


def test_keys_are_judged_at_the_end_of_the_statement():
    database = _keyed(4)
    database.execute("DELETE FROM k WHERE id = 0")
    # row 1 moves onto key 2 before row 2 has moved away: fine at the end
    assert database.execute("UPDATE k SET id = id + 1").rowcount == 3
    assert _ids(database) == [2, 3, 4]
    assert database.execute("UPDATE k SET id = id - 1").rowcount == 3
    assert _ids(database) == [1, 2, 3]


def test_a_statement_may_not_write_one_key_twice():
    database = _keyed(4)
    with pytest.raises(DuplicateKeyError, match="more than once"):
        database.execute("UPDATE k SET id = 3 WHERE id < 3")
    assert _ids(database) == [0, 1, 2, 3]


def test_a_refused_values_list_leaves_no_tombstone():
    database = _keyed(4)
    table = database.table("k")
    txn = database.begin()
    with pytest.raises(DuplicateKeyError, match="id = 2"):
        database.execute("INSERT INTO k VALUES (7, 0.0), (2, 0.0), (8, 0.0)", txn=txn)
    with pytest.raises(DuplicateKeyError, match="more than once"):
        database.execute("INSERT INTO k VALUES (7, 0.0), (7, 1.0)", txn=txn)
    assert txn.is_read_only and table.delta_rows() == 0
    database.commit(txn)
    assert _ids(database) == [0, 1, 2, 3]


def test_assignments_use_exact_integer_arithmetic():
    database = Database()
    database.execute("CREATE TABLE big (id INT PRIMARY KEY, n BIGINT)")
    database.execute("INSERT INTO big VALUES (1, 4611686018427387904), (2, 9007199254740993)")
    with pytest.raises(TypeMismatchError, match="out of range"):  # 2**63: refused, not wrapped
        database.execute("UPDATE big SET n = n * 2")
    assert database.execute("UPDATE big SET n = n + 1 WHERE id = 2").rowcount == 1
    assert database.query("SELECT n FROM big WHERE id = 2").scalar() == 9007199254740994


@pytest.mark.parametrize(
    "sql",
    [
        "UPDATE k SET v = v + 1 WHERE id BETWEEN 1000 AND 1999",
        "DELETE FROM k WHERE id BETWEEN 1000 AND 1999",
    ],
)
def test_set_writes_cost_a_few_calls_per_row(sql):
    """Counted work, not time: a 1 000-row statement makes a bounded number
    of Python calls per row (a row-at-a-time write made ~430)."""
    database = _keyed(3000)
    database.execute(sql.replace("1000 AND 1999", "2500 AND 2501"))  # the shape, warmed
    profile = cProfile.Profile()
    profile.enable()
    result = database.execute(sql)
    profile.disable()
    assert result.rowcount == 1000
    assert pstats.Stats(profile).total_calls / result.rowcount <= 25
