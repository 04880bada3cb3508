"""The dialect differences DESIGN.md declares, pinned one test per row.

Each test states what this engine answers and, where sqlite3 can say it,
that sqlite3 answers differently — so the "Declared deviations" table
cannot go stale in either direction.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.database import Database
from repro.errors import SqlSyntaxError, TypeMismatchError


@pytest.fixture
def pair():
    database = Database()
    oracle = sqlite3.connect(":memory:")
    for target in (database, oracle):
        target.execute("CREATE TABLE t (a INT)")
        target.execute("INSERT INTO t VALUES (2), (NULL), (1)")
    yield database, oracle
    oracle.close()


def test_nulls_sort_last_both_ways_and_have_no_syntax(pair):
    database, oracle = pair
    for direction in ("ASC", "DESC"):
        ours = [row[0] for row in database.execute(f"SELECT a FROM t ORDER BY a {direction}").rows]
        theirs = [row[0] for row in oracle.execute(f"SELECT a FROM t ORDER BY a {direction}")]
        assert ours[-1] is None
        assert sorted(ours, key=repr) == sorted(theirs, key=repr)
    assert oracle.execute("SELECT a FROM t ORDER BY a ASC").fetchone() == (None,)  # sqlite: first
    with pytest.raises(SqlSyntaxError):
        database.execute("SELECT a FROM t ORDER BY a NULLS FIRST")


def test_integer_division_is_exact(pair):
    database, oracle = pair
    assert database.execute("SELECT 7 / 2").rows == [[3.5]]
    assert oracle.execute("SELECT 7 / 2").fetchall() == [(3,)]  # sqlite truncates


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT a FROM t WHERE a IN (SELECT a FROM t)",
        "SELECT a FROM t WHERE EXISTS (SELECT a FROM t)",
    ],
)
def test_subquery_predicates_are_rejected_by_the_parser(pair, sql):
    database, oracle = pair
    with pytest.raises(SqlSyntaxError):
        database.execute(sql)
    assert oracle.execute(sql).fetchall()  # sqlite answers them


@pytest.mark.parametrize(
    "value, expr, at_five",
    [(2**63 - 1, "n + 1", 6), (-(2**63), "n - 1", 4), (2**62, "n * 2", 10), (-(2**63), "-n", -5)],
)
def test_integer_overflow_is_refused_not_wrapped(value, expr, at_five):
    database = Database()
    oracle = sqlite3.connect(":memory:")
    for target in (database, oracle):
        target.execute("CREATE TABLE big (n BIGINT)")
        target.execute(f"INSERT INTO big VALUES ({value})")
    with pytest.raises(TypeMismatchError, match="BIGINT out of range"):
        database.execute(f"SELECT {expr} FROM big")
    assert isinstance(oracle.execute(f"SELECT {expr} FROM big").fetchone()[0], float)  # sqlite: a REAL
    database.execute("UPDATE big SET n = 5")
    assert database.execute(f"SELECT {expr} FROM big").rows == [[at_five]]  # in range: exact


def test_a_case_mixing_int_and_double_branches_answers_double(pair):
    database, oracle = pair
    sql = "SELECT CASE WHEN a = 1 THEN 5 ELSE 2.5 END FROM t WHERE a IS NOT NULL ORDER BY a"
    ours = [row[0] for row in database.execute(sql).rows]
    assert [(type(v), v) for v in ours] == [(float, 5.0), (float, 2.5)]  # one dtype per column
    theirs = [row[0] for row in oracle.execute(sql)]
    assert [(type(v), v) for v in theirs] == [(int, 5), (float, 2.5)]  # sqlite: each row its own
