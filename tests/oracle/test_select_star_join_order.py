"""``SELECT *`` over a join answers the columns of the statement as written.

The planner may reorder an inner join once cardinality feedback says the
second table is the smaller one — from the second run of a statement on.
The join order is the planner's business; the answer's columns are the
statement's: ``*`` expands to each table's columns in ``FROM`` order,
whatever order the join runs in. Judged by stdlib ``sqlite3`` on the first
and the third run, with the plan cache on and off.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.database import Database

SQL = "SELECT * FROM sales s JOIN regions r ON s.region = r.code"
SALES = [(f"r{i % 5}", i) for i in range(2000)]
REGIONS = [(f"r{i}", f"c{i % 2}") for i in range(5)]


def _load(connection):
    connection.execute("CREATE TABLE sales (region VARCHAR, x INT)")
    connection.execute("CREATE TABLE regions (code VARCHAR, continent VARCHAR)")
    for table, rows in (("sales", SALES), ("regions", REGIONS)):
        connection.execute(f"INSERT INTO {table} VALUES " + ", ".join(f"({a!r}, {b!r})" for a, b in rows))


@pytest.mark.parametrize("cached", [True, False], ids=["plan-cache", "no-plan-cache"])
def test_star_columns_follow_the_statement_not_the_join_order(cached):
    oracle = sqlite3.connect(":memory:")
    _load(oracle)
    cursor = oracle.execute(SQL)
    columns = [description[0] for description in cursor.description]
    rows = sorted(cursor.fetchall())
    database = Database()
    database.plan_cache_enabled = cached
    _load(database)
    answers = [database.execute(SQL) for _run in range(3)]
    assert columns == ["region", "x", "code", "continent"]
    for run in (0, 2):
        assert answers[run].columns == columns, run
        assert sorted(map(tuple, answers[run].rows)) == rows, run
