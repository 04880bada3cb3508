"""NOT over UNKNOWN, checked against stdlib ``sqlite3``.

A comparison, LIKE, IN or BETWEEN with a NULL operand is UNKNOWN, and NOT
UNKNOWN is UNKNOWN again, so ``WHERE NOT v < 3`` keeps no row whose ``v``
is NULL; AND and OR carry UNKNOWN through to the NOT above them. The
vectorised and compiled drivers and Volcano (the harness's reference)
must all answer as sqlite3 does, over rows held in the delta and merged
into main.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.database import Database
from repro.sql.compiler import compile_plan
from repro.sql.parser import parse
from repro.sql.planner import plan_select
from repro.sql.volcano import execute_volcano

ROWS = [(1, 1, "ab"), (2, None, None), (3, 5, "cd")]
WHERES = [
    "NOT v < 3",
    "NOT (v < 3 OR id = 1)",
    "NOT (v < 3 AND id = 2)",
    "NOT name LIKE 'a%'",
    "name NOT LIKE 'a%'",
    "NOT (v <> 1 OR name = 'ab')",
    "NOT v IN (1, 2)",
    "NOT v BETWEEN 0 AND 2",
]


@pytest.fixture(scope="module")
def oracle():
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (id INTEGER, v INTEGER, name VARCHAR)")
    connection.executemany("INSERT INTO t VALUES (?, ?, ?)", ROWS)
    yield connection
    connection.close()


@pytest.fixture(scope="module", params=["delta", "merged"])
def database(request):
    db = Database()
    db.execute("CREATE TABLE t (id INT, v INT, name VARCHAR)")
    txn = db.begin()
    db.table("t").insert_many([list(row) for row in ROWS], txn)
    db.commit(txn)
    if request.param == "merged":
        db.merge("t")
    return db


@pytest.mark.parametrize("where", WHERES)
def test_not_keeps_unknown_as_sqlite_does(database, oracle, where):
    sql = f"SELECT id FROM t WHERE {where}"
    expected = sorted(row[0] for row in oracle.execute(sql))
    plan = plan_select(parse(sql), database.catalog)
    engines = {
        "vectorised": database.execute(sql).rows,
        "compiled": compile_plan(plan).run(database._context(None, None)),
        "volcano": execute_volcano(plan, database._context(None, None)),
    }
    for name, rows in engines.items():
        assert sorted(row[0] for row in rows) == expected, name
