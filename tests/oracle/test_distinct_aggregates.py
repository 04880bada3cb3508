"""DISTINCT aggregates, checked against stdlib ``sqlite3``.

``SUM(DISTINCT v)`` adds each distinct non-NULL value of its group once,
and ``AVG(DISTINCT v)`` divides that sum by their count, as ``COUNT``
already did. Over ``v = 1, NULL, 5, 1`` sqlite3 answers 6 and 3.0, not the
7 and 2.33 of the plain aggregates. The vectorised and compiled drivers
and Volcano (the harness's reference) must all answer as sqlite3 does,
over rows held in the delta, merged into main, or half of each.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.database import Database
from repro.sql.compiler import compile_plan
from repro.sql.parser import parse
from repro.sql.planner import plan_select
from repro.sql.volcano import execute_volcano

#: (g, v, name, amount): group 1 repeats 1 and holds a NULL; group 3 only a NULL
ROWS = [
    (1, 1, "a", 0.5),
    (1, None, None, 0.5),
    (1, 5, "b", 2.25),
    (1, 1, "a", 0.5),
    (2, 4, "a", 1.0),
    (2, 4, "c", 1.0),
    (2, 6, "c", 3.5),
    (3, None, None, None),
]
QUERIES = [
    "SELECT SUM(DISTINCT v), AVG(DISTINCT v), COUNT(DISTINCT v) FROM t",
    "SELECT g, SUM(DISTINCT v), AVG(DISTINCT v), COUNT(DISTINCT v) FROM t GROUP BY g",
    "SELECT g, MIN(DISTINCT v), MAX(DISTINCT v), SUM(v), COUNT(DISTINCT name) FROM t GROUP BY g",
    "SELECT g, SUM(DISTINCT amount), AVG(DISTINCT amount) FROM t GROUP BY g",
    "SELECT SUM(DISTINCT v) FROM t WHERE v IS NULL",
    "SELECT name, SUM(DISTINCT v) FROM t WHERE g < 3 GROUP BY name",
]


def _values(rows) -> str:
    return ", ".join("(" + ", ".join("NULL" if v is None else repr(v) for v in row) + ")" for row in rows)


def _rounded(rows) -> list[tuple]:
    return sorted(
        (tuple(round(v, 9) if isinstance(v, float) else v for v in row) for row in rows), key=repr
    )


@pytest.fixture(scope="module")
def oracle():
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (g INTEGER, v INTEGER, name VARCHAR, amount DOUBLE)")
    connection.execute(f"INSERT INTO t VALUES {_values(ROWS)}")
    yield connection
    connection.close()


@pytest.fixture(scope="module", params=["delta", "merged", "mixed"])
def database(request):
    db = Database()
    db.execute("CREATE TABLE t (g INT, v INT, name VARCHAR, amount DOUBLE)")
    split = len(ROWS) // 2 if request.param == "mixed" else len(ROWS)
    db.execute(f"INSERT INTO t VALUES {_values(ROWS[:split])}")
    if request.param != "delta":
        db.merge("t")
    if ROWS[split:]:
        db.execute(f"INSERT INTO t VALUES {_values(ROWS[split:])}")
    return db


@pytest.mark.parametrize("sql", QUERIES)
def test_distinct_aggregates_answer_as_sqlite_does(database, oracle, sql):
    expected = _rounded(oracle.execute(sql).fetchall())
    plan = plan_select(parse(sql), database.catalog)
    engines = {
        "vectorised": database.execute(sql).rows,
        "compiled": compile_plan(plan).run(database._context(None, None)),
        "volcano": execute_volcano(plan, database._context(None, None)),
    }
    for name, rows in engines.items():
        assert _rounded(rows) == expected, name
