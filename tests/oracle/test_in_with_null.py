"""IN lists with a NULL item, checked against stdlib ``sqlite3``.

``v IN (1, NULL)`` is TRUE where ``v`` is 1 and UNKNOWN elsewhere, never
FALSE: no item matched, but the NULL one might have. So ``v NOT IN
(1, NULL)`` and ``NOT (v IN (1, NULL))`` keep no row at all, and a NULL
item that comes from a column makes only its own rows UNKNOWN. The
vectorised and compiled drivers and Volcano must all answer as sqlite3
does, over rows held in the delta, merged into main, or half of each.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.database import Database
from repro.sql.compiler import compile_plan
from repro.sql.parser import parse
from repro.sql.planner import plan_select
from repro.sql.volcano import execute_volcano

#: (id, v, w, name)
ROWS = [(1, 1, 1, "ab"), (2, None, 3, None), (3, 5, None, "cd"), (4, 5, 7, "ab")]
WHERES = [
    "v IN (1, NULL)",
    "v NOT IN (1, NULL)",
    "NOT (v IN (1, NULL))",
    "NOT (v NOT IN (1, NULL))",
    "v NOT IN (1, 2)",
    "v NOT IN (1, w)",
    "v IN (1, w)",
    "name NOT IN ('ab', NULL)",
    "NOT (name IN ('zz', NULL) OR id = 1)",
    "v NOT IN (NULL)",
]


def _values(rows) -> str:
    return ", ".join("(" + ", ".join("NULL" if v is None else repr(v) for v in row) + ")" for row in rows)


@pytest.fixture(scope="module")
def oracle():
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (id INTEGER, v INTEGER, w INTEGER, name VARCHAR)")
    connection.execute(f"INSERT INTO t VALUES {_values(ROWS)}")
    yield connection
    connection.close()


@pytest.fixture(scope="module", params=["delta", "merged", "mixed"])
def database(request):
    db = Database()
    db.execute("CREATE TABLE t (id INT, v INT, w INT, name VARCHAR)")
    split = len(ROWS) // 2 if request.param == "mixed" else len(ROWS)
    db.execute(f"INSERT INTO t VALUES {_values(ROWS[:split])}")
    if request.param != "delta":
        db.merge("t")
    if ROWS[split:]:
        db.execute(f"INSERT INTO t VALUES {_values(ROWS[split:])}")
    return db


@pytest.mark.parametrize("where", WHERES)
def test_a_null_item_of_in_is_unknown_as_sqlite_says(database, oracle, where):
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
