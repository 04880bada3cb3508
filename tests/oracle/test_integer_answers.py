"""Integer answers checked against stdlib ``sqlite3``: type *and* value.

One rule turns values into a column (:mod:`repro.util.arrays`): an INTEGER
column that holds a NULL reads as exact Python integers beside ``None``,
and every operator after the scan — arithmetic, functions, CASE, the pad
of a LEFT JOIN, the aggregates — keeps them integers. sqlite3 answers an
integer for each query below; so must this engine, in value and in Python
type, since ``10 == 10.0`` would let a float through a value comparison.
The rows are held in the delta, merged into main, half of each, or in a
row table, and every query runs through the vectorised and the compiled
driver. The SOE answers SUM and MAX over the same column as the core does.
An integer SUM beyond BIGINT is refused in both and in Volcano, as sqlite3
refuses it, never wrapped; AVG over the same values answers sqlite3's float.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.database import Database
from repro.errors import TypeMismatchError
from repro.soe.engine import SoeEngine
from repro.sql.compiler import compile_plan
from repro.sql.parser import parse
from repro.sql.planner import plan_select
from repro.sql.volcano import execute_volcano

#: (id, x, g): group 3 holds only a NULL x
A_ROWS = [(1, 10, 1), (2, None, 1), (3, 7, 2), (4, None, 3)]
#: (id, x): joined to ``a`` on id; a's ids 2 and 4 find no row
B_ROWS = [(1, 10), (3, None)]

QUERIES = [
    "SELECT id, x FROM a",
    "SELECT id, x + 1 FROM a",
    "SELECT MAX(x) FROM a",
    "SELECT a.id, b.x, b.id FROM a LEFT JOIN b ON a.id = b.id",
    "SELECT id, CASE WHEN id = 1 THEN 5 ELSE 6 END FROM a",
    "SELECT id, CASE WHEN x > 8 THEN x END FROM a",
    "SELECT id, COALESCE(x, 0), ABS(x) FROM a",
    "SELECT SUM(x), MIN(x), MAX(x), AVG(x), COUNT(x) FROM a",
    "SELECT g, SUM(x), MIN(x), MAX(x), AVG(x), COUNT(x) FROM a GROUP BY g",
    "SELECT SUM(x), MAX(x), COUNT(x), SUM(id) FROM a WHERE x IS NULL",
]
STORAGE = ("delta", "merged", "mixed", "row")


def _values(rows) -> str:
    return ", ".join("(" + ", ".join("NULL" if v is None else str(v) for v in row) + ")" for row in rows)


def _typed(rows) -> list[tuple]:
    """Rows up to order, each value paired with its Python type."""
    return sorted((tuple((type(v).__name__, v) for v in row) for row in rows), key=repr)


@pytest.fixture(scope="module")
def oracle():
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE a (id INTEGER, x INTEGER, g INTEGER)")
    connection.execute("CREATE TABLE b (id INTEGER, x INTEGER)")
    connection.execute(f"INSERT INTO a VALUES {_values(A_ROWS)}")
    connection.execute(f"INSERT INTO b VALUES {_values(B_ROWS)}")
    yield connection
    connection.close()


def _stored(storage: str, tables: dict[str, tuple[str, list[tuple]]]) -> Database:
    """A database holding each ``name: (columns, rows)`` table as ``storage``
    says: in the delta, merged into main, half of each, or a row table."""
    db = Database()
    kind = "ROW TABLE" if storage == "row" else "TABLE"
    for name, (columns, _rows) in tables.items():
        db.execute(f"CREATE {kind} {name} ({columns})")
    for name, (_columns, rows) in tables.items():
        split = len(rows) // 2 if storage == "mixed" else len(rows)
        db.execute(f"INSERT INTO {name} VALUES {_values(rows[:split])}")
        if storage in ("merged", "mixed"):
            db.merge(name)
        if rows[split:]:
            db.execute(f"INSERT INTO {name} VALUES {_values(rows[split:])}")
    return db


@pytest.fixture(scope="module", params=STORAGE)
def database(request):
    return _stored(request.param, {"a": ("id INT, x INT, g INT", A_ROWS), "b": ("id INT, x INT", B_ROWS)})


@pytest.mark.parametrize("sql", QUERIES)
def test_integer_answers_match_sqlite_in_type_and_value(database, oracle, sql):
    expected = _typed(oracle.execute(sql).fetchall())
    plan = plan_select(parse(sql), database.catalog)
    assert _typed(database.execute(sql).rows) == expected, "vectorised"
    assert _typed(compile_plan(plan).run(database._context(None, None))) == expected, "compiled"


def test_the_soe_answers_sum_and_max_over_an_int_column_with_a_null_as_the_core():
    soe = SoeEngine(node_count=2)
    soe.create_table("a", ["id", "x", "g"], key_columns=["id"], partition_count=2)
    soe.load("a", [list(row) for row in A_ROWS])
    core = Database()
    core.execute("CREATE TABLE a (id INT, x INT, g INT)")
    core.execute(f"INSERT INTO a VALUES {_values(A_ROWS)}")
    for group_by in ([], ["g"]):
        rows, _cost = soe.aggregate("a", group_by=group_by, aggregates=[("sum", "x"), ("max", "x")])
        keys = "".join(f"{column}, " for column in group_by)
        grouping = f" GROUP BY {', '.join(group_by)}" if group_by else ""
        answer = core.execute(f"SELECT {keys}SUM(x), MAX(x) FROM a{grouping}").rows
        assert _typed(rows) == _typed(answer), group_by
    assert _typed(rows) == _typed([[1, 10, 10], [2, 7, 7], [3, None, None]])


#: (g, n): group 1 sums to 2**63, one beyond BIGINT
BIG_ROWS = [(1, 2**62), (1, 2**62), (2, 5)]
BIG_QUERIES = {
    "SELECT SUM(n) FROM big": "SELECT AVG(n) FROM big",
    "SELECT g, SUM(n) FROM big GROUP BY g": "SELECT g, AVG(n) FROM big GROUP BY g",
}


@pytest.fixture(scope="module")
def big_oracle():
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE big (g INTEGER, n INTEGER)")
    connection.execute(f"INSERT INTO big VALUES {_values(BIG_ROWS)}")
    yield connection
    connection.close()


@pytest.mark.parametrize("storage", STORAGE)
@pytest.mark.parametrize("total, average", BIG_QUERIES.items())
def test_an_integer_sum_beyond_bigint_is_refused_and_its_average_answered(big_oracle, storage, total, average):
    with pytest.raises(sqlite3.OperationalError, match="integer overflow"):
        big_oracle.execute(total).fetchall()
    database = _stored(storage, {"big": ("g INT, n BIGINT", BIG_ROWS)})
    with pytest.raises(TypeMismatchError, match="BIGINT out of range"):
        database.execute(total)
    with pytest.raises(TypeMismatchError, match="BIGINT out of range"):
        compile_plan(plan_select(parse(total), database.catalog)).run(database._context(None, None))
    expected = _typed(big_oracle.execute(average).fetchall())
    assert _typed(database.execute(average).rows) == expected
    in_range = total.replace("FROM big", "FROM big WHERE g = 2")
    assert _typed(database.execute(in_range).rows) == _typed(big_oracle.execute(in_range).fetchall())


@pytest.mark.parametrize("storage", STORAGE)
@pytest.mark.parametrize("total, average", BIG_QUERIES.items())
def test_volcano_refuses_an_integer_sum_beyond_bigint_and_answers_its_average(big_oracle, storage, total, average):
    database = _stored(storage, {"big": ("g INT, n BIGINT", BIG_ROWS)})
    with pytest.raises(TypeMismatchError, match="BIGINT out of range"):
        execute_volcano(plan_select(parse(total), database.catalog), database._context(None, None))
    expected = _typed(big_oracle.execute(average).fetchall())
    plan = plan_select(parse(average), database.catalog)
    assert _typed(execute_volcano(plan, database._context(None, None))) == expected


@pytest.mark.parametrize("group_by", [[], ["g"]])
def test_the_soe_refuses_an_integer_sum_beyond_bigint_and_answers_its_average(big_oracle, group_by):
    soe = SoeEngine(node_count=2)
    soe.create_table("big", ["id", "g", "n"], key_columns=["id"], partition_count=2)
    soe.load("big", [[index, g, n] for index, (g, n) in enumerate(BIG_ROWS)])
    with pytest.raises(TypeMismatchError, match="BIGINT out of range"):
        soe.aggregate("big", group_by=group_by, aggregates=[("sum", "n")])
    rows, _cost = soe.aggregate("big", group_by=group_by, aggregates=[("avg", "n")])
    average = "SELECT g, AVG(n) FROM big GROUP BY g" if group_by else "SELECT AVG(n) FROM big"
    assert _typed(rows) == _typed(big_oracle.execute(average).fetchall())
