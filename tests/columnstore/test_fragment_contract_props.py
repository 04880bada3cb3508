"""Property tests: main and delta fragments answer alike, as a plain list would.

The same rows are stored three ways — all in the delta, all merged into
main, or half merged and half in the delta — and read through the scan
and the table API:

* a column read by a scan (``take``): the values, and their Python types,
  a plain list gives — an INTEGER or BIGINT column holding a NULL too;
* ``column <op> literal(s)`` in a WHERE clause (``mask``): ``=``, ``<>``,
  ``IN``, ``BETWEEN``, ``<`` and their negations, NULL satisfying none;
* ``values_at``: the exact stored values;
* ``key_versions`` (``positions_of`` on the key column): the row holding
  a key, none for NULL or an absent key.

``-0.0`` equals ``0.0``, as in SQL; a value's type is checked with it.
"""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.database import Database

BIG = 2**63 - 1
TEXT = st.text(alphabet=st.sampled_from("ab'Z éü日\U0001f600"), max_size=4)
VALUES = {
    "INTEGER": st.integers(-(2**31), 2**31 - 1) | st.sampled_from([0, -1, 2**31 - 1]),
    "BIGINT": st.integers(-BIG, BIG) | st.sampled_from([BIG, -BIG, 0]),
    "DOUBLE": st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, float("inf"), float("-inf")]),
    "BOOLEAN": st.booleans(),
    "VARCHAR": TEXT,
    "DATE": st.dates(min_value=dt.date(1900, 1, 1), max_value=dt.date(2100, 12, 31)),
}
STORAGE = ("delta", "merged", "mixed")


def literal(value) -> str:
    """``value`` as a SQL literal."""
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, dt.date):
        return f"DATE '{value.isoformat()}'"
    return repr(value)


def can_render(value) -> bool:
    return not (isinstance(value, float) and value in (float("inf"), float("-inf")))


def same(got: list, expected: list) -> bool:
    """Equal values of equal Python types, NULL as ``None``."""
    return [(type(v), v) for v in got] == [(type(v), v) for v in expected]


def stored(type_name: str, ddl: str, rows: list[list], storage: str) -> Database:
    """The rows in one partition: delta only, merged, or half of each."""
    database = Database()
    database.execute(ddl.format(type=type_name))
    table = database.table("t")
    split = {"delta": 0, "merged": len(rows), "mixed": len(rows) // 2}[storage]
    for batch, merge in ((rows[:split], True), (rows[split:], False)):
        if batch:
            txn = database.begin()
            table.insert_many(batch, txn)
            database.commit(txn)
        if merge:
            database.merge("t")
    return database


@st.composite
def cases(draw, type_name: str):
    values = draw(st.lists(st.none() | VALUES[type_name], min_size=1, max_size=12))
    storage = draw(st.sampled_from(STORAGE))
    pool = [value for value in values if value is not None and can_render(value)]
    extra = st.sampled_from(pool) | VALUES[type_name] if pool else VALUES[type_name]
    literals = draw(st.lists(extra.filter(can_render), min_size=3, max_size=3))
    return values, storage, literals


def predicates(literals: list) -> list[tuple[str, object]]:
    """``(WHERE clause on v, the same test in Python)``; NULL passes none."""
    a, b, c = literals
    low, high = min(a, b), max(a, b)
    members = (a, b, c)
    return [
        (f"v = {literal(a)}", lambda v: v == a),
        (f"v <> {literal(a)}", lambda v: v != a),
        (f"v IN ({literal(a)}, {literal(b)}, {literal(c)})", lambda v: v in members),
        (f"v NOT IN ({literal(a)}, {literal(b)}, {literal(c)})", lambda v: v not in members),
        (f"v BETWEEN {literal(low)} AND {literal(high)}", lambda v: low <= v <= high),
        (f"v NOT BETWEEN {literal(low)} AND {literal(high)}", lambda v: not low <= v <= high),
        (f"v < {literal(a)}", lambda v: v < a),
        (f"NOT v < {literal(a)}", lambda v: not v < a),
    ]


@pytest.mark.parametrize("type_name", list(VALUES))
def test_fragments_answer_like_a_list(type_name):
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=cases(type_name))
    def check(case):
        values, storage, literals = case
        rows = [[index, value] for index, value in enumerate(values)]
        database = stored(type_name, "CREATE TABLE t (id INT PRIMARY KEY, v {type})", rows, storage)
        partition = database.table("t").partitions[0]
        assert partition.n_delta == {"delta": len(rows), "merged": 0, "mixed": len(rows) - len(rows) // 2}[storage]

        scanned = database.execute("SELECT v FROM t").rows
        assert same([row[0] for row in scanned], values)
        picked = list(range(0, len(values), 2))
        ids = ", ".join(map(str, picked))
        scanned = database.execute(f"SELECT v FROM t WHERE id IN ({ids})").rows
        assert same([row[0] for row in scanned], [values[index] for index in picked])

        positions = np.asarray(picked, dtype=np.int64)
        assert same(partition.values_at("v", positions), [values[index] for index in picked])

        for where, test in predicates(literals):
            got = [row[0] for row in database.execute(f"SELECT id FROM t WHERE {where}").rows]
            expected = [index for index, value in enumerate(values) if value is not None and test(value)]
            assert sorted(got) == expected, where

    check()


@pytest.mark.parametrize("type_name", list(VALUES))
def test_key_versions_name_every_row_of_a_key(type_name):
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        keys=st.lists(VALUES[type_name], min_size=1, max_size=10, unique=True),
        absent=VALUES[type_name],
        storage=st.sampled_from(STORAGE),
    )
    def check(keys, absent, storage):
        rows = [[value, index] for index, value in enumerate(keys)]
        database = stored(type_name, "CREATE TABLE t (v {type} PRIMARY KEY, id INT)", rows, storage)
        partition = database.table("t").partitions[0]
        for key in [*keys, absent, None]:
            expected = [index for index, value in enumerate(keys) if value == key]
            assert partition.key_versions(key).tolist() == expected, key

    check()
