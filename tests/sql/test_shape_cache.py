"""The text shape key: a cache hit runs exactly the statement its text parses to.

``Database.execute`` keys the plan cache on :func:`repro.sql.lexer.shape`
and, on a hit, binds the text's literal values into the cached parse
(and plan) instead of lexing and parsing. The differential tests below
hold that path to the parser: for every statement, the statement a hit
would execute ``==`` ``parse(sql)`` (and has the same ``repr``, so ``7``
and ``7.0`` are told apart), and the answers agree with the cache on and
off. Every hit is verified by ``plancheck.verify_binding`` on the way.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import plancheck
from repro.core import database as database_module
from repro.core.database import Database
from repro.sql.lexer import shape
from repro.sql.parser import parse
from repro.workloads import querygen


def cached_statement(db: Database, sql: str):
    """The statement a hit on ``sql`` executes, or None if ``sql`` would miss."""
    shaped = shape(sql)
    if shaped is None:
        return None
    key, values = shaped
    entry = db.plan_cache.get(key, values=values)
    if entry is None:
        return None
    return entry.template.statement_for(entry.template.bind(values))


def same_statement(got, want) -> bool:
    return got == want and repr(got) == repr(want)


def canonical(result) -> list:
    return sorted((repr(row) for row in result.rows), key=str) if result.columns else [result.rowcount]


def check_against_parse(db_on: Database, db_off: Database, sql: str) -> None:
    """The cached path's statement is ``parse(sql)``, before and after
    ``sql`` runs, and both databases answer alike (a LIMIT without a
    total order may pick different rows: there only the count must agree)."""
    want = parse(sql)
    before = cached_statement(db_on, sql)
    on, off = db_on.execute(sql), db_off.execute(sql)
    for got in (before, cached_statement(db_on, sql)):
        assert got is None or same_statement(got, want), sql
    if " LIMIT " in sql:
        assert len(on.rows) == len(off.rows), sql
    else:
        assert canonical(on) == canonical(off), sql


def querygen_pair() -> tuple[Database, Database]:
    pair = []
    for cached in (True, False):
        db = Database()
        db.plan_cache_enabled = cached
        for statement in querygen.ddl():
            db.execute(statement)
        db.execute(
            "INSERT INTO customers VALUES "
            + ", ".join(f"({i}, 'n{i}', '{'DE' if i % 2 else 'FR'}', 'c{i % 3}')" for i in range(12))
        )
        db.execute(
            "INSERT INTO orders VALUES "
            + ", ".join(
                f"({i}, {i % 12}, '{('alpha', 'beta', 'gamma')[i % 3]}', {i * 7.5}, 'EUR')"
                for i in range(60)
            )
        )
        db.execute(
            "INSERT INTO invoices VALUES "
            + ", ".join(f"({i}, {i * 2}, '{'delta' if i % 2 else 'zeta'}', {i * 3.25})" for i in range(30))
        )
        pair.append(db)
    return pair[0], pair[1]


@given(seed=st.integers(0, 2**16), perturb=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_querygen_shapes_bind_like_a_fresh_parse(seed, perturb):
    db_on, db_off = querygen_pair()
    with plancheck.active():
        for sql in querygen.generate_queries(4, seed=seed):
            for text in (
                sql,
                querygen.perturb_literals(sql, seed=perturb),
                querygen.perturb_literals(sql, seed=perturb + 1),
                sql,
            ):
                check_against_parse(db_on, db_off, text)


# -- the hand matrix ---------------------------------------------------------------

HAND_DDL = (
    'CREATE TABLE t1 (id INT PRIMARY KEY, col_2 DOUBLE, name VARCHAR, "quoted 7" INT, '
    '"a?b" VARCHAR, born DATE, flag BOOLEAN)',
    "CREATE TABLE u (id INT, x INT)",
)


def hand_pair() -> tuple[Database, Database]:
    pair = []
    for cached in (True, False):
        db = Database()
        db.plan_cache_enabled = cached
        for statement in HAND_DDL:
            db.execute(statement)
        rows = []
        for i in range(40):
            name = ("it's", "--", "/*", "o'k", None)[i % 5]
            rendered = "NULL" if name is None else "'" + name.replace("'", "''") + "'"
            rows.append(
                f"({i - 10}, {i * 0.5}, {rendered}, {i % 9}, 'v{i % 4}', "
                f"DATE '2012-0{1 + i % 9}-0{1 + i % 7}', {'TRUE' if i % 3 else 'FALSE'})"
            )
        db.execute("INSERT INTO t1 VALUES " + ", ".join(rows))
        db.execute("INSERT INTO u VALUES " + ", ".join(f"({i}, {i * i})" for i in range(10)))
        pair.append(db)
    return pair[0], pair[1]


#: groups of texts; within a group the texts share a shape where they can
HAND_MATRIX = {
    "strings": [
        "SELECT id FROM t1 WHERE name = 'it''s'",
        "SELECT id FROM t1 WHERE name = 'o''k'",
        "SELECT id FROM t1 WHERE name = '--'",
        "SELECT id FROM t1 WHERE name = '/*'",
        "SELECT id, 'a -- b' FROM t1 WHERE name <> '/* x */' -- 3\n AND id > 2",
        "SELECT id, 'c -- d' FROM t1 WHERE name <> '*/' -- 3\n AND id > 30",
    ],
    "identifiers": [
        'SELECT t1.id, col_2, "quoted 7", "a?b" FROM t1 WHERE "quoted 7" > 3 AND "a?b" = \'v1\'',
        'SELECT t1.id, col_2, "quoted 7", "a?b" FROM t1 WHERE "quoted 7" > 6 AND "a?b" = \'v2\'',
        "SELECT col_2 FROM t1 WHERE col_2 > 2.5",
        "SELECT col_2 FROM t1 WHERE col_2 > 12.5",
    ],
    "numbers": [
        "SELECT id FROM t1 WHERE id = -3",
        "SELECT id FROM t1 WHERE id = -7",
        "SELECT id FROM t1 WHERE id = - -3",
        "SELECT id FROM t1 WHERE id = -(4)",
        "SELECT id FROM t1 WHERE id = -(9)",
        "SELECT id-1 FROM t1 WHERE id < 4",
        "SELECT id - 1 FROM t1 WHERE id < 4",
        "SELECT id - -1 FROM t1 WHERE id < 6",
        "SELECT id FROM t1 WHERE col_2 < 1e1",
        "SELECT id FROM t1 WHERE col_2 < 2e1",
        "SELECT id FROM t1 WHERE col_2 < .5",
        "SELECT id FROM t1 WHERE col_2 < 5.",
        "SELECT id FROM t1 WHERE id = 7",
        "SELECT id FROM t1 WHERE id = 7.0",
        "SELECT id FROM t1 WHERE id = '7'",
        "SELECT id FROM t1 WHERE id = 8",
        "SELECT id FROM t1 WHERE id = 0",
        "SELECT id FROM t1 WHERE id = -0",
        "SELECT id FROM t1 WHERE id = -5",
    ],
    "values": [
        "SELECT id FROM t1 WHERE born = DATE '2012-01-01'",
        "SELECT id FROM t1 WHERE born = DATE '2012-03-03'",
        "SELECT id FROM t1 WHERE born < DATE '2012-05-01' AND flag = TRUE",
        "SELECT id FROM t1 WHERE born < DATE '2012-07-01' AND flag = FALSE",
        "SELECT id FROM t1 WHERE name IS NULL",
        "SELECT id, NULL FROM t1 WHERE name IS NOT NULL AND id > 5",
        "SELECT id FROM t1 WHERE id IN (1, 2)",
        "SELECT id FROM t1 WHERE id IN (3, 4)",
        "SELECT id FROM t1 WHERE id IN (1, 2, 3)",
        "SELECT id FROM t1 WHERE id IN (7, 8, 9)",
    ],
    "clauses": [
        "SELECT id FROM t1 ORDER BY id LIMIT 10",
        "SELECT id FROM t1 ORDER BY id LIMIT 20",
        "SELECT id FROM t1 ORDER BY id LIMIT 5 OFFSET 3",
        "SELECT id FROM t1 ORDER BY id LIMIT 5 OFFSET 30",
        "SELECT id, col_2, name FROM t1 WHERE id > 0 ORDER BY 2 DESC",
        "SELECT id, col_2, name FROM t1 WHERE id > 9 ORDER BY 3 DESC, 1",
        "SELECT id, col_2, name FROM t1 WHERE id > 4 ORDER BY 3 DESC, 1",
        "SELECT id FROM t1 WHERE id < 3 UNION SELECT x FROM u WHERE x > 10",
        "SELECT id FROM t1 WHERE id < 9 UNION SELECT x FROM u WHERE x > 40",
        "SELECT id FROM t1 WHERE id < 9 UNION ALL SELECT x FROM u WHERE x > 40 ORDER BY 1 LIMIT 4",
        "SELECT id FROM t1 WHERE id < 2 UNION ALL SELECT x FROM u WHERE x > 60 ORDER BY 1 LIMIT 4",
        "SELECT name, COUNT(*), SUM(col_2 + 1) FROM t1 GROUP BY name HAVING SUM(col_2 + 1) > 10",
        "SELECT name, COUNT(*), SUM(col_2 + 2) FROM t1 GROUP BY name HAVING SUM(col_2 + 1) > 30",
        "SELECT col_2 + 1 AS y FROM t1 WHERE id < 3 ORDER BY col_2 + 1",
        "SELECT col_2 + 2 AS y FROM t1 WHERE id < 3 ORDER BY col_2 + 7",
        "SELECT d.id FROM (SELECT id FROM t1 WHERE id > 20 ORDER BY 1 LIMIT 3) d WHERE d.id > 5",
        "SELECT d.id FROM (SELECT id FROM t1 WHERE id > 24 ORDER BY 1 LIMIT 3) d WHERE d.id > 3",
    ],
}


@pytest.mark.parametrize("group", sorted(HAND_MATRIX))
def test_hand_matrix_binds_like_a_fresh_parse(group):
    db_on, db_off = hand_pair()
    with plancheck.active():
        for _round in range(2):  # the second round runs every text as a hit
            for sql in HAND_MATRIX[group]:
                check_against_parse(db_on, db_off, sql)


#: pairs of texts of one shape: the second must bind to the first's entry
SHARED = [
    ("SELECT id FROM t1 WHERE id = -3", "SELECT id FROM t1 WHERE id = -7"),
    ("SELECT id FROM t1 WHERE id = - -3", "SELECT id FROM t1 WHERE id = - -8"),
    ("SELECT id FROM t1 WHERE id = -(4)", "SELECT id FROM t1 WHERE id = -(9)"),
    ("SELECT id - -1 FROM t1 WHERE id < 6", "SELECT id - -2 FROM t1 WHERE id < 8"),
    ("SELECT id FROM t1 WHERE born = DATE '2012-01-01'", "SELECT id FROM t1 WHERE born = DATE '2012-03-03'"),
    ("SELECT id FROM t1 WHERE name = 'it''s'", "SELECT id FROM t1 WHERE name = '--'"),
    ("SELECT id FROM t1 WHERE col_2 < 1e1 AND flag = TRUE", "SELECT id FROM t1 WHERE col_2 < 2e1 AND flag = TRUE"),
    ("UPDATE u SET x = -1 WHERE id IN (1, 2)", "UPDATE u SET x = -5 WHERE id IN (3, 4)"),
]


def test_same_shape_texts_share_one_entry():
    db, _off = hand_pair()
    for first, second in SHARED:
        db.execute(first)
        got = cached_statement(db, second)
        assert got is not None and same_statement(got, parse(second)), second


def test_limit_offset_and_ordinals_are_never_shared():
    db, _off = hand_pair()
    assert len(db.execute("SELECT id FROM t1 ORDER BY id LIMIT 10").rows) == 10
    assert len(db.execute("SELECT id FROM t1 ORDER BY id LIMIT 20").rows) == 20
    assert db.execute("SELECT id FROM t1 ORDER BY id LIMIT 2 OFFSET 1").rows == [[-9], [-8]]
    assert db.execute("SELECT id FROM t1 ORDER BY id LIMIT 2 OFFSET 5").rows == [[-5], [-4]]
    by_two = db.execute("SELECT id, col_2, name FROM t1 WHERE id < 2 ORDER BY 2").rows
    by_three = db.execute("SELECT id, col_2, name FROM t1 WHERE id < 2 ORDER BY 3").rows
    assert [row[1] for row in by_two] == sorted(row[1] for row in by_two)
    names = [row[2] for row in by_three]
    assert names == sorted(filter(None, names)) + [None] * names.count(None)
    assert db.execute("SELECT COUNT(*) FROM t1 WHERE id = 7").scalar() == 1
    assert db.execute("SELECT COUNT(*) FROM t1 WHERE id = '7'").scalar() == 0


def test_each_limit_offset_and_ordinal_keeps_its_own_entry():
    db, _off = hand_pair()
    texts = [
        "SELECT id FROM t1 WHERE id > -20 ORDER BY id LIMIT 10",
        "SELECT id FROM t1 WHERE id > -20 ORDER BY id LIMIT 20",
        *(f"SELECT id FROM t1 ORDER BY id LIMIT 5 OFFSET {page * 5}" for page in range(4)),
        "SELECT id, col_2, name FROM t1 WHERE id < 2 ORDER BY 2",
        "SELECT id, col_2, name FROM t1 WHERE id < 2 ORDER BY 3",
    ]
    for sql in texts * 2:  # absorbs the first-sample feedback staleness
        db.execute(sql)
    before = db.plan_cache.stats()
    with plancheck.active():
        for sql in texts:
            assert canonical(db.execute(sql)) == canonical(db.execute_statement(parse(sql))), sql
    after = db.plan_cache.stats()
    assert after["hits"] - before["hits"] == len(texts)
    assert after["misses"] == before["misses"]


def test_only_queries_count_plan_hits_and_misses():
    db, _off = hand_pair()
    before = db.plan_cache.stats()
    for round_ in range(3):
        db.execute(f"INSERT INTO u VALUES ({300 + round_}, 1)")
        db.execute(f"UPDATE u SET x = {round_} WHERE id = {300 + round_}")
        db.execute(f"CREATE TABLE extra_{round_} (id INT)")
        db.execute(f"SELECT x FROM u WHERE id = {300 + round_}")
    after = db.plan_cache.stats()
    # three executions of one query shape: a cold miss, a miss on the
    # first-sample feedback staleness, then a hit
    assert (after["misses"] - before["misses"], after["hits"] - before["hits"]) == (2, 1)
    assert after["parse_hits"] - before["parse_hits"] == 2 * 2 + 2


# -- DML ---------------------------------------------------------------------------

#: run once per round ``r``: the second round is all hits, other values
DML_SCRIPT = [
    "INSERT INTO u VALUES (1{r}0, 1), (1{r}1, 2)",
    "INSERT INTO u VALUES (1{r}2, -3), (1{r}3, 4)",
    "INSERT INTO u VALUES (1{r}4, 5)",
    "INSERT INTO u (x, id) VALUES (6, 1{r}5)",
    "UPDATE u SET x = x + 1{r} WHERE id = 1{r}0",
    "UPDATE u SET x = x + 2{r} WHERE id = 1{r}3",
    "UPDATE u SET x = -{r} WHERE id IN (1, 2)",
    "DELETE FROM u WHERE id = 1{r}1",
    "DELETE FROM u WHERE id = 1{r}4",
    "DELETE FROM u WHERE x > 5{r} AND id < 9",
    "INSERT INTO t1 (id, name, born, flag) VALUES (5{r}0, 'x''y', DATE '2014-02-0{r}', TRUE)",
    "INSERT INTO t1 (id, name, born, flag) VALUES (5{r}1, '--', DATE '2015-04-0{r}', FALSE)",
    "UPDATE t1 SET name = 'z{r}' WHERE born = DATE '2015-04-0{r}'",
    "UPDATE t1 SET name = 'w{r}' WHERE born = DATE '2014-02-0{r}'",
]


def test_dml_binds_like_a_fresh_parse_and_writes_alike():
    db_on, db_off = hand_pair()
    with plancheck.active():
        for round_ in (1, 2):
            for sql in DML_SCRIPT:
                check_against_parse(db_on, db_off, sql.format(r=round_))
                for table in ("u", "t1"):
                    query = f"SELECT * FROM {table}"
                    assert canonical(db_on.execute(query)) == canonical(db_off.execute(query))
    assert db_on.plan_cache.stats()["parse_hits"] > len(DML_SCRIPT)


def test_a_hit_neither_lexes_nor_parses(monkeypatch):
    db, _off = hand_pair()
    parsed: list[str] = []
    real = database_module.parse
    monkeypatch.setattr(
        database_module, "parse", lambda sql, *args: parsed.append(sql) or real(sql, *args)
    )
    for index in range(5):
        db.execute(f"SELECT col_2 FROM t1 WHERE id = {index}")
        db.execute(f"INSERT INTO u VALUES ({200 + index}, {index})")
        db.execute(f"UPDATE u SET x = x + 1 WHERE id = {200 + index}")
    assert len(parsed) == 3  # one miss per shape


def test_shape_keys_and_values():
    assert shape("SELECT 'it''s', -3, 1e5, .5, 7., t1, col_2, \"a?b\" FROM t -- 7 'x'") == (
        "SELECT ?s, -?i, ?f, ?f, ?f, t1, col_2, \"a?b\" FROM t -- 7 'x'",
        ["it's", 3, 100000.0, 0.5, 7.0],
    )
    assert shape("x-1 /* 2 */ x - 1 a1.5")[1] == [1, 1, 0.5]  # like the lexer: a1, .5
    for text in ("SELECT ?", "SELECT 'open", 'SELECT "open', "SELECT 1 /* x", "SELECT 1e"):
        assert shape(text) is None, text


# -- concurrency ---------------------------------------------------------------------


def test_two_threads_one_shape_each_get_their_own_answer():
    db, _off = hand_pair()
    sql = "SELECT COUNT(*) FROM t1 WHERE id < {}"
    db.execute(sql.format(0))
    db.execute(sql.format(1))  # absorbs the first-sample feedback staleness
    failures: list[str] = []
    barrier = threading.Barrier(2)

    def worker(bound: int) -> None:
        barrier.wait()
        for _ in range(50):
            got = db.execute(sql.format(bound)).scalar()
            if got != bound + 10:
                failures.append(f"id < {bound} counted {got}")

    threads = [
        threading.Thread(target=worker, args=(bound,), name=f"shape-{bound}") for bound in (3, 21)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two bindings as finely as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:5]
