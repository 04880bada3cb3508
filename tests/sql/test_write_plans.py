"""INSERT, UPDATE and DELETE are plans: a ``WriteNode`` over the rows they write.

An UPDATE or DELETE writes what a row-id scan of its table finds (the
scan every SELECT takes, WHERE pushed into it); an INSERT writes a
``ValuesNode``'s rows or its SELECT's. So writes print with ``explain``,
profile per operator, pass ``plancheck`` and cache their plans like
queries do.
"""

from __future__ import annotations

import pytest

from repro.analysis import plancheck
from repro.core import database as database_module
from repro.core.database import Database
from repro.core.session import Session
from repro.engines.text.index import create_text_index
from repro.errors import PlanError
from repro.federation.adapters import HanaAdapter
from repro.federation.sda import SmartDataAccess
from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.planner import WriteNode, explain, plan_select


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE, s VARCHAR)")
    database.execute("CREATE TABLE u (id INT, v DOUBLE)")
    database.execute("INSERT INTO t VALUES " + ", ".join(f"({i}, {i * 1.5}, 's{i}')" for i in range(10)))
    database.execute("INSERT INTO u VALUES (100, 0.5), (101, 2.5), (102, 4.0)")
    return database


@pytest.mark.parametrize(
    "sql, shape",
    [
        (
            "UPDATE t SET v = v + 1 WHERE id = 3",
            ["Write[update] t set v = (v + 1)", "  Scan t as t filter=(id = 3) with row ids"],
        ),
        (
            "DELETE FROM t WHERE id BETWEEN 2 AND 5",
            ["Write[delete] t", "  Scan t as t filter=(id BETWEEN 2 AND 5) with row ids"],
        ),
        (
            "INSERT INTO t VALUES (20, 2.5, 'a'), (21, 3.5, 'b')",
            ["Write[insert] t", "  Values [id, v, s] 2 row(s)"],
        ),
        (
            "INSERT INTO t (id, v) SELECT id, v * 2 FROM u WHERE v > 1",
            [
                "Write[insert] t (id, v)",
                "  Project [id, v]",
                "    Project [id, c1]",
                "      Scan u as u filter=(v > 1)",
            ],
        ),
    ],
)
def test_explain_prints_write_plans(db, sql, shape):
    plan = plan_select(parse(sql), db.catalog)
    assert explain(plan).splitlines() == shape
    assert plancheck.verify_plan(plan, db.catalog) == []


def test_insert_select_writes_the_query_rows(db):
    assert db.execute("INSERT INTO t (id, v) SELECT id, v * 2 FROM u WHERE v > 1").rowcount == 2
    assert db.query("SELECT id, v, s FROM t WHERE id > 99 ORDER BY id").rows == [
        [101, 5.0, None],
        [102, 8.0, None],
    ]


def test_profile_of_a_delete_is_its_write_over_its_scan(db):
    profile = db.profile("DELETE FROM t WHERE id >= 7")
    assert profile.result.rowcount == 3
    assert [(op.operator, op.rows) for op in profile.root.walk()] == [("WriteNode", 3), ("ScanNode", 3)]
    assert profile.metrics["rows_scanned"] == 10
    assert db.query("SELECT COUNT(*) FROM t").scalar() == 7  # the profiled write committed


def test_a_write_naming_a_missing_column_fails_verification(db):
    for sql, field, value in (
        ("UPDATE t SET v = 1 WHERE id = 3", "assignments", [("ghost", ast.Literal(1))]),
        ("INSERT INTO t (id, v) VALUES (30, 1.0)", "columns", ["id", "ghost"]),
    ):
        plan = plan_select(parse(sql), db.catalog)
        assert isinstance(plan.root, WriteNode)
        setattr(plan.root, field, value)
        findings = plancheck.verify_plan(plan, db.catalog)
        assert any(f.node == "WriteNode" and "ghost" in f.message for f in findings), sql
        with pytest.raises(plancheck.PlanCheckError):
            plancheck.check_plan(plan, db.catalog)


def test_a_write_scan_without_row_ids_fails_verification(db):
    plan = plan_select(parse("DELETE FROM t WHERE id = 3"), db.catalog)
    plan.root.child.row_ids = False
    findings = plancheck.verify_plan(plan, db.catalog)
    assert any(f.node == "WriteNode" and "row id" in f.message for f in findings)


def test_a_repeated_write_shape_binds_into_the_cached_plan(db, monkeypatch):
    planned: list[object] = []
    real = database_module.plan_select
    def counted(statement, *args, **kwargs):
        planned.append(statement)
        return real(statement, *args, **kwargs)

    monkeypatch.setattr(database_module, "plan_select", counted)
    before = db.plan_cache.stats()
    with plancheck.active():  # every hit's binding is verified against the cached plan
        for key in (1, 2, 3):
            assert db.execute(f"UPDATE t SET v = v + {key} WHERE id = {key}").rowcount == 1
    after = db.plan_cache.stats()
    assert len(planned) == 1  # planned once, bound twice
    assert after["parse_hits"] - before["parse_hits"] == 2
    assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])  # hits count queries
    (entry,) = [e for e in db.plan_cache._entries.values() if e.plan.root.kind == "update"]
    assert entry.versions is None  # planned without feedback: never stale
    assert db.query("SELECT v FROM t WHERE id IN (1, 2, 3) ORDER BY id").rows == [[2.5], [5.0], [7.5]]


def test_a_write_to_a_virtual_table_is_refused(db):
    remote = Database(name="remote")
    remote.execute("CREATE TABLE inventory (sku VARCHAR, qty INT)")
    access = SmartDataAccess(db)
    access.register_source(HanaAdapter("erp", remote))
    access.create_virtual_table("v_inventory", "erp", "inventory")
    for sql in ("DELETE FROM v_inventory", "INSERT INTO v_inventory VALUES ('a', 1)"):
        with pytest.raises(PlanError, match="virtual table"):
            db.execute(sql)



def _docs_in_a_transaction():
    # the text index learns a row when it commits, while the writing
    # transaction already sees it
    db = Database()
    db.execute("CREATE TABLE docs (id INT PRIMARY KEY, body VARCHAR)")
    db.execute("INSERT INTO docs VALUES (1, 'foo bar'), (2, 'baz')")
    create_text_index(db, "docs", "body")
    session = Session(db)
    session.execute("BEGIN")
    session.execute("INSERT INTO docs VALUES (9, 'foo'), (10, 'qux')")
    session.execute("UPDATE docs SET body = 'foo again' WHERE id = 10")
    return db, session


def test_a_write_by_contains_finds_the_transactions_own_rows():
    db, session = _docs_in_a_transaction()
    assert session.execute("UPDATE docs SET id = id + 100 WHERE CONTAINS(body, 'again')").rowcount == 1
    assert session.execute("DELETE FROM docs WHERE CONTAINS(body, 'foo')").rowcount == 3
    session.execute("COMMIT")
    assert db.query("SELECT id, body FROM docs").rows == [[2, "baz"]]
    assert db.query("SELECT id FROM docs WHERE CONTAINS(body, 'foo')").rows == []


def test_a_query_by_contains_finds_the_transactions_own_rows():
    db, session = _docs_in_a_transaction()
    found = "SELECT id FROM docs WHERE CONTAINS(body, 'foo') ORDER BY id"
    assert session.execute(found).rows == [[1], [9], [10]]
    assert db.query(found).rows == [[1]]  # outside it, only what committed
    session.execute("COMMIT")
    assert db.query(found).rows == [[1], [9], [10]]
