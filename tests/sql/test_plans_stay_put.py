"""Cached plans stay put while cardinality feedback drifts.

Feedback shapes a plan only through the join order the planner picks. So
a plan that records no order (one table's) never goes stale, and a join's
cached plan, when the feedback versions it was planned under move, has
only its join order re-checked: the same order keeps the plan, another
one re-plans it. Rotating literals that hit very different row counts
move the versions on nearly every statement; these tests pin that the
cache stays hot through them, and that every answer is the one a fresh
plan gives.
"""

from __future__ import annotations

import pytest

from repro.analysis import plancheck
from repro.core import database as database_module
from repro.core.database import Database
from repro.sql.lexer import shape

#: the three literals of every rotating shape: 70 %, 25 % and 5 % of the rows
STATUSES = ("open", "closed", "void")
SHAPES = (
    "SELECT customer_id, SUM(amount) FROM orders WHERE status = '{}' "
    "GROUP BY customer_id ORDER BY customer_id",
    "SELECT c.country, COUNT(*), SUM(o.amount) FROM orders o JOIN customers c "
    "ON o.customer_id = c.customer_id WHERE o.status = '{}' GROUP BY c.country ORDER BY c.country",
    "SELECT order_id, amount FROM orders WHERE status = '{}' ORDER BY amount DESC, order_id LIMIT 5",
)


def orders_db(cached: bool = True) -> Database:
    db = Database()
    db.plan_cache_enabled = cached
    db.execute("CREATE TABLE customers (customer_id INT, country VARCHAR)")
    db.execute("CREATE TABLE orders (order_id INT, customer_id INT, status VARCHAR, amount DOUBLE)")
    db.execute(
        "INSERT INTO customers VALUES " + ", ".join(f"({i}, 'c{i % 3}')" for i in range(12))
    )
    statuses = ["open"] * 14 + ["closed"] * 5 + ["void"]
    db.execute(
        "INSERT INTO orders VALUES "
        + ", ".join(
            f"({i}, {i % 12}, '{statuses[i % 20]}', {float(i % 97)})" for i in range(600)
        )
    )
    return db


def rotate(db: Database, statements: int) -> list[list[list[object]]]:
    return [
        db.execute(SHAPES[index % 3].format(STATUSES[index // 3 % 3])).rows
        for index in range(statements)
    ]


def test_a_rotating_literal_mix_keeps_the_cache_hot_and_answers_alike():
    db = orders_db()
    answers = rotate(db, 90)
    stats = db.plan_cache.stats()
    assert db.feedback.table_version("orders") >= 10  # the literals do drift
    assert stats["hit_rate"] >= 0.9, stats
    assert answers == rotate(orders_db(cached=False), 90)


def test_a_drift_that_keeps_the_join_order_neither_plans_nor_checks(monkeypatch):
    db = orders_db()
    rotate(db, 18)  # cold misses and the join's one re-plan
    calls = {"plan_select": 0, "verify_entry": 0, "join_order": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(database_module, "plan_select", counted("plan_select", database_module.plan_select))
    monkeypatch.setattr(database_module, "join_order", counted("join_order", database_module.join_order))
    monkeypatch.setattr(plancheck, "verify_entry", counted("verify_entry", plancheck.verify_entry))
    version = db.feedback.table_version("orders")
    stale = db.plan_cache.stats()["stale"]
    rotate(db, 18)
    assert db.feedback.table_version("orders") > version
    assert calls["join_order"] >= 1 and db.plan_cache.stats()["stale"] == stale
    assert calls["plan_select"] == calls["verify_entry"] == 0


def test_a_kept_plan_is_a_new_entry_around_the_same_plan():
    db = orders_db()
    sql = SHAPES[1].format("open")
    db.execute(sql)  # cold
    db.execute(sql)  # the first samples flip the order: one re-plan
    key, values = shape(sql)
    before = db.plan_cache.get(key, values=values)
    db.execute(SHAPES[1].format("void"))  # drifts the versions, keeps the order
    after = db.plan_cache.get(key, values=values)
    assert after is not before and after.versions != before.versions
    assert after.plan is before.plan and after.plan.join_order == (("c", "o"),)
    assert after.spine is before.spine and after.seal == before.seal


#: a join whose written order drives with the larger table
FLIP = "SELECT * FROM big b JOIN small s ON b.k = s.k WHERE s.tag = '{}' ORDER BY b.v"


def flip_db(cached: bool = True) -> Database:
    db = Database()
    db.plan_cache_enabled = cached
    db.execute("CREATE TABLE big (k INT, v INT)")
    db.execute("CREATE TABLE small (k INT, tag VARCHAR)")
    db.execute("INSERT INTO big VALUES " + ", ".join(f"({i % 20}, {i})" for i in range(400)))
    db.execute("INSERT INTO small VALUES " + ", ".join(f"({i}, 't{i % 4}')" for i in range(20)))
    return db


def test_a_join_whose_order_flips_replans_once_and_answers_alike(monkeypatch):
    db = flip_db()
    rechecks = []
    real = database_module.join_order
    monkeypatch.setattr(
        database_module, "join_order", lambda *args: rechecks.append(args) or real(*args)
    )
    cold = db.execute(FLIP.format("t1"))
    assert not rechecks  # a miss plans once: no second join-order pass
    key, values = shape(FLIP.format("t1"))
    assert db.plan_cache.get(key, values=values).plan.join_order == (("b", "s"),)
    answers = [db.execute(FLIP.format("t1")) for _run in range(4)]
    assert db.plan_cache.get(key, values=values).plan.join_order == (("s", "b"),)
    stats = db.plan_cache.stats()
    assert (stats["stale"], stats["misses"]) == (1, 2), stats
    fresh = flip_db(cached=False).execute(FLIP.format("t1"))
    for answer in [cold, *answers]:
        assert (answer.columns, answer.rows) == (fresh.columns, fresh.rows)


def test_select_star_keeps_its_columns_across_the_flip():
    db = flip_db()
    columns = [db.execute(FLIP.format(tag)).columns for tag in ("t1", "t2", "t3")]
    assert db.plan_cache.stats()["stale"] == 1  # the flip happened
    assert columns == [["k", "v", "k_2", "tag"]] * 3


@pytest.mark.parametrize("sql", [SHAPES[0], SHAPES[2]])
def test_a_single_table_entry_snapshots_no_versions(sql):
    db = orders_db()
    text = sql.format("open")
    db.execute(text)
    key, values = shape(text)
    entry = db.plan_cache.get(key, values=values)
    assert entry.plan.join_order is None and entry.versions is None
