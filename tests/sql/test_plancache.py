"""Plan cache correctness: shape keys, binding, invalidation, eviction.

The cache (:mod:`repro.sql.plancache`, docs/OPTIMIZER.md) keys plans on the
statement's text *shape* with literals stripped, so repeated traffic that
differs only in constants skips planning. These tests pin the contract:
a hit must produce exactly the rows a fresh plan would, and every event
that could make a cached plan wrong (DDL, delta merge, significant
cardinality drift, capacity pressure) must turn the next lookup into a
miss.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.database import Database
from repro.sql import plancache
from repro.sql.feedback import CardinalityFeedback
from repro.sql.lexer import shape
from repro.sql.parser import parse


class TestFingerprint:
    def test_literals_do_not_change_the_shape(self):
        a = plancache.fingerprint(parse("SELECT id FROM t WHERE amount > 100"))
        b = plancache.fingerprint(parse("SELECT id FROM t WHERE amount > 250"))
        assert a == b

    def test_structure_changes_the_shape(self):
        base = plancache.fingerprint(parse("SELECT id FROM t WHERE a = 1"))
        assert base != plancache.fingerprint(parse("SELECT id FROM t WHERE a > 1"))
        assert base != plancache.fingerprint(parse("SELECT id FROM u WHERE a = 1"))
        assert base != plancache.fingerprint(parse("SELECT id, a FROM t WHERE a = 1"))

    def test_order_by_ordinals_stay_verbatim(self):
        # ORDER BY 1 and ORDER BY 2 are different plans, not different literals
        assert plancache.fingerprint(
            parse("SELECT a, b FROM t ORDER BY 1")
        ) != plancache.fingerprint(parse("SELECT a, b FROM t ORDER BY 2"))

    def test_limit_and_offset_stay_verbatim(self):
        assert plancache.fingerprint(
            parse("SELECT a FROM t LIMIT 5")
        ) != plancache.fingerprint(parse("SELECT a FROM t LIMIT 10"))

    def test_union_shape_distinguishes_all(self):
        assert plancache.fingerprint(
            parse("SELECT a FROM t UNION SELECT a FROM u")
        ) != plancache.fingerprint(parse("SELECT a FROM t UNION ALL SELECT a FROM u"))

    def test_collect_literals_skips_ordinals(self):
        statement = parse("SELECT a, b FROM t WHERE a = 7 ORDER BY 2")
        values = [slot.value for slot in plancache.collect_literals(statement)]
        assert values == [7]

    def test_boolean_order_keys_are_literals_not_ordinals(self):
        # bool is a subclass of int, but ORDER BY TRUE is a value literal:
        # it must be wildcarded in the fingerprint and stay patchable
        assert plancache.fingerprint(
            parse("SELECT a FROM t ORDER BY TRUE")
        ) == plancache.fingerprint(parse("SELECT a FROM t ORDER BY FALSE"))
        values = [
            slot.value
            for slot in plancache.collect_literals(parse("SELECT a FROM t ORDER BY TRUE"))
        ]
        assert values == [True]

    def test_instantiate_rejects_slot_count_mismatch(self):
        cached = parse("SELECT a FROM t WHERE a = 1")
        entry = plancache.PlanEntry(
            plan=None, slots=plancache.collect_literals(cached), tables=frozenset()
        )
        assert (
            plancache.instantiate(entry, parse("SELECT a FROM t WHERE a = 1 AND b = 2"))
            is None
        )

    def test_instantiate_never_mutates_the_cached_entry(self):
        from repro.sql.planner import plan_select
        from repro.core.database import Database

        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        cached = parse("SELECT a FROM t WHERE a = 1")
        plan = plan_select(cached, db.catalog)
        entry = plancache.PlanEntry(
            plan=plan, slots=plancache.collect_literals(cached), tables=frozenset({"t"})
        )
        bound = plancache.instantiate(entry, parse("SELECT a FROM t WHERE a = 99"))
        assert bound is not None and bound is not plan
        assert [slot.value for slot in entry.slots] == [1]  # original untouched


class TestShapeKey:
    """``TestFingerprint``'s cases for the key the request path uses, the
    text shape (:func:`repro.sql.lexer.shape`) plus the cache's
    fixed-token variants. Two more are in ``test_shape_cache.py``:
    different literals share one entry
    (``test_same_shape_texts_share_one_entry``), and ORDER BY ordinals,
    LIMIT and OFFSET keep an entry per value
    (``test_each_limit_offset_and_ordinal_keeps_its_own_entry``)."""

    def test_structure_changes_the_key(self):
        base = shape("SELECT id FROM t WHERE a = 1")[0]
        assert base != shape("SELECT id FROM t WHERE a > 1")[0]
        assert base != shape("SELECT id FROM u WHERE a = 1")[0]
        assert base != shape("SELECT id, a FROM t WHERE a = 1")[0]

    def test_union_key_distinguishes_all(self):
        assert shape("SELECT a FROM t UNION SELECT a FROM u")[0] != shape(
            "SELECT a FROM t UNION ALL SELECT a FROM u"
        )[0]

    def test_boolean_order_keys_are_keywords_of_the_key(self):
        # TRUE/FALSE are keywords, not literal tokens: each keeps its own key
        assert shape("SELECT a FROM t ORDER BY TRUE") == ("SELECT a FROM t ORDER BY TRUE", [])
        assert shape("SELECT a FROM t ORDER BY FALSE")[0] != shape(
            "SELECT a FROM t ORDER BY TRUE"
        )[0]

    def test_bind_plan_never_mutates_the_cached_entry(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("SELECT a FROM t WHERE a = 1")
        key, values = shape("SELECT a FROM t WHERE a = 1")
        entry = db.plan_cache.get(key, None, values)
        bound = plancache.bind_plan(entry, entry.template.bind(shape("SELECT a FROM t WHERE a = 99")[1]))
        assert bound is not entry.plan
        assert [slot.value for slot in entry.slots] == [1]  # original untouched


def traffic_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (id INT, grp VARCHAR, amount DOUBLE)")
    db.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, 'g{i % 4}', {float(i)})" for i in range(40))
    )
    db.plan_cache.clear()  # the INSERT warm-up planned nothing, but be explicit
    return db


class TestCacheBehaviour:
    def test_shape_lifecycle_cold_then_stale_then_hit(self):
        """A join shape's lifecycle: cold miss, one feedback-stale re-plan, hits.

        The cold execution joins in the written order: nothing is observed
        yet. Its observations are the tables' first feedback samples, and
        they show the second table to be the smaller, so the second
        execution's re-check of the join order finds another order and
        re-plans. The re-plan's own first samples move the versions again,
        but the order they choose is the cached one: from the third
        execution on the shape is hit-hot.
        """
        db = traffic_db()
        db.execute("CREATE TABLE grps (grp VARCHAR, label VARCHAR)")
        db.execute("INSERT INTO grps VALUES ('g1', 'one'), ('g2', 'two'), ('g3', 'three')")
        sql = "SELECT COUNT(*) FROM t JOIN grps ON t.grp = grps.grp WHERE grps.label = '{}'"
        for label in ("one", "two", "three", "one"):
            assert db.execute(sql.format(label)).scalar() == 10
        stats = db.plan_cache.stats()
        assert (stats["misses"], stats["stale"], stats["hits"]) == (2, 1, 2)

    def test_single_table_shape_is_cold_then_hot(self):
        """A single table's plan records no join order, so feedback cannot
        reshape it: its entry snapshots no versions and the first samples
        of the cold execution leave it cached."""
        db = traffic_db()
        sql = "SELECT COUNT(*) FROM t WHERE grp = '{}'"
        assert db.execute(sql.format("g1")).scalar() == 10
        assert db.execute(sql.format("g2")).scalar() == 10
        assert db.execute(sql.format("g3")).scalar() == 10
        stats = db.plan_cache.stats()
        assert (stats["misses"], stats["stale"], stats["hits"]) == (1, 0, 2)

    def test_hit_patches_literals_into_the_cached_plan(self):
        db = traffic_db()
        sql = "SELECT COUNT(*) FROM t WHERE id < {}"
        db.execute(sql.format(10))  # cold
        db.execute(sql.format(10))  # absorbs the first-sample staleness
        assert db.execute(sql.format(25)).scalar() == 25  # hit, new literal
        assert db.execute(sql.format(3)).scalar() == 3
        assert db.plan_cache.stats()["hits"] >= 2

    def test_hit_returns_exactly_what_a_fresh_plan_would(self):
        db = traffic_db()
        sql = "SELECT id, amount FROM t WHERE grp = 'g1' AND amount > {} ORDER BY id"
        db.execute(sql.format(0.0))  # warm the entry
        cached = db.execute(sql.format(20.0)).rows
        db.plan_cache_enabled = False
        fresh = db.execute(sql.format(20.0)).rows
        assert cached == fresh and cached  # identical and non-empty

    def test_different_shape_misses(self):
        db = traffic_db()
        db.execute("SELECT COUNT(*) FROM t WHERE id < 10")
        db.execute("SELECT COUNT(*) FROM t WHERE id <= 10")
        assert db.plan_cache.stats()["hits"] == 0

    def test_ddl_invalidates(self):
        db = traffic_db()
        db.execute("SELECT COUNT(*) FROM t WHERE id < 10")
        db.execute("CREATE TABLE other (x INT)")  # unrelated DDL: entry survives
        assert len(db.plan_cache) == 1
        db.execute("DROP TABLE t")
        assert len(db.plan_cache) == 0
        db.execute("CREATE TABLE t (id INT, grp VARCHAR, amount DOUBLE)")
        db.execute("SELECT COUNT(*) FROM t WHERE id < 10")
        assert db.plan_cache.stats()["hits"] == 0
        assert db.plan_cache.stats()["invalidations"] >= 1

    def test_delta_merge_invalidates(self):
        db = traffic_db()
        db.execute("SELECT COUNT(*) FROM t WHERE id < 10")
        assert len(db.plan_cache) == 1
        db.execute("MERGE DELTA OF t")
        assert len(db.plan_cache) == 0
        db.execute("SELECT COUNT(*) FROM t WHERE id < 10")
        assert db.plan_cache.stats()["hits"] == 0

    def test_flexible_column_growth_invalidates(self):
        answers = {}
        for enabled in (True, False):
            db = Database()
            db.plan_cache_enabled = enabled
            db.execute("CREATE FLEXIBLE TABLE f (id INT)")
            db.execute("INSERT INTO f (id) VALUES (1)")
            for _ in range(3):
                db.execute("SELECT * FROM f WHERE id > 0")
            db.execute("INSERT INTO f (id, color) VALUES (2, 'red')")
            result = db.execute("SELECT * FROM f WHERE id > 0")
            answers[enabled] = (result.columns, result.rows)
        assert answers[True] == answers[False] == (["id", "color"], [[1, None], [2, "red"]])

    def test_capacity_is_bounded_with_lru_eviction(self):
        db = traffic_db()
        db.plan_cache = plancache.PlanCache(capacity=2)
        db.execute("SELECT COUNT(*) FROM t")
        db.execute("SELECT MIN(id) FROM t")
        db.execute("SELECT MAX(id) FROM t")  # evicts the COUNT(*) entry
        assert len(db.plan_cache) == 2
        assert db.plan_cache.stats()["evictions"] == 1
        db.execute("SELECT MIN(id) FROM t")  # survivor still hits
        assert db.plan_cache.stats()["hits"] == 1

    def test_significant_feedback_drift_goes_stale(self):
        cache = plancache.PlanCache()
        feedback = CardinalityFeedback()
        feedback.record("scan:t|", 100)
        entry = plancache.PlanEntry(
            plan=None,
            slots=[],
            tables=frozenset({"t"}),
            versions=feedback.versions({"t"}),
        )
        cache.put("k", entry)
        assert cache.get("k", feedback) is entry  # steady state: hit
        feedback.record("scan:t|", 100)  # no drift, version unchanged
        assert cache.get("k", feedback) is entry
        feedback.record("scan:t|", 100_000)  # significant drift bumps the version
        assert cache.get("k", feedback) is None
        assert cache.stats()["stale"] == 1


class TestSeededDeterminism:
    """A cached plan must replay byte-identical results under seeded traffic.

    Composes with the chaos test matrix: ``REPRO_CHAOS_SEED`` shifts the
    literal traffic, and for every seed the cache-on database must agree
    row-for-row with a cache-off database executing the same statements.
    """

    SEED = 97 + int(os.environ.get("REPRO_CHAOS_SEED", "0"))

    SHAPES = [
        "SELECT COUNT(*) FROM t WHERE id < {}",
        "SELECT grp, SUM(amount) FROM t WHERE amount > {} GROUP BY grp ORDER BY grp",
        "SELECT id FROM t WHERE id BETWEEN {} AND {} ORDER BY id",
    ]

    def _run(self, cached: bool) -> list[list[list[object]]]:
        db = traffic_db()
        db.plan_cache_enabled = cached
        rng = random.Random(self.SEED)
        results = []
        for _ in range(25):
            shape = rng.choice(self.SHAPES)
            literals = [rng.randint(0, 40) for _ in range(shape.count("{}"))]
            if "BETWEEN" in shape:
                literals = sorted(literals)
            results.append(db.execute(shape.format(*literals)).rows)
        if cached:
            stats = db.plan_cache.stats()
            # 3 shapes over 25 statements: mostly hits once each shape
            # absorbs its cold miss + first-sample staleness (drifty
            # literals may cost a few extra stale re-plans)
            assert stats["hits"] >= 10
        return results

    def test_cache_on_equals_cache_off_for_seeded_traffic(self):
        assert self._run(cached=True) == self._run(cached=False)

    def test_replay_is_deterministic(self):
        assert self._run(cached=True) == self._run(cached=True)


class TestConcurrency:
    """Concurrent executions of one shape must not share bound constants.

    Each hit binds a private copy of the cached plan (``instantiate``),
    so one thread's literals can never leak into another thread's
    execution; the cache's own bookkeeping is lock-guarded.
    """

    def test_concurrent_same_shape_different_literals(self):
        import threading

        db = traffic_db()
        sql = "SELECT COUNT(*) FROM t WHERE id < {}"
        db.execute(sql.format(1))  # cold miss
        db.execute(sql.format(2))  # absorbs first-sample staleness
        failures: list[str] = []
        barrier = threading.Barrier(4)

        def worker(bound: int) -> None:
            barrier.wait()
            for _ in range(25):
                got = db.execute(sql.format(bound)).scalar()
                if got != bound:
                    failures.append(f"WHERE id < {bound} returned {got}")

        threads = [
            threading.Thread(target=worker, args=(bound,)) for bound in (5, 17, 29, 38)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
