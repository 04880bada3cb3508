"""E6 — §IV.A [11][12]: compiled queries beat interpreted execution.

Paper claim: "during runtime the engine compiles the SQL statement into C
code ... there are significant performance advantages with this approach"
(Dees & Sanders; Neumann compiles to LLVM).

Measured shape: the generated-code engine beats the tuple-at-a-time
interpreter by a large factor on scan-heavy aggregation queries (the gap
the paper's compilation removes is per-tuple interpretation overhead).
The compiled function is one call per plan node into the vectorised
engine's operators, so the vectorised engine, reported for context, runs
the same kernels and should time alike. All three return identical
results (asserted by tests/sql/test_engines_agree.py, and here by
``test_compiled_shape_holds``, which runs without pytest-benchmark's
timing: ``pytest benchmarks/bench_compiled_queries.py --benchmark-disable``).
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from repro.core.database import Database
from repro.sql import plancache
from repro.sql.compiler import compile_plan
from repro.sql.lexer import shape
from repro.sql.parser import parse
from repro.sql.planner import plan_select
from repro.sql.volcano import execute_volcano

ROWS = 40_000
SQL = (
    "SELECT region, COUNT(*) AS n, SUM(qty * price) AS revenue FROM lineitem "
    "WHERE price > 10 AND qty < 9 GROUP BY region"
)
#: the same statement shape with other literals
REBOUND_SQL = SQL.replace("price > 10", "price > 50").replace("qty < 9", "qty < 4")


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.execute(
        "CREATE TABLE lineitem (id INT, qty INT, price DOUBLE, region VARCHAR)"
    )
    rng = random.Random(11)
    table = database.table("lineitem")
    txn = database.begin()
    regions = ["EU", "US", "APJ", "MEA"]
    table.insert_many(
        (
            [i, rng.randint(1, 10), rng.random() * 100, regions[i % 4]]
            for i in range(ROWS)
        ),
        txn,
    )
    database.commit(txn)
    database.merge("lineitem")
    return database


@pytest.mark.benchmark(group="E6-exec-engines")
def test_interpreted_tuple_at_a_time(benchmark, reporter, db):
    plan = plan_select(parse(SQL), db.catalog)

    rows = benchmark(lambda: execute_volcano(plan, db._context(None, None)))
    reporter("E6", engine="volcano-interpreted", rows=ROWS, groups=len(rows))


@pytest.mark.benchmark(group="E6-exec-engines")
def test_compiled_query(benchmark, reporter, db):
    plan = plan_select(parse(SQL), db.catalog)
    compiled = compile_plan(plan)  # compile once

    rows = benchmark(lambda: compiled.run(db._context(None, None)))
    reporter("E6", engine="compiled", rows=ROWS, groups=len(rows))


@pytest.mark.benchmark(group="E6-exec-engines")
def test_compiled_including_compilation(benchmark, reporter, db):
    plan = plan_select(parse(SQL), db.catalog)

    def run():
        compiled = compile_plan(plan)
        return compiled.run(db._context(None, None))

    rows = benchmark(run)
    reporter("E6", engine="compiled+codegen", groups=len(rows))


@pytest.mark.benchmark(group="E6-exec-engines")
def test_vectorised_reference(benchmark, reporter, db):
    rows = benchmark(lambda: db.query(SQL).rows)
    reporter("E6", engine="vectorised", groups=len(rows))


def _median_seconds(run, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _canonical(rows):
    return sorted([value if not isinstance(value, float) else round(value, 6) for value in row] for row in rows)


def test_compiled_shape_holds(db):
    """E6's paper shape as assertions: the compiled engine answers as the
    interpreter does, at least 10x faster, and one compiled function
    serves a cached plan re-bound to other literals."""
    plan = plan_select(parse(SQL), db.catalog)
    compiled = compile_plan(plan)
    interpreted = execute_volcano(plan, db._context(None, None))
    assert _canonical(compiled.run(db._context(None, None))) == _canonical(interpreted)

    volcano_s = _median_seconds(lambda: execute_volcano(plan, db._context(None, None)))
    compiled_s = _median_seconds(lambda: compiled.run(db._context(None, None)))
    assert volcano_s >= 10 * compiled_s, (volcano_s, compiled_s)

    db.execute(SQL)  # caches the shape's plan
    key, values = shape(SQL)
    entry = db.plan_cache.get(key, None, values)
    assert entry is not None and entry.plan is not None
    rebound_key, rebound_values = shape(REBOUND_SQL)
    assert rebound_key == key
    rebound = plancache.bind_plan(entry, entry.template.bind(rebound_values))
    cached = compile_plan(entry.plan)
    expected = _canonical(db.query(REBOUND_SQL).rows)
    assert expected != _canonical(db.query(SQL).rows)
    assert _canonical(cached.run(db._context(None, None), rebound)) == expected
