"""Property test: random generated queries agree across execution engines."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.sql.compiler import CompileError, compile_plan
from repro.sql.parser import parse
from repro.sql.planner import plan_select
from repro.sql.volcano import execute_volcano


def _normalise(rows):
    out = []
    for row in rows:
        canonical = []
        for value in row:
            if isinstance(value, float):
                canonical.append(None if math.isnan(value) else round(value, 6))
            else:
                canonical.append(value)
        out.append(canonical)
    out.sort(key=repr)
    return out


_db = Database()
_db.execute("CREATE TABLE r (a INT, b DOUBLE, g VARCHAR)")
_rows = [f"({i % 13}, {(i * 7) % 29}.5, 'g{i % 3}')" for i in range(150)]
# a merge between the inserts: two thirds of the rows (and a NULL row) sit
# in the dictionary-encoded main fragment, the rest in the delta, so the
# value-id predicates and the per-value delta path answer the same query
_db.execute(f"INSERT INTO r VALUES {', '.join(_rows[:100])}")
_db.execute("INSERT INTO r VALUES (NULL, NULL, NULL)")
_db.merge("r")
_db.execute(f"INSERT INTO r VALUES {', '.join(_rows[100:])}")
_db.execute("INSERT INTO r VALUES (40, 3.5, 'g9')")


@st.composite
def query_strategy(draw):
    where = draw(
        st.sampled_from(
            [
                "",
                "WHERE a > 5",
                "WHERE b <= 10 AND g = 'g1'",
                "WHERE a IN (1, 2, 3) OR b > 20",
                "WHERE a IS NOT NULL",
                "WHERE a BETWEEN 2 AND 9",
                "WHERE g <> 'g1' AND a NOT IN (3, 4, 20)",
                "WHERE g IN ('g0', 'g7') AND b >= 14.5",
                "WHERE g = 'missing' OR a = 4",
            ]
        )
    )
    shape = draw(st.sampled_from(["plain", "group", "global"]))
    if shape == "plain":
        select = "SELECT a, b, g FROM r"
        tail = draw(st.sampled_from(["", "ORDER BY a LIMIT 7", "ORDER BY b DESC"]))
    elif shape == "group":
        select = "SELECT g, COUNT(*) AS n, SUM(b) AS s FROM r"
        tail = "GROUP BY g"
    else:
        select = "SELECT COUNT(*), SUM(a), MIN(b), MAX(b) FROM r"
        tail = ""
    return f"{select} {where} {tail}".strip()


@given(query_strategy())
@settings(max_examples=60, deadline=None)
def test_three_engines_agree_on_random_queries(sql):
    plan = plan_select(parse(sql), _db.catalog)
    vectorised = _normalise(_db.query(sql).rows)
    volcano = _normalise(execute_volcano(plan, _db._context(None, None)))
    assert volcano == vectorised
    try:
        compiled = compile_plan(plan, _db._context(None, None))
    except CompileError:
        return
    assert _normalise(compiled.run(_db._context(None, None))) == vectorised
