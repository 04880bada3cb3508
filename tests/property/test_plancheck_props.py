"""Property test: every plan the planner emits passes the plan verifier."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.plancheck import verify_entry, verify_plan
from repro.core.database import Database
from repro.sql import plancache
from repro.sql.parser import parse
from repro.sql.planner import plan_select
from repro.workloads import querygen


def _database():
    database = Database()
    for statement in querygen.ddl():
        database.execute(statement)
    return database


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_generated_plans_always_verify_clean(seed):
    database = _database()
    for sql in querygen.generate_queries(count=4, seed=seed):
        statement = parse(sql)
        plan = plan_select(statement, database.catalog)
        findings = verify_plan(plan, database.catalog)
        assert findings == [], f"{sql!r}: {[str(f) for f in findings]}"


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None)
def test_generated_entries_never_fail_hard(seed):
    # entry-level "cache" findings are legitimate conservative refusals
    # (e.g. the unreachable ORDER-BY slot shape); anything else — schema,
    # estimate, or charge trouble inside a frozen entry — is a real bug
    database = _database()
    for sql in querygen.generate_queries(count=4, seed=seed):
        statement = parse(sql)
        plan = plan_select(statement, database.catalog)
        entry = plancache.PlanEntry(
            plan=plan,
            slots=plancache.collect_literals(statement),
            tables=plancache.plan_tables(plan.root),
        )
        hard = [
            finding
            for finding in verify_entry(entry, statement, database.catalog)
            if finding.check != "cache"
        ]
        assert hard == [], f"{sql!r}: {[str(f) for f in hard]}"
