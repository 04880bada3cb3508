"""Seeded plan corruptions: every invariant the plan verifier proves.

Each test takes a healthy planner output, applies one targeted
corruption, and asserts the verifier rejects it with an actionable
message — plus clean-plan and Database-wiring checks on the way.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import plancheck
from repro.analysis.plancheck import (
    PlanCheckError,
    check_plan,
    entry_seal,
    verify_binding,
    verify_entry,
    verify_plan,
)
from repro.core.database import Database
from repro.sql import ast as sql_ast
from repro.sql import plancache
from repro.sql.lexer import shape
from repro.sql.parser import parse
from repro.sql.planner import (
    LimitNode,
    PlanNode,
    ProjectNode,
    QueryPlan,
    ScanNode,
    SortNode,
    plan_select,
)


@pytest.fixture
def database():
    db = Database()
    db.execute("CREATE TABLE t (a INT, b INT, c VARCHAR)")
    db.execute("CREATE TABLE s (a INT, d VARCHAR)")
    return db


def plan_of(sql, database):
    return plan_select(parse(sql), database.catalog)


def find(node, node_type):
    found = []

    def visit(current):
        if isinstance(current, node_type):
            found.append(current)
        for child in current.children():
            visit(child)

    visit(node)
    return found


def entry_of(sql, database):
    statement = parse(sql)
    plan = plan_select(statement, database.catalog)
    return (
        plancache.PlanEntry(
            plan=plan,
            slots=plancache.collect_literals(statement),
            tables=plancache.plan_tables(plan.root),
        ),
        statement,
        plan,
    )


def rebound(entry, sql):
    """What a cache hit with ``sql``'s literals runs: the entry's plan with
    ``sql``'s values bound, and the statement they bind to."""
    mapping = entry.template.bind(shape(sql)[1])
    return plancache.bind_plan(entry, mapping), entry.template.statement_for(mapping)


def templated_entry_of(sql, database):
    """An entry keyed by text, as ``Database.execute`` makes it: the
    parse is also the entry's template."""
    sources = []
    statement = parse(sql, sources)
    slots = plancache.collect_literals(statement)
    plan = plan_select(statement, database.catalog)
    return plancache.PlanEntry(
        plan=plan,
        slots=slots,
        tables=plancache.plan_tables(plan.root),
        template=plancache.record_template(statement, slots, sources, shape(sql)[1]),
    )


# -- healthy plans pass -------------------------------------------------------------


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT a FROM t",
        "SELECT a, b FROM t WHERE b > 1 AND c = 'x'",
        "SELECT t.a, s.d FROM t JOIN s ON t.a = s.a WHERE t.b > 1",
        "SELECT c, COUNT(*) AS n, SUM(b) AS s FROM t GROUP BY c ORDER BY c",
        "SELECT DISTINCT a FROM t ORDER BY a LIMIT 3 OFFSET 1",
        "SELECT x.a FROM (SELECT a FROM t WHERE b > 0) x",
        "SELECT a FROM t UNION SELECT a FROM s",
    ],
)
def test_healthy_planner_output_verifies_clean(sql, database):
    assert verify_plan(plan_of(sql, database), database.catalog) == []


# -- corruption 1: scan drops a column its predicate needs --------------------------


def test_dropped_scan_column_is_rejected(database):
    plan = plan_of("SELECT a FROM t WHERE c = 'x'", database)
    scan = find(plan.root, ScanNode)[0]
    scan.columns = [col for col in scan.columns if col != "c"]
    findings = verify_plan(plan, database.catalog)
    assert any(f.check == "schema" and "not producible" in f.message for f in findings)


def test_scan_pruned_below_its_parents_needs_is_never_cached(database):
    """The planner narrows every scan to the referenced columns; a scan
    narrowed further — below what a join key, group key or projection
    above it names — must fail verification at plan-cache insert."""
    sql = "SELECT t.c, SUM(s.a) FROM t JOIN s ON t.a = s.a WHERE t.b > 1 GROUP BY t.c"
    entry, statement, plan = entry_of(sql, database)
    assert verify_entry(entry, statement, catalog=database.catalog) == []
    scans = {scan.alias: scan for scan in find(plan.root, ScanNode)}
    assert sorted(scans["t"].columns) == ["a", "b", "c"] and scans["s"].columns == ["a"]
    for alias, column, what in (("t", "a", "equi key"), ("t", "c", "group key"), ("s", "a", "equi key")):
        kept = list(scans[alias].columns)
        scans[alias].columns = [name for name in kept if name != column]
        findings = verify_entry(entry, statement, catalog=database.catalog)
        assert any(f.check == "schema" and what in f.message for f in findings), (alias, column)
        scans[alias].columns = kept


# -- corruption 2: scan selects a column the catalog does not define ----------------


def test_unknown_catalog_column_is_rejected(database):
    plan = plan_of("SELECT a FROM t", database)
    scan = find(plan.root, ScanNode)[0]
    scan.columns = list(scan.columns) + ["ghost"]
    findings = verify_plan(plan, database.catalog)
    assert any("catalog does not define" in f.message for f in findings)


# -- corruption 3: project output renamed out from under the sort -------------------


def test_renamed_projection_breaks_sort_key(database):
    plan = plan_of("SELECT a AS x FROM t ORDER BY x", database)
    project = find(plan.root, ProjectNode)[0]
    expr, _name = project.items[0]
    project.items = [(expr, "y")]
    findings = verify_plan(plan, database.catalog)
    assert any(f.node == "SortNode" and "sort key" in f.message for f in findings)
    assert any(f.node == "QueryPlan" and "declared output" in f.message for f in findings)


# -- corruption 4: negative / non-finite estimates ----------------------------------


def test_negative_estimate_is_rejected(database):
    plan = plan_of("SELECT a FROM t", database)
    find(plan.root, ScanNode)[0].estimated_rows = -5.0
    findings = verify_plan(plan, database.catalog)
    assert any(f.check == "estimates" and "-5.0" in f.message for f in findings)


def test_nan_and_inf_estimates_are_rejected(database):
    for bad in (float("nan"), float("inf")):
        plan = plan_of("SELECT a FROM t", database)
        find(plan.root, ScanNode)[0].estimated_rows = bad
        findings = verify_plan(plan, database.catalog)
        assert any(f.check == "estimates" for f in findings), bad


# -- corruption 5: Limit claims more rows than its child / its LIMIT ----------------


def test_limit_estimate_monotonicity(database):
    plan = plan_of("SELECT a FROM t LIMIT 5", database)
    limit = find(plan.root, LimitNode)[0]
    limit.estimated_rows = 99.0
    findings = verify_plan(plan, database.catalog)
    assert any("exceeds the LIMIT" in f.message for f in findings)


def test_negative_offset_is_rejected(database):
    plan = plan_of("SELECT a FROM t LIMIT 5", database)
    find(plan.root, LimitNode)[0].offset = -1
    findings = verify_plan(plan, database.catalog)
    assert any(f.check == "estimates" and "offset" in f.message for f in findings)


# -- corruption 6: a node type with no registered governor charge point -------------


def test_unknown_node_type_fails_charge_coverage(database):
    class RogueNode(PlanNode):
        pass

    findings = verify_plan(RogueNode())
    assert any(
        f.check == "charge" and "CHARGE_POINTS" in f.message for f in findings
    )
    with pytest.raises(PlanCheckError) as exc:
        check_plan(RogueNode())
    assert "RogueNode" in str(exc.value)


# -- corruption 7: the tokens a text key binds disagree with the entry's slots -----


def test_slot_arity_mismatch_against_key(database):
    """A text-keyed entry binds literal tokens to its slots; drop one
    binding, or bind two tokens in swapped order, and a hit would write
    the new values into the wrong leaves. The arity is what the entry
    records, not a count of ``?`` in the key: that key holds a verbatim
    LIMIT count and the quoted identifier ``"a?b"``."""
    database.execute('CREATE TABLE q ("a?b" INT, b INT)')
    database.query('SELECT "a?b" FROM q WHERE b > 7 AND "a?b" < 3 LIMIT 5')
    (entry,) = [e for e in database.plan_cache._entries.values() if e.plan is not None]
    assert verify_entry(entry, catalog=database.catalog) == []
    bindings = entry.template.slots
    for corrupt in (bindings[:1], bindings[::-1]):
        template = dataclasses.replace(entry.template, slots=corrupt)
        findings = verify_entry(
            dataclasses.replace(entry, template=template), catalog=database.catalog
        )
        assert any("wrong positions" in f.message for f in findings), corrupt


# -- corruption 8: a literal slot unreachable from the frozen plan ------------------


def test_unreachable_slot_is_rejected(database):
    entry, statement, _plan = entry_of("SELECT a FROM t WHERE b > 7", database)
    entry.slots = list(entry.slots) + [sql_ast.Literal(99)]
    findings = verify_entry(entry, catalog=database.catalog)
    assert any("not reachable from the frozen plan" in f.message for f in findings)


# -- corruption 9: frozen entry mutated in place (the seal catches it) --------------


def test_seal_detects_in_place_slot_mutation(database):
    entry = templated_entry_of("SELECT a FROM t WHERE b > 7", database)
    entry.seal = entry_seal(entry)
    object.__setattr__(entry.slots[0], "value", 42)
    bound, fresh_statement = rebound(entry, "SELECT a FROM t WHERE b > 8")
    findings = verify_binding(entry, bound, fresh_statement)
    assert any("mutated in place" in f.message for f in findings)


# -- corruption 10: binding that shares the frozen spine ----------------------------


def test_binding_that_returns_frozen_plan_is_rejected(database):
    entry, _statement, plan = entry_of("SELECT a FROM t WHERE b > 7", database)
    fresh_statement = parse("SELECT a FROM t WHERE b > 8")
    findings = verify_binding(entry, plan, fresh_statement)
    assert any("frozen plan itself" in f.message for f in findings)


def test_binding_that_shares_spine_containers_is_rejected(database):
    entry, _statement, plan = entry_of("SELECT a FROM t WHERE b > 7", database)
    fresh_statement = parse("SELECT a FROM t WHERE b > 8")
    # a buggy substitute: clones only the QueryPlan shell, sharing the
    # whole node tree (and the stale literal) with the frozen entry
    shallow = object.__new__(QueryPlan)
    shallow.__dict__.update(plan.__dict__)
    findings = verify_binding(entry, shallow, fresh_statement)
    assert any("was not bound" in f.message for f in findings)
    assert any("frozen spine" in f.message for f in findings)


def test_honest_substitution_copy_verifies_clean(database):
    entry = templated_entry_of("SELECT a FROM t WHERE b > 7", database)
    entry.seal = entry_seal(entry)
    bound, fresh_statement = rebound(entry, "SELECT a FROM t WHERE b > 8")
    assert bound is not entry.plan
    assert verify_binding(entry, bound, fresh_statement) == []


# -- corruption 11: frozen plan aliasing live session state -------------------------


def test_aliased_mutable_object_is_rejected(database):
    entry, statement, plan = entry_of("SELECT a FROM t WHERE b > 7", database)
    find(plan.root, ScanNode)[0].signature = {"live", "set"}
    findings = verify_entry(entry, statement, catalog=database.catalog)
    assert any(
        f.check == "cache" and "mutable non-plan object" in f.message for f in findings
    )


# -- Database wiring ----------------------------------------------------------------


def test_cached_entries_carry_a_seal(database):
    database.query("SELECT a FROM t WHERE b > 1")
    entries = list(database.plan_cache._entries.values())
    assert entries
    assert all(entry.seal == entry_seal(entry) for entry in entries)


def test_unreachable_order_by_slot_refuses_caching_but_executes(database):
    # `ORDER BY b + 1` string-matches the select item, so the order-by
    # literal is planned away while the text still feeds it a token: the
    # entry is conservatively refused, the query still runs
    sql = "SELECT b + 1 AS x FROM t ORDER BY b + 1"
    key, _values = shape(sql)
    database.execute("INSERT INTO t VALUES (1, 5, 'p'), (2, 3, 'q')")
    result = database.query(sql)
    assert result.rows == [[4], [6]]
    assert key not in database.plan_cache
    assert database.plan_cache.stats()["shapes"] == 1  # the INSERT's parse only


def test_strict_mode_raises_on_corrupt_plan(database):
    with plancheck.active():
        assert plancheck.enabled()
        with pytest.raises(PlanCheckError):
            check_plan(QueryPlan(root=ScanNode("t", "t", ["ghost"]), output_names=["ghost"]), database.catalog)
    assert not plancheck.is_installed()
