"""``python -m tools.analyze --plan-corpus`` — verify a generated plan corpus.

Breadth gate for :mod:`repro.analysis.plancheck`: a seeded query
generator (:mod:`repro.workloads.querygen`) produces a few hundred
query shapes over the synthetic ERP schema; every one is planned, the
plan is verified, the would-be cache entry is verified, and — when a
literal-perturbed variant of the query hits the same fingerprint — the
cache-hit binding is verified too. Any finding is a build failure.

This runs the *runtime* verifier from the *static* lint driver so one
command (`python -m tools.analyze --plan-corpus src`) gates both
halves in CI.
"""

from __future__ import annotations

import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent.parent
_SRC = _REPO_ROOT / "src"


def run_plan_corpus(count: int = 300, seed: int = 0) -> int:
    """Plan, cache, rebind, and verify ``count`` generated queries.

    Returns a process exit code: 0 when the whole corpus verifies clean.
    """
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

    from repro.analysis import plancheck
    from repro.core.database import Database
    from repro.errors import PlanError
    from repro.sql import ast, plancache
    from repro.sql.parser import parse
    from repro.sql.planner import plan_select
    from repro.workloads import querygen

    database = Database()
    for statement in querygen.ddl():
        database.execute(statement)

    failures = 0
    plans = entries = bindings = skipped = 0
    for index, sql in enumerate(querygen.generate_queries(count, seed=seed)):
        statement = parse(sql)
        plan = plan_select(statement, database.catalog, feedback=database.feedback)
        findings = plancheck.verify_plan(plan, database.catalog)
        plans += 1

        key = plancache.fingerprint(statement)
        entry = plancache.PlanEntry(
            plan=plan,
            slots=plancache.collect_literals(statement),
            tables=plancache.plan_tables(plan.root),
            versions=database.feedback.versions(plancache.plan_tables(plan.root)),
        )
        entry_findings = plancheck.verify_entry(entry, statement, database.catalog)
        entries += 1
        # `SELECT x+1 ... ORDER BY x+1` legitimately produces an entry the
        # cache must refuse (the order-by literal is planned away); that
        # refusal is the verifier working, not a corpus failure — but any
        # schema/estimate/charge finding is.
        hard = findings + [f for f in entry_findings if f.check != "cache"]
        cacheable = not entry_findings

        if cacheable:
            entry.seal = plancheck.entry_seal(entry)
            perturbed_sql = querygen.perturb_literals(sql, seed=seed + index)
            try:
                perturbed = parse(perturbed_sql)
            except PlanError:
                perturbed = None
            if perturbed is not None and plancache.fingerprint(perturbed) == key:
                bound = plancache.instantiate(entry, perturbed)
                if bound is not None:
                    hard += plancheck.verify_binding(entry, bound, perturbed)
                    bindings += 1
            else:
                skipped += 1

        if hard:
            failures += len(hard)
            print(f"FAIL [{index}] {sql}")
            for finding in hard:
                print(f"    {finding}")

    print(
        f"plan corpus: {plans} plans, {entries} entries, {bindings} bindings "
        f"verified ({skipped} perturbations shifted fingerprint), "
        f"{failures} finding(s)"
    )
    return 1 if failures else 0
