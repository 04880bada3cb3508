"""``python -m tools.analyze --plan-corpus`` — verify a generated plan corpus.

Breadth gate for :mod:`repro.analysis.plancheck`: a seeded query
generator (:mod:`repro.workloads.querygen`) produces a few hundred
query shapes over the synthetic ERP schema. Each one, and a variant of it
with other literals (``querygen.perturb_literals``), goes through
``Database.execute`` under :func:`repro.analysis.plancheck.active` — the
request path itself, keyed on the text shape
(:func:`repro.sql.lexer.shape`) — so every plan, every cache entry and
every cache-hit binding it makes is verified. Any finding is a build
failure.

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
    """Execute ``count`` generated queries and their perturbed variants
    with plancheck on.

    Returns a process exit code: 0 when the whole corpus verifies clean.
    """
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

    from repro.analysis import plancheck
    from repro.core.database import Database
    from repro.workloads import querygen

    database = Database()
    for statement in querygen.ddl():
        database.execute(statement)

    failures = bindings = shifted = 0

    def execute(index: int, text: str) -> None:
        nonlocal failures
        try:
            database.execute(text)
        except plancheck.PlanCheckError as error:
            failures += len(error.findings)
            print(f"FAIL [{index}] {text}")
            for finding in error.findings:
                print(f"    {finding}")

    with plancheck.active():
        for index, sql in enumerate(querygen.generate_queries(count, seed=seed)):
            # the first run records the shape's first feedback samples, so
            # the second re-plans it; the variant then hits the cached plan
            # unless its LIMIT/OFFSET (a fixed token) moved
            execute(index, sql)
            execute(index, sql)
            hits = database.plan_cache.stats()["hits"]
            execute(index, querygen.perturb_literals(sql, seed=seed + index))
            if database.plan_cache.stats()["hits"] > hits:
                bindings += 1
            else:
                shifted += 1

    print(
        f"plan corpus: {count} queries and their variants executed, {bindings} "
        f"cache-hit bindings verified ({shifted} variants planned afresh), "
        f"{failures} finding(s)"
    )
    return 1 if failures else 0
