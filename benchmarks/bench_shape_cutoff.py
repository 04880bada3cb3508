"""E26 (cutoff) — what the plan cache's text key costs a multi-row INSERT.

``Database.execute`` keys the plan cache on the text's shape
(:func:`repro.sql.lexer.shape`); a text with more than
:data:`repro.sql.lexer.MAX_LITERALS` literals gets no key and is parsed
as it comes. This measures what that cutoff trades, for an INSERT of
``rows`` rows of E1's four-literal row shape:

* ``shape_us`` — the regex pass that yields the key and the values;
* ``parse_us`` — lex + parse: what a hit saves;
* ``record_us`` — what caching adds to a miss's parse: the parser's
  literal sources, ``collect_literals``, the template, the plan and its
  slot spine, the seal and ``verify_entry``;
* ``hit_us`` — a hit with other values: shape + bind + the substitution
  copy of the cached plan;
* ``entry_kb`` — what the cached entry keeps alive.

Every column grows linearly with the literal count, so a text that
repeats even once pays its recording back at any size (``record_us`` is
below ``parse_us - hit_us``). What grows without bound is what a text
that never repeats pays — ``shape_us + record_us`` of extra work, and
``entry_kb`` held until 128 newer shapes evict it — and that is what the
cutoff caps. Medians of repeated runs; ``entry_kb`` by ``tracemalloc``.
Run directly (``python benchmarks/bench_shape_cutoff.py``, which writes
``BENCH_E26-cutoff.json``) or via pytest.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable

_REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))
sys.path.insert(0, str(_REPO_ROOT / "benchmarks"))

import reporting  # noqa: E402
from repro.analysis import plancheck  # noqa: E402
from repro.core.database import Database  # noqa: E402
from repro.sql import lexer, plancache  # noqa: E402
from repro.sql.parser import parse  # noqa: E402
from repro.sql.planner import plan_select  # noqa: E402

#: INSERT sizes measured; 64 rows is the cutoff (256 literals), 4 000 rows E1's load
ROWS = (1, 4, 16, 64, 250, 1000, 4000)


def insert_text(rows: int, salt: int) -> str:
    """E1's load statement (``bench_oltp_olap.make_db``), ``rows`` rows."""
    return "INSERT INTO orders VALUES " + ", ".join(
        f"({i + salt}, {i % 50}, {float(i % 997)}, 'open')" for i in range(rows)
    )


def shape_of(text: str) -> tuple[str, list[Any]]:
    """The shape key and values, whatever the cutoff."""
    cutoff, lexer.MAX_LITERALS = lexer.MAX_LITERALS, sys.maxsize
    try:
        shaped = lexer.shape(text)
    finally:
        lexer.MAX_LITERALS = cutoff
    assert shaped is not None
    return shaped


#: E1's orders table, which the INSERT is planned against
E1 = Database()
E1.execute("CREATE TABLE orders (id INT PRIMARY KEY, customer INT, amount DOUBLE, status VARCHAR)")


def record(text: str, values: list[Any]) -> plancache.PlanEntry:
    """A miss that caches: ``Database._remember`` and ``_plan_template``
    for an INSERT — its parse, planned, sealed and verified."""
    sources: list[Any] = []
    statement = parse(text, sources)
    slots = plancache.collect_literals(statement)
    template = plancache.record_template(statement, slots, sources, values)
    assert template is not None
    plan = plan_select(statement, E1.catalog)
    entry = plancache.PlanEntry(
        plan=plan, slots=slots, tables=plancache.plan_tables(plan.root), versions=None, template=template
    )
    entry.seal = plancheck.entry_seal(entry)
    assert not plancheck.verify_entry(entry, catalog=E1.catalog)
    return entry


def seconds(step: Callable[[], Any]) -> float:
    start = time.perf_counter()
    step()
    return time.perf_counter() - start


def median_us(step: Callable[[], Any], repeats: int) -> float:
    return statistics.median(seconds(step) for _ in range(repeats)) * 1e6


def entry_bytes(text: str, values: list[Any]) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        entry = record(text, values)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del entry
    return kept


def measure(rows: int) -> dict[str, float]:
    text, other = insert_text(rows, 0), insert_text(rows, 7)
    _key, values = shape_of(text)
    _key, other_values = shape_of(other)
    repeats = max(5, 1000 // rows)
    entry = record(text, values)
    template = entry.template

    def hit() -> None:
        shape_of(other)
        plancache.bind_plan(entry, template.bind(other_values))

    # a miss that caches against one that does not, run in alternation:
    # the median difference is the recording
    pairs = [
        (seconds(lambda: parse(text)), seconds(lambda: record(text, values)))
        for _ in range(repeats)
    ]
    return {
        "rows": rows,
        "literals": len(values),
        "shape_us": round(median_us(lambda: shape_of(text), repeats), 1),
        "parse_us": round(statistics.median(plain for plain, _ in pairs) * 1e6, 1),
        "record_us": round(statistics.median(rec - plain for plain, rec in pairs) * 1e6, 1),
        "hit_us": round(median_us(hit, repeats), 1),
        "entry_kb": round(entry_bytes(text, values) / 1024, 1),
    }


def test_the_cutoff_caps_what_a_one_off_text_holds(reporter):
    for rows in ROWS:
        row = measure(rows)
        reporter("E26-cutoff", **row)
        if row["literals"] <= lexer.MAX_LITERALS:
            assert lexer.shape(insert_text(rows, 0)) is not None
            # one entry at the cutoff holds ~0.1 MB: 128 of them stay far
            # below the peak RSS of any benchmark workload
            assert row["entry_kb"] <= 160, row
        else:
            assert lexer.shape(insert_text(rows, 0)) is None


if __name__ == "__main__":
    for rows in ROWS:
        reporting.report("E26-cutoff", **measure(rows))
    for path in reporting.flush():
        print(f"[bench] wrote {path}")
