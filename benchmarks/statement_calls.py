"""Counted work per statement: the Python calls of one run, under cProfile.

A Python call count does not drift with the machine's load, so two
commits compare exactly where wall times need paired runs. The table is
the harness's ``orders`` (its DDL, 50 000 loaded rows, merged). Each
statement shape runs ``--run - 1`` times with other keys, then once
under the profiler; the second run (the default) is a plan-cache hit
for every shape here: a plan that no feedback can reorder (one table's,
a write's) is not re-planned when the first run's feedback arrives.

    PYTHONPATH=src python benchmarks/statement_calls.py [--run N] [--check]

``--check`` counts the second and the third run and exits 1 when a
point read or a grouped SUM costs more at the second: a cached plan's
second run must cost what every later one does.
"""

from __future__ import annotations

import argparse
import cProfile
import datetime
import random

from repro.core.database import Database

DDL = (
    "CREATE TABLE orders (order_id INT PRIMARY KEY, customer_id INT, status VARCHAR, "
    "order_date DATE, amount DOUBLE, currency VARCHAR)"
)
#: name → (statement, the keys of its runs; the last one is profiled)
STATEMENTS = {
    "point read": ("SELECT amount FROM orders WHERE order_id = {}", range(100, 110)),
    "keyed UPDATE": ("UPDATE orders SET amount = amount + 1 WHERE order_id = {}", range(200, 210)),
    "keyed DELETE": ("DELETE FROM orders WHERE order_id = {}", range(300, 310)),
    "single-row INSERT": (
        "INSERT INTO orders VALUES ({}, 5, 'open', '2014-03-04', 12.5, 'EUR')",
        range(100_001, 100_011),
    ),
    "DELETE of an absent key": ("DELETE FROM orders WHERE order_id = {}", range(800_001, 800_011)),
    "grouped SUM": (
        "SELECT customer_id, SUM(amount) FROM orders WHERE order_id < {} GROUP BY customer_id",
        range(1_000, 1_010),
    ),
}


#: the shapes whose second run ``--check`` holds to the cost of their third
CHECKED = ("point read", "grouped SUM")


def measure(run: int) -> dict[str, int]:
    """The calls of each statement's ``run``-th run, on a fresh database."""
    db = Database()
    db.execute(DDL)
    rng = random.Random(1)
    rows = [
        [i, rng.randrange(1000), rng.choice(["open", "closed"]), datetime.date(2014, 1, 1 + i % 28),
         float(rng.randrange(10000)) / 10, "EUR"]
        for i in range(50_000)
    ]
    txn = db.begin()
    db.table("orders").insert_many(rows, txn)
    db.commit(txn)
    db.merge_all()
    counts = {}
    for name, (sql, keys) in STATEMENTS.items():
        for key in keys[: run - 1]:
            db.execute(sql.format(key))
        profile = cProfile.Profile()
        profile.enable()
        db.execute(sql.format(keys[run - 1]))
        profile.disable()
        # summed per code object: ``pstats`` merges code objects that share
        # a (file, line, name) key, such as comprehensions on one line
        counts[name] = sum(entry.callcount for entry in profile.getstats())
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", type=int, default=2, help="which run to profile (1-10)")
    parser.add_argument(
        "--check", action="store_true", help="fail when a run 2 costs more than its run 3"
    )
    args = parser.parse_args()
    counts = measure(args.run)
    for name, count in counts.items():
        print(f"{name}: {count}")
    print(f"UPDATE / point read: {counts['keyed UPDATE'] / counts['point read']:.2f}")
    if not args.check:
        return 0
    second, third = (counts, measure(3)) if args.run == 2 else (measure(2), measure(3))
    failed = False
    for name in CHECKED:
        ok = second[name] <= third[name]
        failed = failed or not ok
        print(f"{'ok' if ok else 'FAIL'}: {name} costs {second[name]} calls at run 2, {third[name]} at run 3")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
