"""Counted work per statement: the Python calls of one run, under cProfile.

A Python call count does not drift with the machine's load, so two
commits compare exactly where wall times need paired runs. The table is
the harness's ``orders`` (its DDL, 50 000 loaded rows, merged). Each
statement shape runs ``--run - 1`` times with other keys, then once
under the profiler; the second run (the default) is a plan-cache hit
for a write, and a re-plan for a query whose first run fed the
cardinality feedback.

    PYTHONPATH=src python benchmarks/statement_calls.py [--run N]
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", type=int, default=2, help="which run to profile (1-10)")
    run = parser.parse_args().run
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
        print(f"{name}: {counts[name]}")
    print(f"UPDATE / point read: {counts['keyed UPDATE'] / counts['point read']:.2f}")


if __name__ == "__main__":
    main()
