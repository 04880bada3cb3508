"""Range pruning takes only literals of the partitioning column's type.

The range boundaries hold the column's stored type, so a literal of any
other type — ``id = '7'`` on an INTEGER key, or ``id < 30.5`` — bounds
nothing: the scan visits every partition and the predicate answers as it
does on an unpartitioned table, which is the oracle here (it used to
raise ``TypeError`` comparing ``'7'`` with an integer boundary). A DATE
column keeps pruning on ``DATE '…'`` literals, and only on those.
"""

from __future__ import annotations

import datetime

import pytest

from repro.columnstore.partition import (
    CompositePartitioning,
    HashPartitioning,
    RangePartitioning,
)
from repro.core import types as dt
from repro.core.database import Database
from repro.core.schema import ColumnSpec, TableSchema

LAYOUTS = {
    "range": lambda: RangePartitioning("id", [20, 45]),
    "composite": lambda: CompositePartitioning(
        RangePartitioning("id", [20, 45]), HashPartitioning(["grp"], 2)
    ),
}

PREDICATES = [
    f"{template.format(literal)}"
    for template, literals in (
        ("id = {}", ("7", "7.0", "'7'", "46", "46.5", "'46'")),
        ("id < {}", ("30", "30.5", "'30'")),
        ("{} > id", ("30", "30.5", "'30'")),
        ("id >= {}", ("45", "44.5", "'45'")),
        ("id BETWEEN {}", ("10 AND 40", "10.5 AND 40", "'10' AND '40'", "10 AND '40'")),
        ("id IN ({})", ("7, 45", "7.0, 45.0", "'7', '45'", "7, '45'")),
    )
    for literal in literals
]


def database(layout: str | None) -> Database:
    db = Database()
    schema = TableSchema(
        [ColumnSpec("id", dt.INTEGER), ColumnSpec("grp", dt.INTEGER), ColumnSpec("v", dt.DOUBLE)]
    )
    db.create_table("k", schema, partitioning=LAYOUTS[layout]() if layout else None)
    txn = db.begin()
    db.table("k").insert_many(([i, i % 3, i * 1.5] for i in range(60)), txn)
    db.commit(txn)
    return db


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_range_pruning_agrees_with_the_unpartitioned_table(layout):
    oracle, partitioned = database(None), database(layout)
    for predicate in PREDICATES:
        sql = f"SELECT id, v FROM k WHERE {predicate}"
        assert sorted(partitioned.execute(sql).rows) == sorted(oracle.execute(sql).rows), sql


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_literal_of_the_stored_type_still_prunes(layout):
    db = database(layout)
    partitions = len(db.table("k").partitions)
    for predicate, kept in (("id = 7", 1), ("id < 30", 2), ("id BETWEEN 21 AND 40", 1)):
        profile = db.profile(f"SELECT v FROM k WHERE {predicate}")
        pruned = profile.metrics.get("partitions_pruned", 0)
        assert pruned == partitions - kept * partitions // 3, predicate
    for predicate in ("id = '7'", "id < 30.5", "id IN (7, 45)"):
        profile = db.profile(f"SELECT v FROM k WHERE {predicate}")
        assert profile.metrics.get("partitions_pruned", 0) == 0, predicate


def date_database(partitioned: bool) -> Database:
    db = Database()
    schema = TableSchema([ColumnSpec("d", dt.DATE), ColumnSpec("v", dt.INTEGER)])
    boundaries = [datetime.date(2012, 1, 1), datetime.date(2013, 1, 1)]
    db.create_table(
        "e", schema, partitioning=RangePartitioning("d", boundaries) if partitioned else None
    )
    txn = db.begin()
    start = datetime.date(2011, 1, 1)
    rows = ([start + datetime.timedelta(days=15 * i), i] for i in range(60))
    db.table("e").insert_many(rows, txn)
    db.commit(txn)
    return db


#: (predicate, partitions a DATE-partitioned table keeps: None = no pruning)
DATE_PREDICATES = [
    ("d = DATE '2012-01-16'", 1),
    ("d < DATE '2012-06-01'", 2),
    ("DATE '2012-06-01' <= d", 2),
    ("d BETWEEN DATE '2011-06-01' AND DATE '2011-09-01'", 1),
    ("d = '2012-01-16'", None),
    ("d = 7", None),
    ("d < TIMESTAMP '2012-06-01 00:00:00'", None),
]


def test_a_date_column_prunes_on_date_literals_only():
    oracle, partitioned = date_database(False), date_database(True)
    for predicate, kept in DATE_PREDICATES:
        sql = f"SELECT v FROM e WHERE {predicate}"
        assert sorted(partitioned.execute(sql).rows) == sorted(oracle.execute(sql).rows), sql
        pruned = partitioned.profile(sql).metrics.get("partitions_pruned", 0)
        assert pruned == (0 if kept is None else 3 - kept), predicate
