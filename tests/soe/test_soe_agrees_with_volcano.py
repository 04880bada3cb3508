"""SOE answers against an independent oracle.

The SOE query service and the core's vectorised executor now run the same
kernels (:mod:`repro.sql.kernels`), so agreeing with each other would prove
little. The Volcano interpreter (:mod:`repro.sql.volcano`) is tuple-at-a-
time and shares none of them: the same seeded tables go into a
:class:`SoeEngine` and a :class:`Database`, the same writes are applied to
both, and every aggregate and join the SOE offers is compared with the
equivalent SQL run by Volcano — integers exactly and still as Python
``int``, floats to 1e-9 relative.
"""

import math
import random

import pytest

from repro.core.database import Database
from repro.soe.engine import SoeEngine
from repro.sql.parser import parse
from repro.sql.planner import plan_select
from repro.sql.volcano import execute_volcano

FACT = ["id", "ik", "fk", "sk", "iv", "fv", "status"]
DIM = ["ik", "fk", "sk", "grp", "igrp"]
PHASES = ("load", "insert", "delete")

#: SOE (op, column) → the SQL aggregate over the fact table (alias ``f``)
AGGREGATES = [
    ("count", None), ("count", "iv"), ("sum", "iv"), ("sum", "fv"), ("min", "iv"), ("max", "iv"),
    ("min", "fv"), ("max", "fv"), ("avg", "iv"), ("avg", "fv"), ("min", "sk"), ("max", "sk"),
]
SQL_AGGREGATES = ", ".join(
    f"{op.upper()}({'f.' + column if column else '*'})" for op, column in AGGREGATES
)

FILTERS = [
    (column, op, value)
    for column, values in [
        ("status", ["open", "absent"]),   # a string column, a literal it does not hold
        ("sk", ["s4"]),                   # strings with NULLs
        ("iv", [0, 10_000]),              # integers with NULLs
        ("fv", [0.25]),                   # floats with NULLs
        ("id", [150]),                    # integers without
    ]
    for value in values
    for op in ("=", "<>", "<", "<=", ">", ">=")
]


def _tables():
    rng = random.Random(20)

    def maybe(value, share=0.12):
        return None if rng.random() < share else value

    fact = [
        [
            index,
            maybe(rng.randrange(12)),
            maybe(rng.choice([0.5, 1.5, 2.5, 7.25])),
            maybe(f"s{rng.randrange(9)}"),
            maybe(rng.randrange(-40, 40)),
            maybe(round(rng.uniform(-5, 5), 3)),
            rng.choice(["open", "closed", "held"]),
        ]
        for index in range(300)
    ]
    fact.append([300, 2**53 + 1, 0.5, "s1", 2**53 + 1, 1.0, "open"])  # beyond float64's integers
    dim = [
        [maybe(key, 0.08), [0.5, 1.5, 2.5, 9.0][key % 4], f"s{key % 11}", maybe(f"g{key % 4}"), key % 3]
        for key in range(14)
    ]
    dim += [[3, 0.5, "s3", "dup", 1], [3, 1.5, "s3", "g3", None], [2**53 + 1, 0.5, "s1", "big", 0]]
    return fact, dim


FRESH_FACT = [[1000 + i, i % 12, 1.5, f"s{i % 3}", i, i / 4, "open"] for i in range(10)] + [
    [1010, None, None, None, None, None, "held"]
]
FRESH_DIM = [[11, 1.5, "s2", "new", 2]]


@pytest.fixture(scope="module", params=PHASES)
def pair(request):
    """The same data in an SOE landscape and in a core database, brought to
    one of three states: loaded; plus inserts applied by ``catch_up_all``;
    plus deletes."""
    fact, dim = _tables()
    soe = SoeEngine(node_count=3)
    # 12 distinct keys over 16 partitions: some partitions stay empty
    soe.create_table("fact", FACT, ["ik"], partition_count=16)
    soe.create_table("dim", DIM, ["ik"], partition_count=16)
    soe.load("fact", fact)
    soe.load("dim", dim)
    assert any(
        len(partition) == 0
        for node in soe.data_nodes.values()
        for partition in node.store.partitions_of("fact")
    )
    database = Database()
    database.execute(
        "CREATE TABLE fact (id INT, ik BIGINT, fk DOUBLE, sk VARCHAR, iv BIGINT, fv DOUBLE, "
        "status VARCHAR)"
    )
    database.execute(
        "CREATE TABLE dim (ik BIGINT, fk DOUBLE, sk VARCHAR, grp VARCHAR, igrp INT)"
    )

    def insert(table, rows):
        txn = database.begin()
        database.table(table).insert_many(rows, txn)
        database.commit(txn)

    insert("fact", fact)
    insert("dim", dim)
    phase = PHASES.index(request.param)
    if phase >= 1:
        soe.insert("fact", FRESH_FACT)
        soe.insert("dim", FRESH_DIM)
        soe.catch_up_all()
        insert("fact", FRESH_FACT)
        insert("dim", FRESH_DIM)
    if phase >= 2:
        for table, column, value in [("fact", "status", "closed"), ("fact", "ik", 7), ("dim", "grp", "g1")]:
            soe.delete(table, column, value)
            literal = f"'{value}'" if isinstance(value, str) else value
            database.execute(f"DELETE FROM {table} WHERE {column} = {literal}")
        soe.catch_up_all()
    return soe, database


def volcano(database, sql):
    plan = plan_select(parse(sql), database.catalog)
    return execute_volcano(plan, database._context(None, None))


def assert_same(soe_rows, oracle_rows, what):
    """Same rows as multisets (the SOE orders by key repr, Volcano by first
    appearance): integers exact and ``int``, floats to 1e-9 relative."""
    assert len(soe_rows) == len(oracle_rows), what
    for got, expected in zip(sorted(soe_rows, key=repr_key), sorted(oracle_rows, key=repr_key)):
        assert len(got) == len(expected), what
        for value, reference in zip(got, expected):
            if isinstance(reference, float) and value is not None:
                assert isinstance(value, float), (what, got, expected)
                assert math.isclose(value, reference, rel_tol=1e-9, abs_tol=1e-12), (what, got, expected)
            else:
                assert type(value) is type(reference) and value == reference, (what, got, expected)


def repr_key(row):
    # group keys and the leading count identify a row; floats stay out of the order
    return [repr(value) for value in row if not isinstance(value, float)]


@pytest.mark.parametrize("group_by", [[], ["ik"], ["fk"], ["sk"], ["sk", "ik"], ["status", "fk"]])
def test_aggregates_agree(pair, group_by):
    soe, database = pair
    keys = "".join(f"f.{name}, " for name in group_by)
    tail = f" GROUP BY {', '.join('f.' + name for name in group_by)}" if group_by else ""
    rows, _cost = soe.aggregate("fact", group_by=group_by, aggregates=AGGREGATES)
    assert_same(rows, volcano(database, f"SELECT {keys}{SQL_AGGREGATES} FROM fact f{tail}"), group_by)


@pytest.mark.parametrize("group_by", [[], ["sk"]])
def test_filtered_aggregates_agree_for_every_op(pair, group_by):
    soe, database = pair
    keys = "".join(f"f.{name}, " for name in group_by)
    tail = f" GROUP BY {', '.join('f.' + name for name in group_by)}" if group_by else ""
    for column, op, value in FILTERS:
        literal = f"'{value}'" if isinstance(value, str) else value
        sql = f"SELECT {keys}{SQL_AGGREGATES} FROM fact f WHERE f.{column} {op} {literal}{tail}"
        rows, _cost = soe.aggregate(
            "fact", group_by=group_by, aggregates=AGGREGATES, filters=[(column, op, value)]
        )
        assert_same(rows, volcano(database, sql), sql)
    both = [("iv", ">", -10), ("status", "<>", "held")]
    sql = (
        f"SELECT {keys}{SQL_AGGREGATES} FROM fact f "
        f"WHERE f.iv > -10 AND f.status <> 'held'{tail}"
    )
    rows, _cost = soe.aggregate("fact", group_by=group_by, aggregates=AGGREGATES, filters=both)
    assert_same(rows, volcano(database, sql), sql)


@pytest.mark.parametrize("strategy", ["broadcast", "repartition", "colocated", "auto"])
def test_joins_agree(pair, strategy):
    soe, database = pair
    # (join key, group column): int / float / string keys with NULLs and
    # duplicates on the dim side, string / nullable / integer group columns
    shapes = [("ik", "grp"), ("fk", "grp"), ("sk", "grp"), ("ik", "igrp"), ("sk", "sk"), ("ik", "ik")]
    for key, group in shapes:
        if strategy == "colocated" and key != "ik":
            continue  # only the partitioning key is co-located
        sql = (
            f"SELECT d.{group}, {SQL_AGGREGATES} FROM fact f JOIN dim d ON f.{key} = d.{key} "
            f"GROUP BY d.{group}"
        )
        rows, cost = soe.join("fact", "dim", key, key, group, AGGREGATES, strategy=strategy)
        assert strategy == "auto" or cost.strategy == strategy
        assert_same(rows, volcano(database, sql), (strategy, key, group))
