"""The scan contract — codes first, values last — pinned as counts and answers.

What must not come back is pinned as *work done* (which columns were
touched, whether a full-column decode ran), never as a time; what must
not move is pinned as exact rows in their exact order.
"""

import ast as python_ast
import inspect

import pytest

from repro.columnstore.column import MainColumn
from repro.columnstore.table import ColumnTable, TablePartition
from repro.core.database import Database
from repro.sql import executor

EXACT = 9007199254740993  # 2**53 + 1: not representable in float64


# -- predicates on value ids are exact -----------------------------------------------


@pytest.fixture(params=["delta", "merged"])
def nullable_bigint(request):
    """An integer column that holds a NULL decodes to float64 — where
    2**53 + 1 and 2**53 are the same number."""
    database = Database()
    database.execute("CREATE TABLE q (k INT, v BIGINT)")
    database.execute(f"INSERT INTO q VALUES (1, {EXACT}), (2, NULL)")
    if request.param == "merged":
        database.merge("q")
    return database


@pytest.mark.parametrize(
    "predicate,expected",
    [
        (f"v = {EXACT - 1}", []),
        (f"v = {EXACT}", [[1]]),
        (f"v <> {EXACT - 1}", [[1]]),
        (f"v <> {EXACT}", []),
        (f"v IN ({EXACT - 1}, 5)", []),
        (f"v NOT IN ({EXACT - 1}, 5)", [[1]]),
        (f"v BETWEEN {EXACT - 3} AND {EXACT - 1}", []),
        (f"v BETWEEN {EXACT} AND {EXACT}", [[1]]),
        (f"v NOT BETWEEN {EXACT - 3} AND {EXACT - 1}", [[1]]),
    ],
)
def test_integer_predicates_are_exact_beside_a_null(nullable_bigint, predicate, expected):
    assert nullable_bigint.query(f"SELECT k FROM q WHERE {predicate}").rows == expected


@pytest.mark.parametrize("merged", [False, True])
def test_a_mixed_type_column_keeps_its_comparable_rows(merged):
    """``DOC_EXTRACT`` over heterogeneous JSON yields ints, floats, strings
    and NULLs in one object array: the row Python cannot order against the
    literal is false, every other row answers as if it were not there."""
    database = Database()
    database.execute("CREATE TABLE items (id INT, doc DOCUMENT)")
    database.execute(
        "INSERT INTO items VALUES (1, '{\"price\": 5}'), (2, '{\"price\": \"n/a\"}'), "
        "(3, '{\"price\": 2}'), (4, '{\"other\": 1}'), (5, '{\"price\": 7.5}')"
    )
    if merged:
        database.merge("items")

    def ids(predicate):
        sql = f"SELECT id FROM items WHERE DOC_EXTRACT(doc, '$.price') {predicate} ORDER BY id"
        return [row[0] for row in database.query(sql).rows]

    assert ids("> 3") == [1, 5]
    assert ids("<= 5") == [1, 3]
    assert ids("<> 5") == [2, 3, 5]
    assert ids("BETWEEN 2 AND 5") == [1, 3]


# -- the work that must not come back ------------------------------------------------


class _RecordingFragments(dict):
    """A partition's ``main`` mapping that notes which columns are read."""

    def __init__(self, fragments, touched):
        super().__init__(fragments)
        self.touched = touched

    def __getitem__(self, key):
        self.touched.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.touched.add(key)
        return super().get(key, default)


@pytest.fixture
def merged_orders(monkeypatch):
    """A merged 5 000-row table plus spies: full decodes, columns touched."""
    database = Database()
    database.execute(
        "CREATE TABLE orders (order_id INT PRIMARY KEY, customer_id INT, status VARCHAR, "
        "amount DOUBLE, currency VARCHAR)"
    )
    txn = database.begin()
    database.table("orders").insert_many(
        [[i, i % 97, ("open", "closed")[i % 2], i * 0.5, "EUR"] for i in range(5000)], txn
    )
    database.commit(txn)
    database.merge("orders")

    full_decodes = []
    for owner, name in ((TablePartition, "column_array"), (MainColumn, "array")):
        original = getattr(owner, name)

        def spy(self, *args, _original=original, _name=name):
            full_decodes.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(owner, name, spy)
    touched = set()
    for partition in database.table("orders").partitions:
        partition.main = _RecordingFragments(partition.main, touched)
    return database, full_decodes, touched


def test_point_read_decodes_no_column_and_touches_only_its_own(merged_orders):
    database, full_decodes, touched = merged_orders
    profile = database.profile("SELECT amount FROM orders WHERE order_id = 7")
    assert profile.result.rows == [[3.5]]
    assert full_decodes == []
    assert touched == {"order_id", "amount"}
    # the declared key's position index names the row: nothing else is examined
    assert profile.metrics["rows_scanned"] == 1
    assert profile.metrics["key_lookups"] == 1


def test_update_by_key_finds_its_row_on_value_ids(merged_orders, monkeypatch):
    database, full_decodes, touched = merged_orders
    touched_by_where = []
    gather = ColumnTable.gather

    def spy(self, *args):  # the matched row is fetched whole, after the WHERE
        touched_by_where.append(set(touched))
        return gather(self, *args)

    monkeypatch.setattr(ColumnTable, "gather", spy)
    result = database.execute("UPDATE orders SET amount = amount + 1 WHERE order_id = 7")
    assert result.rowcount == 1
    assert full_decodes == []
    assert touched_by_where[0] == {"order_id"}
    # read once, for the assignments and handed down to update_at
    assert len(touched_by_where) == 1
    assert database.query("SELECT amount FROM orders WHERE order_id = 7").rows == [[4.5]]


def test_delete_with_a_residual_predicate_reads_only_the_predicate_columns(merged_orders):
    database, full_decodes, touched = merged_orders
    result = database.execute("DELETE FROM orders WHERE order_id < 20 AND amount * 2 > 17")
    assert result.rowcount == 2  # order_id 18 and 19
    assert full_decodes == []
    assert touched >= {"order_id", "amount"}  # delete_at then logs the whole row


def test_executor_never_unboxes_or_decodes_whole_columns():
    """``_to_python`` belongs to ``Batch.rows()`` and ``column_array`` to
    other callers: neither may be called from the executor module."""
    tree = python_ast.parse(inspect.getsource(executor))
    called = {
        node.func.attr if isinstance(node.func, python_ast.Attribute) else getattr(node.func, "id", "")
        for node in python_ast.walk(tree)
        if isinstance(node, python_ast.Call)
    }
    assert not called & {"_to_python", "column_array"}


# -- same answers, same order ---------------------------------------------------------


@pytest.fixture(params=["delta", "merged", "mixed"])
def small(request):
    database = Database()
    database.execute("CREATE TABLE f (id INT, k VARCHAR, g VARCHAR, n INT)")
    database.execute("CREATE TABLE d (k VARCHAR, label VARCHAR)")
    rows = [
        "(1, 'b', 'x', 10)", "(2, 'a', 'y', 20)", "(3, NULL, 'x', 30)", "(4, 'b', 'y', 40)",
        "(5, 'c', NULL, 50)", "(6, 'a', 'x', 60)", "(7, 'zz', 'y', 70)",
    ]
    head = rows if request.param == "delta" else rows[:4]
    database.execute("INSERT INTO f VALUES " + ", ".join(head))
    database.execute("INSERT INTO d VALUES ('a', 'A1'), ('b', 'B1'), ('a', 'A2'), (NULL, 'N'), ('q', 'Q')")
    if request.param != "delta":
        database.merge_all()
        database.execute("INSERT INTO f VALUES " + ", ".join(rows[4:]))
    if request.param == "mixed":
        database.execute("INSERT INTO d VALUES ('c', 'C1')")
        database.execute("DELETE FROM d WHERE label = 'C1'")
    database.adaptive_planning = False  # keep the written join order
    return database


def test_groups_come_in_first_appearance_order(small):
    assert small.query("SELECT k, COUNT(*), SUM(n) FROM f GROUP BY k").rows == [
        ["b", 2, 50.0], ["a", 2, 80.0], [None, 1, 30.0], ["c", 1, 50.0], ["zz", 1, 70.0],
    ]
    # several keys: by the first key's first appearance, then the second's
    assert small.query("SELECT g, k, COUNT(*) FROM f GROUP BY g, k").rows == [
        ["x", "b", 1], ["x", "a", 1], ["x", None, 1], ["y", "b", 1], ["y", "a", 1],
        ["y", "zz", 1], [None, "c", 1],
    ]


def test_distinct_keeps_first_occurrences(small):
    assert small.query("SELECT DISTINCT g FROM f").rows == [["x"], ["y"], [None]]
    assert small.query("SELECT COUNT(DISTINCT k), COUNT(DISTINCT g), MIN(k), MAX(k) FROM f").rows == [
        [4, 2, "a", "zz"]
    ]


def test_join_output_is_left_order_then_right_position_then_padding(small):
    inner = "SELECT f.id, d.label FROM f JOIN d ON f.k = d.k"
    assert small.query(inner).rows == [
        [1, "B1"], [2, "A1"], [2, "A2"], [4, "B1"], [6, "A1"], [6, "A2"],
    ]
    left = "SELECT f.id, d.label FROM f LEFT JOIN d ON f.k = d.k"
    assert small.query(left).rows == small.query(inner).rows + [[3, None], [5, None], [7, None]]
    both_keys = "SELECT a.id, b.id FROM f a JOIN f b ON a.k = b.k AND a.g = b.g"
    assert small.query(both_keys).rows == [[1, 1], [2, 2], [4, 4], [6, 6], [7, 7]]


def test_string_sort_keys_order_by_value_with_nulls_last(small):
    assert small.query("SELECT id FROM f ORDER BY k, id").rows == [
        [2], [6], [1], [4], [5], [7], [3],
    ]
    assert small.query("SELECT k FROM f ORDER BY k DESC").rows == [
        ["zz"], ["c"], ["b"], ["b"], ["a"], ["a"], [None],
    ]
