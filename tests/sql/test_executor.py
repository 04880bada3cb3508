"""Tests for the vectorised executor via the public SQL surface."""

import pytest

from repro.core.database import Database
from repro.errors import ColumnNotFoundError, PlanError, TableNotFoundError
from repro.sql import executor


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE sales (id INT, region VARCHAR, amount DOUBLE, qty INT, note VARCHAR)"
    )
    database.execute(
        "INSERT INTO sales VALUES "
        "(1, 'EU', 10.0, 2, 'a'), (2, 'EU', 20.0, 1, NULL), "
        "(3, 'US', 30.0, 5, 'b'), (4, 'US', NULL, 1, 'c'), (5, 'APJ', 50.0, 3, 'd')"
    )
    return database


def test_projection_and_arithmetic(db):
    rows = db.query("SELECT id, amount * qty AS total FROM sales WHERE id <= 2 ORDER BY id").rows
    assert rows == [[1, 20.0], [2, 20.0]]


def test_null_comparison_filters_out(db):
    assert db.query("SELECT COUNT(*) FROM sales WHERE amount > 0").scalar() == 4
    assert db.query("SELECT COUNT(*) FROM sales WHERE amount IS NULL").scalar() == 1


def test_group_by_with_aggregates(db):
    rows = db.query(
        "SELECT region, COUNT(*) AS n, SUM(amount) AS s, AVG(amount) AS a, "
        "MIN(qty) AS mn, MAX(qty) AS mx FROM sales GROUP BY region ORDER BY region"
    ).rows
    assert rows == [
        ["APJ", 1, 50.0, 50.0, 3, 3],
        ["EU", 2, 30.0, 15.0, 1, 2],
        ["US", 2, 30.0, 30.0, 1, 5],
    ]


def test_global_aggregate_without_group(db):
    row = db.query("SELECT COUNT(*), SUM(amount), COUNT(amount), COUNT(note) FROM sales").first()
    assert row == [5, 110.0, 4, 4]


def test_global_aggregate_on_empty_table():
    database = Database()
    database.execute("CREATE TABLE e (x INT)")
    row = database.query("SELECT COUNT(*), SUM(x) FROM e").first()
    assert row == [0, None]


def test_count_distinct(db):
    assert db.query("SELECT COUNT(DISTINCT region) FROM sales").scalar() == 3


def test_having(db):
    rows = db.query(
        "SELECT region FROM sales GROUP BY region HAVING SUM(amount) >= 30 ORDER BY region"
    ).rows
    assert rows == [["APJ"], ["EU"], ["US"]]


def test_order_by_hidden_column(db):
    rows = db.query("SELECT id FROM sales ORDER BY amount DESC").rows
    assert rows[0] == [5]
    assert rows[-1] == [4]  # NULL sorts last


def test_order_by_multiple_keys(db):
    rows = db.query("SELECT region, qty FROM sales ORDER BY region ASC, qty DESC").rows
    assert rows[0] == ["APJ", 3]
    assert rows[1] == ["EU", 2]


def test_distinct(db):
    rows = db.query("SELECT DISTINCT region FROM sales ORDER BY region").rows
    assert rows == [["APJ"], ["EU"], ["US"]]


def test_limit_offset(db):
    rows = db.query("SELECT id FROM sales ORDER BY id LIMIT 2 OFFSET 1").rows
    assert rows == [[2], [3]]


def test_in_between_like(db):
    assert db.query("SELECT COUNT(*) FROM sales WHERE region IN ('EU', 'APJ')").scalar() == 3
    assert db.query("SELECT COUNT(*) FROM sales WHERE qty BETWEEN 2 AND 3").scalar() == 2
    assert db.query("SELECT COUNT(*) FROM sales WHERE note LIKE '_'").scalar() == 4


def test_case_when(db):
    rows = db.query(
        "SELECT id, CASE WHEN amount >= 30 THEN 'hi' WHEN amount >= 20 THEN 'mid' "
        "ELSE 'lo' END AS bucket FROM sales WHERE amount IS NOT NULL ORDER BY id"
    ).rows
    assert [row[1] for row in rows] == ["lo", "mid", "hi", "hi"]


def test_inner_join_and_aliases(db):
    db.execute("CREATE TABLE regions (code VARCHAR, continent VARCHAR)")
    db.execute("INSERT INTO regions VALUES ('EU', 'Europe'), ('US', 'America')")
    rows = db.query(
        "SELECT r.continent, SUM(s.amount) AS total FROM sales s "
        "JOIN regions r ON s.region = r.code GROUP BY r.continent ORDER BY r.continent"
    ).rows
    assert rows == [["America", 30.0], ["Europe", 30.0]]


def test_left_join_pads_nulls(db):
    db.execute("CREATE TABLE regions (code VARCHAR, continent VARCHAR)")
    db.execute("INSERT INTO regions VALUES ('EU', 'Europe')")
    rows = db.query(
        "SELECT s.region, r.continent FROM sales s LEFT JOIN regions r "
        "ON s.region = r.code WHERE s.id = 3"
    ).rows
    assert rows == [["US", None]]


def test_implicit_join_via_where(db):
    db.execute("CREATE TABLE regions (code VARCHAR, continent VARCHAR)")
    db.execute("INSERT INTO regions VALUES ('EU', 'Europe'), ('US', 'America')")
    rows = db.query(
        "SELECT COUNT(*) FROM sales s, regions r WHERE s.region = r.code"
    ).rows
    assert rows == [[4]]


def test_cross_join(db):
    db.execute("CREATE TABLE two (x INT)")
    db.execute("INSERT INTO two VALUES (1), (2)")
    assert db.query("SELECT COUNT(*) FROM sales CROSS JOIN two").scalar() == 10


def test_derived_table(db):
    rows = db.query(
        "SELECT t.region FROM (SELECT region, SUM(amount) AS s FROM sales "
        "GROUP BY region) t WHERE t.s >= 30 ORDER BY t.region"
    ).rows
    assert rows == [["APJ"], ["EU"], ["US"]]


def test_select_star_and_qualified_star(db):
    rows = db.query("SELECT * FROM sales WHERE id = 1").rows
    assert rows == [[1, "EU", 10.0, 2, "a"]]


def test_select_without_from(db):
    assert db.query("SELECT 1 + 2 AS x").rows == [[3]]


def test_insert_from_select(db):
    db.execute("CREATE TABLE archive (id INT, region VARCHAR, amount DOUBLE, qty INT, note VARCHAR)")
    db.execute("INSERT INTO archive SELECT * FROM sales WHERE region = 'EU'")
    assert db.query("SELECT COUNT(*) FROM archive").scalar() == 2


def test_unknown_table_and_column_errors(db):
    with pytest.raises(TableNotFoundError):
        db.query("SELECT * FROM ghost")
    with pytest.raises((ColumnNotFoundError, PlanError)):
        db.query("SELECT ghost_col FROM sales")


def test_update_with_expression(db):
    count = db.execute("UPDATE sales SET amount = amount * 2 WHERE region = 'EU'").rowcount
    assert count == 2
    assert db.query("SELECT SUM(amount) FROM sales WHERE region = 'EU'").scalar() == 60.0


def test_delete_all(db):
    assert db.execute("DELETE FROM sales").rowcount == 5
    assert db.query("SELECT COUNT(*) FROM sales").scalar() == 0


def test_row_table_through_sql():
    database = Database()
    database.execute("CREATE ROW TABLE r (id INT, v DOUBLE)")
    database.execute("INSERT INTO r VALUES (1, 1.5), (2, 2.5)")
    assert database.query("SELECT SUM(v) FROM r WHERE id > 1").scalar() == 2.5
    database.execute("UPDATE r SET v = 0 WHERE id = 1")
    database.execute("DELETE FROM r WHERE id = 2")
    assert database.query("SELECT SUM(v) FROM r").scalar() == 0.0


def test_median_stddev(db):
    row = db.query("SELECT MEDIAN(amount), STDDEV(qty) FROM sales").first()
    assert row[0] == 25.0
    assert row[1] == pytest.approx(1.4966629, rel=1e-5)


def test_union_distinct_and_all(db):
    db.execute("CREATE TABLE more (id INT, region VARCHAR, amount DOUBLE, qty INT, note VARCHAR)")
    db.execute("INSERT INTO more VALUES (1, 'EU', 10.0, 2, 'a'), (9, 'LATAM', 5.0, 1, 'z')")
    distinct = db.query(
        "SELECT region FROM sales UNION SELECT region FROM more ORDER BY region"
    ).rows
    assert distinct == [["APJ"], ["EU"], ["LATAM"], ["US"]]
    all_rows = db.query(
        "SELECT region FROM sales UNION ALL SELECT region FROM more"
    ).rows
    assert len(all_rows) == 7


def test_union_arity_mismatch_rejected(db):
    import pytest as _pytest

    from repro.errors import PlanError

    with _pytest.raises(PlanError):
        db.query("SELECT id, region FROM sales UNION SELECT id FROM sales")


def test_union_order_by_ordinal_and_limit(db):
    rows = db.query(
        "SELECT id FROM sales WHERE id <= 2 UNION ALL "
        "SELECT id FROM sales WHERE id >= 4 ORDER BY 1 DESC LIMIT 2"
    ).rows
    assert rows == [[5], [4]]


def test_union_positional_column_matching(db):
    # branch output names differ; matching is positional, names from branch 1
    result = db.query("SELECT id AS k FROM sales UNION SELECT qty FROM sales")
    assert result.columns == ["k"]
    assert sorted(r[0] for r in result.rows) == [1, 2, 3, 4, 5]


@pytest.fixture
def ranked():
    """300 rows with heavy ties on every sort key, and NULLs in most."""
    database = Database()
    database.execute("CREATE TABLE r (id INT, grp VARCHAR, amount DOUBLE, qty INT)")
    values = []
    for i in range(300):
        grp = "NULL" if i % 11 == 0 else f"'g{i % 4}'"
        amount = "NULL" if i % 13 == 0 else f"{(i * 37) % 23 / 2}"
        values.append(f"({i}, {grp}, {amount}, {(i * 7) % 5 - 2})")
    database.execute(f"INSERT INTO r VALUES {', '.join(values)}")
    return database


@pytest.mark.parametrize(
    "order_by",
    [
        "amount DESC, id",
        "amount, grp DESC",
        "qty, amount DESC",
        "qty DESC, grp, amount",
        "amount DESC",
        "grp, qty",  # leading string key: no pre-selection, same answer
    ],
)
@pytest.mark.parametrize("limit, offset", [(1, 0), (10, 0), (10, 25), (7, 290), (0, 0), (400, 0)])
def test_order_by_limit_is_the_full_sort_cut(ranked, monkeypatch, order_by, limit, offset):
    """ORDER BY ... LIMIT sorts only the rows that tie with or beat the
    limit's last row on the leading numeric key, and returns exactly the
    rows the full sort puts there."""
    sql = f"SELECT id, grp, amount, qty FROM r ORDER BY {order_by}"
    full = ranked.query(sql).rows
    sorted_rows = []
    sort_order = executor._sort_order

    def spy(batch, keys, top=None):
        order = sort_order(batch, keys, top)
        sorted_rows.append(len(order))
        return order

    monkeypatch.setattr(executor, "_sort_order", spy)
    rows = ranked.query(f"{sql} LIMIT {limit} OFFSET {offset}").rows
    assert rows == full[offset : offset + limit]
    if order_by.startswith("grp") or limit + offset in (0, 400):
        assert sorted_rows == [300]  # nothing to cut on, or nothing to cut
    elif limit + offset <= 35:
        assert sorted_rows[0] < 300  # the pre-selection cut the input
