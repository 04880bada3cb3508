"""Tests for the Calc Engine data-flow graphs."""

import pytest

from repro.core.database import Database
from repro.engines.ml.rops import make_r_adapter
from repro.errors import PlanError
from repro.sql.calcengine import CalcScenario


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE sales (region VARCHAR, x DOUBLE, y DOUBLE)")
    rows = ", ".join(
        f"('{'EU' if i % 2 == 0 else 'US'}', {float(i)}, {2.0 * i + 1.0})"
        for i in range(40)
    )
    database.execute(f"INSERT INTO sales VALUES {rows}")
    return database


def test_table_source_filter_project(db):
    scenario = CalcScenario("s", db)
    scenario.table_source("src", "sales")
    scenario.filter("eu", "src", "region", "=", "EU")
    scenario.project("out", "eu", ["x", "y"])
    columns, rows = scenario.execute("out")
    assert columns == ["x", "y"]
    assert len(rows) == 20


def test_python_operator_transforms_and_drops(db):
    scenario = CalcScenario("s", db)
    scenario.table_source("src", "sales")
    scenario.python_operator(
        "enrich",
        "src",
        lambda row: {"region": row["region"], "ratio": row["y"] / (row["x"] + 1)}
        if row["x"] > 0
        else None,
    )
    columns, rows = scenario.execute("enrich")
    assert columns == ["region", "ratio"]
    assert len(rows) == 39  # x == 0 dropped


def test_external_r_operator_in_dataflow(db):
    provider = make_r_adapter()
    scenario = CalcScenario("s", db)
    scenario.table_source("src", "sales", columns=["x", "y"])
    scenario.external_operator("lm", "src", provider, "lm")
    columns, rows = scenario.execute("lm")
    assert dict(rows)["slope"] == pytest.approx(2.0)
    assert provider.stats.rows_out == 40


def test_optimizer_embraces_filter_before_external_call(db):
    provider = make_r_adapter()
    scenario = CalcScenario("s", db)
    scenario.table_source("src", "sales", columns=["region", "x", "y"])
    scenario.filter("eu", "src", "region", "=", "EU")
    scenario.project("xy", "eu", ["x", "y"])
    scenario.external_operator("lm", "xy", provider, "lm")
    embraced = scenario.optimize()
    assert embraced == 1
    columns, rows = scenario.execute("lm")
    assert dict(rows)["slope"] == pytest.approx(2.0)
    # only the 20 qualifying rows were shipped to the external system
    assert provider.stats.rows_out == 20
    assert scenario.node_output_rows["src"] == 20


def test_optimizer_keeps_filter_when_source_is_shared(db):
    scenario = CalcScenario("s", db)
    scenario.table_source("src", "sales")
    scenario.filter("eu", "src", "region", "=", "EU")
    scenario.aggregate("all_agg", "src", [], [("count", None)])
    assert scenario.optimize() == 0  # src feeds all_agg unfiltered
    columns, rows = scenario.execute("all_agg")
    assert rows == [[40]]


def test_join_union_aggregate(db):
    db.execute("CREATE TABLE regions (code VARCHAR, continent VARCHAR)")
    db.execute("INSERT INTO regions VALUES ('EU', 'Europe'), ('US', 'America')")
    scenario = CalcScenario("s", db)
    scenario.table_source("sales_src", "sales")
    scenario.table_source("dim", "regions")
    scenario.join("joined", "sales_src", "dim", "region", "code")
    scenario.aggregate("agg", "joined", ["continent"], [("count", None), ("sum", "x")])
    columns, rows = scenario.execute("agg")
    assert columns == ["continent", "count", "sum_x"]
    assert rows == [["America", 20, sum(float(i) for i in range(1, 40, 2))],
                    ["Europe", 20, sum(float(i) for i in range(0, 40, 2))]]

    scenario.union("both", ["sales_src", "sales_src"])
    _cols, doubled = scenario.execute("both")
    assert len(doubled) == 80


def test_graph_validation(db):
    scenario = CalcScenario("s", db)
    scenario.table_source("src", "sales")
    with pytest.raises(PlanError):
        scenario.table_source("src", "sales")  # duplicate
    with pytest.raises(PlanError):
        scenario.filter("f", "ghost", "x", ">", 1)
    with pytest.raises(PlanError):
        scenario.filter("f", "src", "x", "~", 1)
    with pytest.raises(PlanError):
        scenario.union("u", ["src"])
    with pytest.raises(PlanError):
        scenario.execute("ghost")


def test_sql_source(db):
    scenario = CalcScenario("s", db)
    scenario.sql_source("top", "SELECT region, SUM(x) AS total FROM sales GROUP BY region")
    columns, rows = scenario.execute("top")
    assert columns == ["region", "total"]
    assert len(rows) == 2


@pytest.mark.parametrize(
    "sql, column, op, value",
    [
        ("SELECT region, SUM(x) AS total FROM sales GROUP BY region", "total", ">", 2.5),
        ("SELECT region, x FROM sales ORDER BY x LIMIT 2", "x", ">", 0.5),
        ("SELECT x AS somewhere, y FROM sales", "somewhere", "<", 3),
    ],
)
def test_optimize_keeps_the_answer_over_sql_sources(db, sql, column, op, value):
    def build():
        scenario = CalcScenario("s", db)
        scenario.sql_source("src", sql)
        scenario.filter("f", "src", column, op, value)
        scenario.project("out", "f", [column])
        return scenario

    expected = build().execute("out")
    assert expected[1]  # the filter keeps something
    scenario = build()
    scenario.optimize()
    assert scenario.execute("out") == expected
    assert scenario.execute("f") == build().execute("f")


def test_a_folded_filter_still_answers_by_name(db):
    def build():
        scenario = CalcScenario("s", db)
        scenario.table_source("src", "sales", columns=["region", "x"])
        scenario.filter("eu", "src", "region", "=", "EU")
        scenario.filter("small", "eu", "x", "<", 10.0)
        return scenario

    expected = build().execute("small")
    scenario = build()
    assert scenario.optimize() == 1  # "eu" still answers, so "small" stays a filter over it
    assert scenario.execute("small") == expected
    assert scenario.execute("eu") == build().execute("eu")
    assert scenario.node_output_rows["eu"] == scenario.node_output_rows["src"] == 20
    assert scenario.node_output_rows["small"] == 5
    scenario.project("xs", "small", ["x"])  # a folded name also resolves as an input
    assert scenario.execute("xs") == (["x"], [[0.0], [2.0], [4.0], [6.0], [8.0]])


def test_each_node_kind_agrees_with_sql(db):
    """Every relational node kind answers what the same question asked
    through SQL answers (as a multiset: SQL may reorder the join)."""
    db.execute("CREATE TABLE regions (code VARCHAR, continent VARCHAR)")
    db.execute("INSERT INTO regions VALUES ('EU', 'Europe'), ('US', 'America')")
    scenario = CalcScenario("s", db)
    scenario.table_source("sales_src", "sales")
    scenario.table_source("dim", "regions")
    scenario.sql_source("big", "SELECT region, x FROM sales WHERE x >= 30")
    scenario.filter("eu", "sales_src", "region", "=", "EU")
    scenario.project("xy", "eu", ["y", "x"])
    scenario.join("joined", "sales_src", "dim", "region", "code")
    scenario.union("both", ["big", "big"])
    scenario.aggregate(
        "agg",
        "joined",
        ["continent"],
        [("count", None), ("sum", "x"), ("avg", "y"), ("min", "x"), ("max", "y"), ("count", "x")],
    )
    questions = {
        "sales_src": "SELECT * FROM sales",
        "big": "SELECT region, x FROM sales WHERE x >= 30",
        "eu": "SELECT * FROM sales WHERE region = 'EU'",
        "xy": "SELECT y, x FROM sales WHERE region = 'EU'",
        "joined": "SELECT s.region, x, y, code, continent "
        "FROM sales s JOIN regions r ON s.region = r.code",
        "both": "SELECT region, x FROM sales WHERE x >= 30 "
        "UNION ALL SELECT region, x FROM sales WHERE x >= 30",
        "agg": "SELECT continent, COUNT(*), SUM(x), AVG(y), MIN(x), MAX(y), COUNT(x) "
        "FROM sales JOIN regions ON region = code GROUP BY continent ORDER BY continent",
    }
    for name, sql in questions.items():
        _columns, rows = scenario.execute(name)
        assert sorted(rows, key=repr) == sorted(db.execute(sql).rows, key=repr), name


def test_aggregate_groups_come_out_in_value_order_nulls_last(db):
    db.execute("CREATE TABLE g (k INT, v INT)")
    db.execute("INSERT INTO g VALUES (10, 1), (2, 2), (NULL, 3), (10, 4)")
    scenario = CalcScenario("s", db)
    scenario.table_source("src", "g")
    scenario.aggregate("agg", "src", ["k"], [("count", None)])
    assert scenario.execute("agg") == (["k", "count"], [[2, 1], [10, 2], [None, 1]])


def test_relational_nodes_over_operators_that_name_their_columns_when_they_run(db):
    scenario = CalcScenario("s", db)
    scenario.table_source("src", "sales")
    scenario.python_operator(
        "big", "src", lambda row: {"region": row["region"], "z": row["x"] * 10} if row["x"] > 35 else None
    )
    scenario.filter("f", "big", "z", ">", 370.0)
    scenario.aggregate("agg", "big", ["region"], [("sum", "z")])
    scenario.join("self", "src", "src", "x", "x")  # one node's columns on both sides
    scenario.join("mixed", "f", "src", "region", "region")
    assert scenario.execute("f") == (["region", "z"], [["EU", 380.0], ["US", 390.0]])
    assert scenario.execute("agg") == (["region", "sum_z"], [["EU", 740.0], ["US", 760.0]])
    columns, rows = scenario.execute("self")
    assert columns == ["region", "x", "y"] * 2 and len(rows) == 40
    assert all(row[:3] == row[3:] for row in rows)
    columns, rows = scenario.execute("mixed")
    assert columns == ["region", "z", "region", "x", "y"] and len(rows) == 40
    scenario.union("twice", ["big", "big"])
    with pytest.raises(PlanError):  # a union needs its inputs' columns up front
        scenario.execute("twice")
