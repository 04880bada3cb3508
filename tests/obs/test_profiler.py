"""Per-operator profiling: unit shape + end-to-end ``session.profile``."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.session import Session
from repro.errors import PlanError
from repro.obs.profiler import OperatorProfile


class TestOperatorProfile:
    def test_self_seconds_subtracts_children(self):
        child = OperatorProfile("ScanNode", "Scan t", wall_seconds=0.3)
        parent = OperatorProfile(
            "JoinNode", "Join", wall_seconds=1.0, children=[child]
        )
        assert parent.self_seconds == pytest.approx(0.7)
        assert child.self_seconds == pytest.approx(0.3)

    def test_self_seconds_never_negative(self):
        child = OperatorProfile("ScanNode", "Scan t", wall_seconds=2.0)
        parent = OperatorProfile("JoinNode", "Join", wall_seconds=1.0, children=[child])
        assert parent.self_seconds == 0.0

    def test_walk_is_preorder(self):
        leaf = OperatorProfile("ScanNode", "Scan t")
        mid = OperatorProfile("FilterNode", "Filter", children=[leaf])
        root = OperatorProfile("ProjectNode", "Project", children=[mid])
        assert [p.operator for p in root.walk()] == [
            "ProjectNode",
            "FilterNode",
            "ScanNode",
        ]


class TestSessionProfile:
    """The acceptance demo: profile a scan → join → aggregate query."""

    QUERY = """
        SELECT c.country, COUNT(*) AS orders, SUM(o.amount) AS total
        FROM orders AS o JOIN customers AS c ON o.customer_id = c.customer_id
        GROUP BY c.country
        ORDER BY c.country
    """

    def test_reports_every_plan_node_with_nonzero_rows(self, erp_db):
        profile = Session(erp_db).profile(self.QUERY)
        nodes = profile.nodes()
        operators = {node.operator for node in nodes}
        assert {"ScanNode", "JoinNode", "AggregateNode"} <= operators
        for node in nodes:
            assert node.rows > 0, f"{node.label} reported zero rows"
            assert node.wall_seconds >= 0.0

    def test_plan_shape_is_preserved(self, erp_db):
        profile = Session(erp_db).profile(self.QUERY)
        join = profile.node("JoinNode")
        scans = [c for c in join.children if c.operator == "ScanNode"]
        assert len(scans) == 2  # both join inputs are scans
        aggregate = profile.node("AggregateNode")
        assert any(c.operator == "JoinNode" for c in aggregate.children)

    def test_join_rows_match_base_table(self, erp_db):
        profile = Session(erp_db).profile(self.QUERY)
        order_count = erp_db.execute("SELECT COUNT(*) AS n FROM orders").rows[0][0]
        assert profile.node("JoinNode").rows == order_count

    def test_result_matches_plain_execution(self, erp_db):
        profile = Session(erp_db).profile(self.QUERY)
        plain = erp_db.execute(self.QUERY)
        assert profile.rows == plain.rows
        assert profile.result.columns == plain.columns

    def test_render_lists_rows_and_time_per_operator(self, erp_db):
        profile = Session(erp_db).profile(self.QUERY)
        text = profile.render()
        assert text.startswith("-- profile:")
        assert "Join[inner]" in text
        assert "rows=" in text and "time=" in text and "self=" in text
        assert "-- counters:" in text  # execution-context metrics footer

    def test_as_dict_is_nested_plan(self, erp_db):
        profile = Session(erp_db).profile(self.QUERY)
        payload = profile.as_dict()
        assert payload["sql"] == self.QUERY
        assert payload["plan"]["rows"] > 0
        assert payload["total_ms"] >= 0.0
        assert payload["metrics"]["rows_scanned"] > 0

    def test_total_seconds_is_root_wall_time(self, erp_db):
        profile = Session(erp_db).profile(self.QUERY)
        assert profile.total_seconds() == profile.root.wall_seconds

    def test_node_lookup_raises_on_missing_operator(self, erp_db):
        profile = Session(erp_db).profile("SELECT name FROM customers")
        with pytest.raises(KeyError):
            profile.node("SortNode")

    def test_profile_rejects_non_select(self, erp_db):
        with pytest.raises(PlanError):  # DDL has no plan; a write has one (test_write_plans.py)
            erp_db.profile("DROP TABLE customers")
        assert erp_db.catalog.has_table("customers")

    def test_profile_works_without_obs_enabled(self, erp_db):
        """Profiling is explicit per-call; the global flag is irrelevant."""
        assert not obs.enabled()
        profile = erp_db.profile("SELECT name FROM customers WHERE customer_id = 1")
        assert profile.node("ScanNode").rows == 1

    def test_profile_respects_session_parameters(self, erp_db):
        import datetime

        pinned = datetime.date(2020, 1, 15)
        session = Session(erp_db, parameters={"current_date": pinned})
        profile = session.profile("SELECT CURRENT_DATE() AS today")
        assert profile.rows == [[pinned]]

    def test_plain_execution_leaves_no_profiler_installed(self, erp_db):
        """The executor's profiler guard stays off the normal path."""
        erp_db.execute("SELECT name FROM customers")
        context = erp_db._context(None, None)
        assert context.profiler is None
