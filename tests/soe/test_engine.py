"""End-to-end tests for the deployed SOE landscape."""

import pytest

from repro.errors import ClusterError, CoordinationError
from repro.soe.engine import SoeEngine


def test_aggregate_matches_ground_truth(small_soe):
    rows, cost = small_soe.aggregate(
        "readings", group_by=["region"], aggregates=[("count", None), ("sum", "value")]
    )
    as_dict = {row[0]: (row[1], row[2]) for row in rows}
    assert as_dict["r0"][0] == 200
    total = sum(count for count, _sum in as_dict.values())
    assert total == 600
    assert cost.strategy == "partial-aggregate"
    assert cost.tasks >= 2


def test_filtered_aggregate(small_soe):
    rows, _cost = small_soe.aggregate(
        "readings",
        aggregates=[("count", None)],
        filters=[("value", ">=", 50.0)],
    )
    assert rows[0][0] == 300


def test_insert_visibility_eventual_vs_strong(small_soe):
    before, _ = small_soe.aggregate("readings", aggregates=[("count", None)])
    small_soe.insert("readings", [[10_000, "r0", 1.0]])
    eventual, _ = small_soe.aggregate("readings", aggregates=[("count", None)])
    assert eventual == before  # OLAP nodes are stale
    strong, _ = small_soe.aggregate(
        "readings", aggregates=[("count", None)], consistency="strong"
    )
    assert strong[0][0] == before[0][0] + 1


def test_catch_up_all(small_soe):
    small_soe.insert("readings", [[10_001, "r1", 2.0]])
    small_soe.catch_up_all()
    eventual, _ = small_soe.aggregate("readings", aggregates=[("count", None)])
    assert eventual[0][0] == 601


def test_delete_through_log(small_soe):
    small_soe.delete("readings", "sensor_id", 5)
    strong, _ = small_soe.aggregate(
        "readings", aggregates=[("count", None)], consistency="strong"
    )
    assert strong[0][0] == 599


def test_join_strategies_agree():
    soe = SoeEngine(node_count=3)
    soe.create_table("fact", ["k", "v"], ["k"], partition_count=6)
    soe.create_table("dim", ["k", "grp"], ["k"], partition_count=6)
    soe.load("fact", [[i % 20, float(i)] for i in range(400)])
    soe.load("dim", [[i, f"g{i % 4}"] for i in range(20)])
    results = {}
    for strategy in ("broadcast", "repartition", "colocated"):
        rows, cost = soe.join(
            "fact", "dim", "k", "k", "grp", [("sum", "v")], strategy=strategy
        )
        results[strategy] = sorted(map(tuple, rows))
        assert cost.strategy == strategy
    assert results["broadcast"] == results["repartition"] == results["colocated"]


def test_colocated_join_is_refused_unless_both_sides_are_partitioned_on_the_key():
    """``f`` is partitioned on ``id``, not on the join key ``k``: a node-local
    join would see only the dim rows that happen to share a partition."""
    soe = SoeEngine(node_count=4)
    soe.create_table("f", ["id", "k", "v"], ["id"], partition_count=8)
    soe.create_table("d", ["k", "g"], ["k"], partition_count=8)
    soe.load("f", [[i, i % 50, 1.0] for i in range(2000)])
    soe.load("d", [[k, f"g{k % 3}"] for k in range(50)])
    for strategy in ("broadcast", "repartition", "auto"):
        rows, cost = soe.join("f", "d", "k", "k", "g", [("sum", "v")], strategy=strategy)
        assert sum(row[1] for row in rows) == 2000.0
        assert cost.strategy != "colocated"
    with pytest.raises(CoordinationError, match="colocated"):
        soe.join("f", "d", "k", "k", "g", [("sum", "v")], strategy="colocated")


def test_join_strategies_agree_with_reference():
    """Every strategy against a plain nested-loop join: all aggregate ops,
    NULL fact keys, NULL dim keys (NULL = NULL must not match), NULL
    values, duplicate dim keys, a dim key without fact rows."""
    fact = [[i % 7, None if i % 5 == 0 else float(i % 11)] for i in range(140)]
    fact += [[None, 99.0], [None, None], [6, None]]
    fact = [row for row in fact if row[0] != 5 or row[1] is None]  # g5: only NULLs
    dim = [[k, f"g{k}"] for k in range(8)]  # key 7 has no fact rows
    dim += [[3, "g3"], [3, "dup"], [None, "nullgrp"]]
    soe = SoeEngine(node_count=3)
    soe.create_table("fact", ["k", "v"], ["k"], partition_count=6)
    soe.create_table("dim", ["k", "grp"], ["k"], partition_count=6)
    soe.load("fact", fact)
    soe.load("dim", dim)

    matched: dict[str, list] = {}
    for fact_key, value in fact:
        for dim_key, group in dim:
            if fact_key is not None and fact_key == dim_key:
                matched.setdefault(group, []).append(value)
    expected = []
    for group, values in sorted(matched.items()):
        present = [v for v in values if v is not None]
        expected.append([
            group,
            len(values),
            len(present),
            sum(present) if present else None,
            sum(present) / len(present) if present else None,
            min(present, default=None),
            max(present, default=None),
        ])
    assert any(row[2] == 0 for row in expected)  # the all-NULL group is exercised

    aggregates = [
        ("count", None), ("count", "v"), ("sum", "v"), ("avg", "v"), ("min", "v"), ("max", "v"),
    ]
    for strategy in ("broadcast", "repartition", "colocated"):
        rows, _cost = soe.join("fact", "dim", "k", "k", "grp", aggregates, strategy=strategy)
        assert rows == expected, strategy


def test_repartition_join_runs_on_the_workers():
    soe = SoeEngine(node_count=3)
    soe.create_table("fact", ["id", "k", "v"], ["id"], partition_count=6)
    soe.create_table("dim", ["k", "grp"], ["k"], partition_count=6)
    soe.load("fact", [[i, i % 20, 1.0] for i in range(400)])
    soe.load("dim", [[i, f"g{i % 4}"] for i in range(20)])
    services = soe.coordinator.query_services.values()
    tasks_before = {service.node_id: service.tasks_executed for service in services}
    rows, cost = soe.join("fact", "dim", "k", "k", "grp", [("sum", "v")], strategy="repartition")
    assert rows == [[f"g{i}", 100.0] for i in range(4)]
    # only rows scanned from local partitions count as node load (v2stats):
    # the shipped buckets the workers join are not counted a second time
    assert sum(service.rows_processed for service in services) == 400 + 20
    # scan_ship of each side, then build_hash + join_partial of its bucket
    for service in services:
        assert service.tasks_executed - tasks_before[service.node_id] == 4
    assert cost.tasks == 3 * 4 + 1


def test_communication_costs_order_by_strategy():
    # fact is partitioned on id, NOT on the join key k: repartition must
    # genuinely shuffle, broadcast ships only the small dim table.
    soe = SoeEngine(node_count=4)
    soe.create_table("fact", ["id", "k", "v"], ["id"], partition_count=8)
    soe.create_table("dim", ["k", "grp"], ["k"], partition_count=8)
    soe.load("fact", [[i, i % 50, 1.0] for i in range(2000)])
    soe.load("dim", [[i, f"g{i % 3}"] for i in range(50)])
    costs = {}
    results = {}
    for strategy in ("broadcast", "repartition"):
        soe.cluster.reset_stats()
        rows, cost = soe.join("fact", "dim", "k", "k", "grp", [("sum", "v")], strategy=strategy)
        costs[strategy] = cost.bytes_shipped
        results[strategy] = sorted(map(tuple, rows))
    assert results["broadcast"] == results["repartition"]
    assert costs["broadcast"] < costs["repartition"]

    # when both sides ARE hash-partitioned on the join key, a co-located
    # plan ships only the final partial states — the cheapest of all.
    aligned = SoeEngine(node_count=4)
    aligned.create_table("fact", ["k", "v"], ["k"], partition_count=8)
    aligned.create_table("dim", ["k", "grp"], ["k"], partition_count=8)
    aligned.load("fact", [[i % 50, 1.0] for i in range(2000)])
    aligned.load("dim", [[i, f"g{i % 3}"] for i in range(50)])
    _rows, colocated_cost = aligned.join(
        "fact", "dim", "k", "k", "grp", [("sum", "v")], strategy="colocated"
    )
    assert colocated_cost.bytes_shipped <= costs["broadcast"]


def test_auto_strategy_picks_colocated_when_aligned():
    soe = SoeEngine(node_count=2)
    soe.create_table("fact", ["k", "v"], ["k"], partition_count=4)
    soe.create_table("dim", ["k", "grp"], ["k"], partition_count=4)
    soe.load("fact", [[i % 10, 1.0] for i in range(100)])
    soe.load("dim", [[i, "g"] for i in range(10)])
    _rows, cost = soe.join("fact", "dim", "k", "k", "grp", [("sum", "v")], strategy="auto")
    assert cost.strategy == "colocated"


def test_replication_survives_node_failure():
    soe = SoeEngine(node_count=3, replication=2)
    soe.create_table("t", ["k", "v"], ["k"], partition_count=6)
    soe.load("t", [[i, float(i)] for i in range(300)])
    baseline, _ = soe.aggregate("t", aggregates=[("count", None)])
    soe.cluster.kill("worker0")
    after, _ = soe.aggregate("t", aggregates=[("count", None)])
    assert after == baseline


def test_unreplicated_failure_is_detected():
    soe = SoeEngine(node_count=2, replication=1)
    soe.create_table("t", ["k"], ["k"], partition_count=4)
    soe.load("t", [[i] for i in range(10)])
    soe.cluster.kill("worker0")
    with pytest.raises(CoordinationError):
        soe.aggregate("t", aggregates=[("count", None)])


def test_statistics_snapshot(small_soe):
    small_soe.aggregate("readings", aggregates=[("count", None)])
    stats = small_soe.statistics()
    assert stats["nodes"] == 4  # coordinator + 3 workers
    assert stats["log_tail"] == 0
    assert sum(stats["stats"]["node_load"].values()) >= 600


def test_engine_validation():
    with pytest.raises(Exception):
        SoeEngine(node_count=0)
    with pytest.raises(Exception):
        SoeEngine(node_count=2, node_modes=["olap"])


def test_assignments_spread_across_replicas():
    soe = SoeEngine(node_count=3, replication=2)
    soe.create_table("t", ["k"], ["k"], partition_count=6)
    soe.load("t", [[i] for i in range(600)])
    assignments = soe.coordinator._assignments("t")
    # with 2 replicas per partition the scan load spreads over all workers
    assert len(assignments) == 3
    counts = sorted(len(v) for v in assignments.values())
    assert counts == [2, 2, 2]


def test_ungrouped_aggregate_over_no_rows_yields_one_row():
    """A global aggregate always yields one row — as in ``repro.sql`` — even
    when no row qualifies anywhere; grouped aggregates and joins yield none."""
    soe = SoeEngine(node_count=2)
    soe.create_table("t", ["k", "s", "v"], ["k"], partition_count=4)
    soe.create_table("dim", ["k", "grp"], ["k"], partition_count=4)
    aggregates = [("count", None), ("sum", "v"), ("min", "v"), ("max", "v"), ("avg", "v")]
    nothing = [[0, None, None, None, None]]
    # a table no partition of which was ever placed, then one loaded empty
    assert soe.aggregate("t", aggregates=aggregates)[0] == nothing
    soe.load("t", [])
    assert soe.aggregate("t", aggregates=aggregates)[0] == nothing
    assert soe.aggregate("t", group_by=["s"], aggregates=aggregates)[0] == []

    soe.insert("t", [[i, "a" if i % 2 else "b", i] for i in range(20)])
    soe.load("dim", [[i, "g"] for i in range(5)])
    soe.catch_up_all()
    absent = [("s", "=", "absent")]
    assert soe.aggregate("t", aggregates=aggregates, filters=absent)[0] == nothing
    assert soe.aggregate("t", group_by=["s"], aggregates=aggregates, filters=absent)[0] == []
    assert soe.aggregate("t", aggregates=aggregates)[0] == [[20, 190, 0, 19, 9.5]]

    for value in ("a", "b"):
        soe.delete("t", "s", value)
    soe.catch_up_all()
    assert soe.aggregate("t", aggregates=aggregates)[0] == nothing
    for strategy in ("broadcast", "repartition", "colocated"):
        assert soe.join("t", "dim", "k", "k", "grp", aggregates, strategy=strategy)[0] == []


def test_filter_columns_are_case_insensitive(small_soe):
    lower, _ = small_soe.aggregate("readings", filters=[("region", "=", "r0")])
    upper, _ = small_soe.aggregate("readings", filters=[("REGION", "=", "r0")])
    assert upper == lower == [[200]]


@pytest.mark.parametrize(
    "run",
    [
        lambda soe: soe.aggregate("readings", filters=[("value", "~", 1.0)]),
        lambda soe: soe.aggregate("readings", filters=[("nope", "=", 1.0)]),
        lambda soe: soe.aggregate("readings", group_by=["nope"]),
        lambda soe: soe.aggregate("readings", aggregates=[("sum", "nope")]),
        lambda soe: soe.join("readings", "regions", "nope", "region", "zone", [("count", None)]),
        lambda soe: soe.join("readings", "regions", "region", "nope", "zone", [("count", None)]),
        lambda soe: soe.join("readings", "regions", "region", "region", "nope", [("count", None)]),
        lambda soe: soe.join("readings", "regions", "region", "region", "zone", [("sum", "nope")]),
    ],
    ids=["filter-op", "filter-column", "group-by", "aggregate", "fact-key", "dim-key",
         "group-column", "join-aggregate"],
)
def test_bad_queries_are_refused_at_plan_time(small_soe, run):
    """An unknown filter operator or column is a non-retryable planning
    error: no task is dispatched and no transfer charged."""
    small_soe.create_table("regions", ["region", "zone"], ["region"])
    small_soe.load("regions", [["r0", "north"], ["r1", "south"]])
    services = small_soe.coordinator.query_services.values()
    before = [service.tasks_executed for service in services]
    messages = small_soe.cluster.stats.messages
    with pytest.raises(CoordinationError):
        run(small_soe)
    assert [service.tasks_executed for service in services] == before
    assert small_soe.cluster.stats.messages == messages
