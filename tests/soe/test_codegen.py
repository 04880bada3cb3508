"""Tests for the SOE task bodies and their columnar results: the cases the
generated task kernel (``soe/codegen.py``, gone) was held to, fed to the
entry points that run :mod:`repro.sql.kernels` instead —
``QueryService.execute`` for what a worker does, ``GroupStates.merge`` /
``.rows`` / ``.size_bytes`` for what the coordinator does."""

import numpy as np

from repro.soe.partitions import PrepackagedPartition
from repro.soe.replication import DataNode
from repro.soe.services.query_service import QueryService
from repro.soe.services.shared_log import SharedLog
from repro.soe.services.transaction_broker import TransactionBroker
from repro.soe.tasks import AggregateSpec, Filter, GroupStates, HashTable, Task


def service_over(rows):
    """A query service whose node hosts partition 0 of ``t(g, v)``."""
    partition = PrepackagedPartition("t", 0, ["g", "v"])
    partition.append_rows(rows)
    node = DataNode("n0", TransactionBroker(SharedLog(stripes=1, replication=1)))
    node.own("t", [partition], key_positions=[0], partition_count=1)
    return QueryService("n0", node)


def run(service, kind, inputs=(), **params):
    task = Task(0, kind, "n0", {"table": "t", "partitions": [0], **params})
    return service.execute(task, dict(enumerate(inputs)))


def strings(*values):
    return np.array(values, dtype=object)


def test_partial_aggregate_groups_and_filters():
    service = service_over([["a", 1.0], ["a", 2.0], ["b", 10.0], ["b", None]])
    aggregates = [AggregateSpec("count"), AggregateSpec("sum", "v")]
    # the literal is an input of the task, not part of its shape
    for literal, expected in [
        (0.5, [["a", 2, 3.0], ["b", 1, 10.0]]),
        (1.5, [["a", 1, 2.0], ["b", 1, 10.0]]),
        (5.0, [["b", 1, 10.0]]),
    ]:
        states = run(
            service,
            "partial_aggregate",
            filters=[Filter("v", ">", literal)],
            group_by=["g"],
            aggregates=aggregates,
        )
        assert states.rows(aggregates) == expected


def test_null_filter_column_drops_row():
    aggregates = [AggregateSpec("count")]
    states = run(
        service_over([["a", None]]),
        "partial_aggregate",
        filters=[Filter("v", ">", 0)],
        group_by=["g"],
        aggregates=aggregates,
    )
    assert states.groups == 0
    assert states.rows(aggregates) == []


def test_probe_kernel_groups_by_hash_payload():
    service = service_over([["a", 1.0], ["b", 2.0], [None, 4.0], ["z", 8.0], ["a", None]])
    hash_table = HashTable(strings("a", "a", "b"), [strings("x", "y", "x")])
    aggregates = [AggregateSpec("count"), AggregateSpec("sum", "v")]
    states = run(
        service,
        "join_partial",
        [hash_table],
        key_column="g",
        columns=["v"],
        aggregates=aggregates,
    )
    # NULL and unmatched fact keys drop the row; "a" joins both its dim rows
    assert states.rows(aggregates) == [["x", 3, 3.0], ["y", 2, 1.0]]


def test_merge_group_states_all_ops():
    aggregates = [
        AggregateSpec("count"),
        AggregateSpec("sum", "v"),
        AggregateSpec("min", "v"),
        AggregateSpec("max", "v"),
        AggregateSpec("avg", "v"),
    ]

    def states(keys, counts, sums, lows, highs):
        counts = np.array(counts)
        values = [counts, np.array(sums), np.array(lows), np.array(highs), np.array(sums)]
        return GroupStates([strings(*keys)], [(v, counts) for v in values], len(keys))

    left = states(["a"], [2], [5.0], [1.0], [4.0])
    right = states(["a", "b"], [1, 1], [7.0, 1.0], [0.5, 1.0], [9.0, 1.0])
    merged = GroupStates.merge([left, right], aggregates, 1)
    assert merged.rows(aggregates) == [
        ["a", 3, 12.0, 0.5, 9.0, 4.0],
        ["b", 1, 1.0, 1.0, 1.0, 1.0],
    ]
    assert [counts.tolist() for _values, counts in merged.states] == [[3, 1]] * 5


def test_finalize_rows_sorted_and_avg_computed():
    aggregates = [AggregateSpec("avg", "v")]
    states = GroupStates([strings("b", "a")], [(np.array([6.0, 3.0]), np.array([2, 3]))], 2)
    assert states.rows(aggregates) == [["a", 1.0], ["b", 3.0]]


def test_estimate_states_bytes_counts_strings():
    counts = np.array([1])
    states = GroupStates([strings("region-name")], [(counts, counts), (np.array([2.0]), counts)], 1)
    # the key's text plus a terminator, then 16 bytes per aggregate state
    assert states.size_bytes() == 12 + 2 * 16
