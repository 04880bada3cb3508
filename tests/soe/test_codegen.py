"""Tests for the SOE task-kernel code generation."""

from repro.soe.codegen import (
    compile_aggregate_kernel,
    estimate_states_bytes,
    finalize_groups,
    merge_group_states,
    run_partial_aggregate,
)
from repro.soe.partitions import PrepackagedPartition
from repro.soe.tasks import AggregateSpec, Filter


def make_partition(rows):
    partition = PrepackagedPartition("t", 0, ["g", "v"])
    partition.append_rows(rows)
    return partition


def test_partial_aggregate_groups_and_filters():
    partition = make_partition([["a", 1.0], ["a", 2.0], ["b", 10.0], ["b", None]])
    groups = run_partial_aggregate(
        [partition],
        filters=[Filter("v", ">", 0.5)],
        group_by=["g"],
        aggregates=[AggregateSpec("count"), AggregateSpec("sum", "v")],
    )
    assert groups[("a",)] == [2, 3.0]
    assert groups[("b",)] == [1, 10.0]


def test_null_filter_column_drops_row():
    partition = make_partition([["a", None]])
    groups = run_partial_aggregate(
        [partition], [Filter("v", ">", 0)], ["g"], [AggregateSpec("count")]
    )
    assert groups == {}


def test_kernel_cache_reuses_compiled_function():
    shape = (("g", "v"), (Filter("v", ">", 1),), ("g",), (AggregateSpec("sum", "v"),))
    first = compile_aggregate_kernel(*shape)
    assert first is compile_aggregate_kernel(*shape)
    assert "def _kernel" in first.generated_source

    # filter literals are read from _consts at run time: one kernel per
    # (column, op), not one per literal
    partition = make_partition([["a", 1.0], ["a", 2.0], ["b", 10.0]])
    aggregates = [AggregateSpec("sum", "v")]
    answers = [
        run_partial_aggregate([partition], [Filter("v", ">", literal)], ["g"], aggregates)
        for literal in (1.5, 5.0)
    ]
    assert answers == [{("a",): [2.0], ("b",): [10.0]}, {("b",): [10.0]}]
    other_literal = (shape[0], (Filter("v", ">", 5.0),), *shape[2:])
    assert compile_aggregate_kernel(*other_literal) is first

    # the probe variant (a join) is a distinct cache entry of the same generator
    probe = compile_aggregate_kernel(*shape, probe_key="g")
    assert probe is not first
    assert probe is compile_aggregate_kernel(*shape, probe_key="g")
    assert "_hash.get(" in probe.generated_source
    assert "_hash.get(" not in first.generated_source


def test_probe_kernel_groups_by_hash_payload():
    partition = make_partition([["a", 1.0], ["b", 2.0], [None, 4.0], ["z", 8.0], ["a", None]])
    hash_table = {"a": [("x",), ("y",)], "b": [("x",)]}
    groups = run_partial_aggregate(
        [partition],
        [],
        [],
        [AggregateSpec("count"), AggregateSpec("sum", "v")],
        probe=("g", hash_table),
    )
    assert groups == {("x",): [3, 3.0], ("y",): [2, 1.0]}


def test_merge_group_states_all_ops():
    aggregates = [
        AggregateSpec("count"),
        AggregateSpec("sum", "v"),
        AggregateSpec("min", "v"),
        AggregateSpec("max", "v"),
        AggregateSpec("avg", "v"),
    ]
    left = {("a",): [2, 5.0, 1.0, 4.0, [5.0, 2]]}
    right = {("a",): [1, 7.0, 0.5, 9.0, [7.0, 1]], ("b",): [1, 1.0, 1.0, 1.0, [1.0, 1]]}
    merged = merge_group_states([left, right], aggregates)
    assert merged[("a",)] == [3, 12.0, 0.5, 9.0, [12.0, 3]]
    assert merged[("b",)][0] == 1


def test_finalize_rows_sorted_and_avg_computed():
    aggregates = [AggregateSpec("avg", "v")]
    rows = finalize_groups({("b",): [[6.0, 2]], ("a",): [[3.0, 3]]}, aggregates)
    assert rows == [["a", 1.0], ["b", 3.0]]


def test_estimate_states_bytes_counts_strings():
    size = estimate_states_bytes({("region-name",): [1, 2.0]})
    assert size > 32
