"""Tests for the RDD layer and SOE pushdown wrapping."""

import pytest

from repro.errors import HadoopError
from repro.hadoop.rdd import Rdd, soe_table_rdd


def test_functional_chain_is_lazy_and_correct():
    source = Rdd.from_iterable(range(10))
    chained = source.filter(lambda x: x % 2 == 0).map(lambda x: x * 10)
    assert chained.collect() == [0, 20, 40, 60, 80]
    assert chained.count() == 5
    assert chained.take(2) == [0, 20]


def test_flat_map_distinct_union():
    rdd = Rdd.from_iterable(["a b", "b c"]).flat_map(str.split)
    assert rdd.collect() == ["a", "b", "b", "c"]
    assert rdd.distinct().collect() == ["a", "b", "c"]
    assert rdd.union(Rdd.from_iterable(["z"])).count() == 5


def test_reduce_by_key_and_reduce():
    pairs = Rdd.from_iterable([("a", 1), ("b", 2), ("a", 3)])
    assert pairs.reduce_by_key(lambda x, y: x + y).collect() == [("a", 4), ("b", 2)]
    assert Rdd.from_iterable([1, 2, 3]).reduce(lambda x, y: x + y) == 6
    with pytest.raises(HadoopError):
        Rdd.from_iterable([]).reduce(lambda x, y: x + y)


def test_join():
    left = Rdd.from_iterable([("k1", "a"), ("k2", "b")])
    right = Rdd.from_iterable([("k1", 1), ("k1", 2)])
    assert left.join(right).collect() == [("k1", ("a", 1)), ("k1", ("a", 2))]


def test_hdfs_source_and_sink(hdfs):
    hdfs.write_file("/in", ["1", "2", "3"])
    rdd = Rdd.from_hdfs(hdfs, "/in").map(int).filter(lambda x: x > 1)
    rdd.save_to_hdfs(hdfs, "/out")
    assert list(hdfs.read_file("/out")) == ["2", "3"]


def test_soe_rdd_pushdown_aggregate(small_soe):
    wrapped = soe_table_rdd(small_soe, "readings").filter("region", "=", "r1")
    result = wrapped.aggregate(["region"], [("count", None)])
    assert result.collect() == [["r1", 200]]
    assert any("filter" in op for op in wrapped.pushed_operations)
    assert any("aggregate" in op for op in wrapped.pushed_operations)


def test_soe_rdd_materialise_rows(small_soe):
    wrapped = soe_table_rdd(small_soe, "readings").filter("sensor_id", "<", 3)
    rows = wrapped.rows().collect()
    assert len(rows) == 3
    assert {row[0] for row in rows} == {0, 1, 2}


def test_soe_rdd_rows_deduplicate_replicas():
    from repro.soe.engine import SoeEngine

    soe = SoeEngine(node_count=2, replication=2)
    soe.create_table("t", ["k"], ["k"], partition_count=4)
    soe.load("t", [[i] for i in range(50)])
    rows = soe_table_rdd(soe, "t").rows().collect()
    assert len(rows) == 50


def test_soe_rdd_rows_read_each_partition_once():
    """Replicas are copies, not duplicates: equal rows all come back, as
    many as the engine counts."""
    from repro.soe.engine import SoeEngine

    soe = SoeEngine(node_count=2, replication=2)
    soe.create_table("t", ["k", "v"], ["k"], partition_count=4)
    soe.load("t", [[1, "a"], [1, "a"], [2, "b"], [3, "c"]])
    [[count]], _cost = soe.aggregate("t", aggregates=[("count", None)])
    rows = soe_table_rdd(soe, "t").rows().collect()
    assert sorted(rows) == [(1, "a"), (1, "a"), (2, "b"), (3, "c")]
    assert len(rows) == count == 4
    assert soe_table_rdd(soe, "t").filter("v", "=", "a").rows().count() == 2
