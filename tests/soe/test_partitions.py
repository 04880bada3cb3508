"""Tests for prepackaged partitions and the local store."""

import pytest

from repro.errors import SoeError
from repro.soe.partitions import (
    LocalStore,
    PrepackagedPartition,
    hash_partition_rows,
    route_row,
)


def test_append_and_columns():
    partition = PrepackagedPartition("t", 0, ["a", "b"])
    partition.append_rows([[1, "x"], [2, "y"]])
    assert len(partition) == 2
    assert partition.column("a").tolist() == [1, 2]
    assert partition.column("b").decode().tolist() == ["x", "y"]
    assert list(partition.rows()) == [(1, "x"), (2, "y")]


@pytest.mark.parametrize("read_between", [False, True])
def test_integers_beside_floats_join_as_floats_only_where_exact(read_between):
    """Integers then floats, in one batch or stored then appended, pack as
    ``float64`` while it holds every integer; beyond 2**53 they stay exact."""
    for big in (2**53, 2**53 + 1):
        partition = PrepackagedPartition("t", 0, ["a"])
        partition.append_row([big])
        if read_between:
            partition.column("a")
        partition.append_row([0.5])
        column = partition.column("a")
        assert (column.dtype == "float64") == (big == 2**53)
        assert [value for (value,) in partition.rows()] == [big, 0.5]
        assert type(next(partition.rows())[0]) is (float if big == 2**53 else int)


def test_row_width_validated():
    partition = PrepackagedPartition("t", 0, ["a", "b"])
    with pytest.raises(SoeError):
        partition.append_row([1])
    with pytest.raises(SoeError):
        partition.column("missing")


def test_delete_where_compacts():
    partition = PrepackagedPartition("t", 0, ["a"])
    partition.append_rows([[1], [2], [3]])
    removed = partition.delete_where("a", 2)
    assert removed == 1
    assert list(partition.column("a")) == [1, 3]


def test_payload_round_trip():
    partition = PrepackagedPartition("t", 3, ["a", "b"])
    partition.append_rows([[1, "x"]])
    clone = PrepackagedPartition.from_payload(partition.to_payload())
    assert clone.partition_id == 3
    assert list(clone.rows()) == [(1, "x")]
    assert partition.size_bytes() > 0


def test_hash_partitioning_consistent_with_route_row():
    rows = [[i, f"v{i}"] for i in range(100)]
    partitions = hash_partition_rows(rows, ["k", "v"], [0], 4, "t")
    assert sum(len(p) for p in partitions) == 100
    for partition in partitions:
        for row in partition.rows():
            assert route_row(row, [0], 4) == partition.partition_id


def test_local_store_install_lookup_remove():
    store = LocalStore()
    partition = PrepackagedPartition("t", 1, ["a"])
    partition.append_row([5])
    store.install(partition)
    assert store.has_partition("t", 1)
    assert store.partition("t", 1) is partition
    assert store.partitions_of("t") == [partition]
    assert store.tables() == ["t"]
    assert store.total_rows() == 1
    assert store.remove("t", 1) is partition
    with pytest.raises(SoeError):
        store.partition("t", 1)
