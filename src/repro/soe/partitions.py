"""Prepackaged horizontal partitions and the node-local store (v2lqp data
service state).

"The query service ... operates on horizontal table partitions which are
created during data import. These prepackaged partitions allow for a fast
distribution of the data when scaling out or for data recovery." (§IV.B)

A :class:`PrepackagedPartition` is a self-contained columnar chunk —
schema, column arrays, id — that can be shipped between nodes as one
payload. The SOE relaxes the core store's compression requirements
(§IV.A): columns are plain arrays with append dictionaries, no resorting.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.errors import SoeError
from repro.soe.cluster import approx_row_bytes


class PrepackagedPartition:
    """One shippable horizontal partition of one table."""

    def __init__(self, table: str, partition_id: int, columns: Sequence[str]) -> None:
        self.table = table
        self.partition_id = partition_id
        self.columns = [name.lower() for name in columns]
        self._data: dict[str, list[Any]] = {name: [] for name in self.columns}
        self._arrays: dict[str, np.ndarray] | None = None

    # -- writes ----------------------------------------------------------------

    def append_row(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.columns):
            raise SoeError(
                f"row width {len(row)} != {len(self.columns)} for {self.table}"
            )
        for name, value in zip(self.columns, row):
            self._data[name].append(value)
        self._arrays = None

    def append_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        for row in rows:
            self.append_row(row)

    def delete_where(self, predicate: Callable[[list[Any]], bool]) -> int:
        """Delete matching rows (compacting; SOE is read-optimised)."""
        keep: list[int] = []
        removed = 0
        for index, row in enumerate(self.rows()):
            if predicate(list(row)):
                removed += 1
            else:
                keep.append(index)
        if removed:
            for name in self.columns:
                values = self._data[name]
                self._data[name] = [values[index] for index in keep]
            self._arrays = None
        return removed

    # -- reads -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._data[self.columns[0]]) if self.columns else 0

    def column(self, name: str) -> np.ndarray:
        """The column as a NumPy array (cached)."""
        name = name.lower()
        if name not in self._data:
            raise SoeError(f"no column {name!r} in {self.table}")
        if self._arrays is None:
            from repro.sql.functions import narrow_to_array

            self._arrays = {
                key: narrow_to_array(values) for key, values in self._data.items()
            }
        return self._arrays[name]

    def column_list(self, name: str) -> list[Any]:
        """The column as the raw Python value list (kernel fast path)."""
        name = name.lower()
        if name not in self._data:
            raise SoeError(f"no column {name!r} in {self.table}")
        return self._data[name]

    def rows(self) -> Iterator[tuple[Any, ...]]:
        yield from zip(*(self._data[name] for name in self.columns))

    def size_bytes(self) -> int:
        """Approximate payload size when shipped."""
        return sum(approx_row_bytes(row) for row in self.rows())

    # -- shipping -----------------------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """Serialisable form for node-to-node distribution."""
        return {
            "table": self.table,
            "partition_id": self.partition_id,
            "columns": list(self.columns),
            "data": {name: list(values) for name, values in self._data.items()},
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "PrepackagedPartition":
        partition = cls(payload["table"], payload["partition_id"], payload["columns"])
        partition._data = {name: list(values) for name, values in payload["data"].items()}
        return partition


def hash_partition_rows(
    rows: Sequence[Sequence[Any]],
    columns: Sequence[str],
    key_positions: Sequence[int],
    partition_count: int,
    table: str,
) -> list[PrepackagedPartition]:
    """Split rows into ``partition_count`` prepackaged hash partitions."""
    partitions = [
        PrepackagedPartition(table, partition_id, columns)
        for partition_id in range(partition_count)
    ]
    for row in rows:
        partitions[route_row(row, key_positions, partition_count)].append_row(row)
    return partitions


def route_row(row: Sequence[Any], key_positions: Sequence[int], partition_count: int) -> int:
    """Partition ordinal for one row: the SOE's one hash-routing rule."""
    key = "\x1f".join(repr(row[position]) for position in key_positions)
    return zlib.crc32(key.encode("utf-8")) % partition_count


class LocalStore:
    """A data service's partition inventory: table → {partition_id → data}."""

    def __init__(self) -> None:
        self._partitions: dict[str, dict[int, PrepackagedPartition]] = {}

    def install(self, partition: PrepackagedPartition) -> None:
        self._partitions.setdefault(partition.table, {})[partition.partition_id] = partition

    def remove(self, table: str, partition_id: int) -> PrepackagedPartition | None:
        return self._partitions.get(table, {}).pop(partition_id, None)

    def partition(self, table: str, partition_id: int) -> PrepackagedPartition:
        try:
            return self._partitions[table][partition_id]
        except KeyError:
            raise SoeError(
                f"partition {table}#{partition_id} not hosted here"
            ) from None

    def has_partition(self, table: str, partition_id: int) -> bool:
        return partition_id in self._partitions.get(table, {})

    def partitions_of(self, table: str) -> list[PrepackagedPartition]:
        return list(self._partitions.get(table, {}).values())

    def tables(self) -> list[str]:
        return sorted(self._partitions)

    def total_rows(self) -> int:
        return sum(
            len(partition)
            for table in self._partitions.values()
            for partition in table.values()
        )
