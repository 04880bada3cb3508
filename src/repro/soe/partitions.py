"""Prepackaged horizontal partitions and the node-local store (v2lqp data
service state).

"The query service ... operates on horizontal table partitions which are
created during data import. These prepackaged partitions allow for a fast
distribution of the data when scaling out or for data recovery." (§IV.B)

A :class:`PrepackagedPartition` is a self-contained columnar chunk —
schema, column arrays, id — that can be shipped between nodes as one
payload. The SOE relaxes the core store's compression requirements
(§IV.A): columns are plain arrays with append dictionaries, no resorting.
The arrays are the ones the shared operator kernels
(:mod:`repro.sql.kernels`) take: a typed NumPy array, or a
:class:`~repro.sql.expressions.Coded` column over the append dictionary.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterator, Sequence

import numpy as np

from repro.errors import SoeError
from repro.soe.cluster import approx_row_bytes
from repro.sql.expressions import Coded, Column, compare, concat_columns, python_values
from repro.sql.kernels import group_ids, nulls
from repro.util.arrays import typed_array


class PrepackagedPartition:
    """One shippable horizontal partition of one table.

    A write appends to per-column Python lists and nothing else. A column
    is put in array form when a query first reads it, and after later
    writes only the values appended since are encoded and joined to the
    array: a typed array where the values-to-column rule of
    :mod:`repro.util.arrays` gives one, and where it leaves ``object``
    (strings, an integer beside a NULL) codes into the column's append
    dictionary. Columns no query touches are never encoded.
    """

    def __init__(self, table: str, partition_id: int, columns: Sequence[str]) -> None:
        self.table = table
        self.partition_id = partition_id
        self.columns = [name.lower() for name in columns]
        #: each column's first rows in array form (None: nothing read yet)
        self._stored: dict[str, Column | None] = dict.fromkeys(self.columns)
        #: the append dictionaries of the coded columns: value -> code
        self._codes: dict[str, dict[Any, int]] = {}
        #: per column, the values appended since it was last read
        self._pending: dict[str, list[Any]] = {name: [] for name in self.columns}

    # -- writes ----------------------------------------------------------------

    def append_row(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.columns):
            raise SoeError(
                f"row width {len(row)} != {len(self.columns)} for {self.table}"
            )
        for name, value in zip(self.columns, row):
            self._pending[name].append(value)

    def append_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """Append rows column by column: one transposition, no call per row
        (a bulk load's path; a replicated write appends its few rows one
        by one)."""
        widths = set(map(len, rows)) - {len(self.columns)}
        if widths:
            raise SoeError(f"row width {min(widths)} != {len(self.columns)} for {self.table}")
        for name, values in zip(self.columns, zip(*rows)):
            self._pending[name].extend(values)

    def delete_where(self, column: str, value: Any) -> int:
        """Delete the rows whose ``column`` equals ``value`` (compacting; SOE
        is read-optimised). Returns the number of rows removed."""
        doomed = nulls(self.column(column)) if value is None else self.compare(column, "=", value)
        removed = int(doomed.sum())
        if removed:
            for name in self.columns:
                self._stored[name] = self.column(name)[~doomed]
        return removed

    # -- reads -------------------------------------------------------------------

    def __len__(self) -> int:
        if not self.columns:
            return 0
        stored = self._stored[self.columns[0]]
        return (0 if stored is None else len(stored)) + len(self._pending[self.columns[0]])

    def column(self, name: str) -> Column:
        """The column in array form: a typed array or a coded column."""
        name = name.lower()
        if name not in self._pending:
            raise SoeError(f"no column {name!r} in {self.table}")
        if self._pending[name]:
            self._stored[name] = self._append(name, self._pending[name])
            self._pending[name] = []
        stored = self._stored[name]
        return np.empty(0, dtype=np.int64) if stored is None else stored

    def _append(self, name: str, values: list[Any]) -> Column:
        """The stored column followed by ``values``, encoded. The Python-level
        work is per value appended (the array is re-joined with one copy,
        which the scan that asked for it dwarfs) — unless the values do not
        fit the stored array's type, which re-codes the column, once."""
        stored = self._stored[name]
        if not isinstance(stored, Coded):
            tail = typed_array(values)
            joined = tail if stored is None or tail is None else concat_columns([stored, tail])
            if joined is not None and joined.dtype != object:  # integers then floats join as floats
                return joined
            if stored is not None:
                values = python_values(stored) + values
            self._codes[name] = {}
            stored = Coded(np.empty(0, dtype=np.int64), np.array([None], dtype=object))
        code_of = self._codes[name]
        codes = np.fromiter(
            (-1 if value is None else code_of.setdefault(value, len(code_of)) for value in values),
            dtype=np.int64,
            count=len(values),
        )
        table = stored.values
        if len(table) <= len(code_of):  # the dictionary grew
            table = np.fromiter([*code_of, None], dtype=object, count=len(code_of) + 1)
        return Coded(np.concatenate([stored.codes, codes]), table)

    def compare(self, name: str, op: str, value: Any) -> np.ndarray:
        """``column <op> value`` per row; a NULL never passes. On a coded
        column ``=`` and ``<>`` are one dictionary lookup and an integer test
        on the codes, an order comparison visits each dictionary entry once."""
        column = self.column(name)
        coded = isinstance(column, Coded)
        if coded and op in ("=", "<>"):
            hit = column.codes == self._codes[name.lower()].get(value, -2)  # -2: on no row
            return hit if op == "=" else ~hit & (column.codes >= 0)
        entries = column.values if coded else column
        kind = None if isinstance(value, (int, float)) else object
        mask = compare(entries, np.full(len(entries), value, dtype=kind), op)
        return mask[column.codes] if coded else mask

    def _values(self, name: str) -> list[Any]:
        """The column as Python values, without encoding anything."""
        stored = self._stored[name]
        return ([] if stored is None else python_values(stored)) + self._pending[name]

    def rows(self) -> Iterator[tuple[Any, ...]]:
        yield from zip(*map(self._values, self.columns))

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
            "data": {name: self._values(name) for name in self.columns},
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "PrepackagedPartition":
        partition = cls(payload["table"], payload["partition_id"], payload["columns"])
        partition._pending = {name: list(values) for name, values in payload["data"].items()}
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
    routed: list[list[Sequence[Any]]] = [[] for _ in partitions]
    for row in rows:
        routed[route_row(row, key_positions, partition_count)].append(row)
    for partition, bucket in zip(partitions, routed):
        partition.append_rows(bucket)
    return partitions


def _canonical(value: Any) -> Any:
    """The value a key hashes as: equal keys must hash alike, so a bool or
    an integral float hashes as its int (``-0.0`` as ``0``)."""
    if type(value) is bool or (type(value) is float and value.is_integer()):
        return int(value)
    return value


def route_row(row: Sequence[Any], key_positions: Sequence[int], partition_count: int) -> int:
    """Partition ordinal for one row: the SOE's one hash-routing rule, the
    CRC-32 of the canonical key values' reprs joined by ``\\x1f``."""
    if len(key_positions) == 1:
        key = row[key_positions[0]]
        return zlib.crc32(repr(_canonical(key) if type(key) in (bool, float) else key).encode()) % partition_count
    key = "\x1f".join(repr(_canonical(row[position])) for position in key_positions)
    return zlib.crc32(key.encode("utf-8")) % partition_count


def route_column(keys: Column, partition_count: int) -> np.ndarray:
    """:func:`route_row`'s ordinal for every row of a single-column key,
    hashed once per distinct key value: ``map`` over built-ins, iterated in
    C, canonicalised per distinct value only where a float or bool is one."""
    ids, first = group_ids([keys], len(keys))
    distinct = python_values(keys[first])
    if keys.dtype.kind not in "iu" and not {bool, float}.isdisjoint(map(type, distinct)):
        distinct = list(map(_canonical, distinct))
    hashes = map(zlib.crc32, map(str.encode, map(repr, distinct)))
    return (np.fromiter(hashes, dtype=np.int64, count=len(distinct)) % partition_count)[ids]


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
