"""A classical row store, kept for OLTP point access and as a baseline.

Figure 2 of the paper shows "Column / Row" under the in-memory store: HANA
keeps a row engine beside the column engine. In this reproduction the row
store mainly serves benchmark E2 (column vs. row analytics) and internal
bookkeeping tables. It shares the column store's MVCC stamps
(:class:`~repro.columnstore.table.RowVersions`) and its one write path
(:class:`~repro.columnstore.table.Table`): a row table is its own single
partition, ordinal 0, and every statement is one set, written with one
stamp slot per kind and logged as one ``insert_many`` / ``delete_many``
redo record. Its primary key is declared only, never enforced.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.columnstore.table import RowVersions, Table
from repro.core.schema import TableSchema
from repro.transaction.manager import Transaction
from repro.transaction.mvcc import visible_mask
from repro.util.arrays import GrowableArray


class RowTable(RowVersions, Table):
    """Row-oriented MVCC table: a list of tuples plus stamp vectors."""

    def __init__(self, name: str, schema: TableSchema) -> None:
        self.name = name
        self.schema = schema
        self.rows: list[list[Any]] = []
        self.created = GrowableArray()
        self.deleted = GrowableArray()

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def partitions(self) -> Sequence["RowTable"]:
        return (self,)

    def append_columns(self, columns: Sequence[list[Any]], txn: Transaction) -> int:
        """Append coerced rows, given column-major; returns the first one's position."""
        self.rows.extend(map(list, zip(*columns)))
        return self.stamp_appended(len(columns[0]), txn)

    # -- reads ----------------------------------------------------------------

    def visible_positions(self, snapshot_cid: int, own_tid: int = 0) -> np.ndarray:
        mask = visible_mask(self.created.view(), self.deleted.view(), snapshot_cid, own_tid)
        return np.flatnonzero(mask)

    def rows_at(self, positions: np.ndarray) -> list[list[Any]]:
        """The rows at ``positions``."""
        return [self.rows[position] for position in positions.tolist()]

    def columns_at(self, positions: np.ndarray) -> list[list[Any]]:
        """The rows at ``positions``, column-major in schema order."""
        rows = self.rows_at(positions)
        return [list(values) for values in zip(*rows)] if rows else [[] for _ in self.schema.columns]

    def scan(self, snapshot_cid: int, own_tid: int = 0) -> list[list[Any]]:
        """All visible rows — a full row-at-a-time scan."""
        return [self.rows[int(p)] for p in self.visible_positions(snapshot_cid, own_tid)]

    def select(
        self,
        predicate: Callable[[list[Any]], bool],
        snapshot_cid: int,
        own_tid: int = 0,
    ) -> list[list[Any]]:
        """Filtered scan, row at a time (the row-store access pattern)."""
        return [
            row
            for row in self.scan(snapshot_cid, own_tid)
            if predicate(row)
        ]

    def aggregate_sum(self, column: str, snapshot_cid: int, own_tid: int = 0) -> float:
        """Row-at-a-time SUM over one column (benchmark E2 baseline)."""
        position = self.schema.position(column)
        total = 0.0
        for row in self.scan(snapshot_cid, own_tid):
            value = row[position]
            if value is not None:
                total += value
        return total

    def memory_bytes(self) -> int:
        """Approximate footprint: every row materialised, uncompressed."""
        total = len(self.created) * 16
        for row in self.rows:
            for value in row:
                total += len(value) + 49 if isinstance(value, str) else 28
        return total
