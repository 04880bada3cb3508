"""SLACID-style sparse matrices inside the column store (§II.G).

Kernert et al. [6] store sparse matrices in the column-oriented engine as
a read-optimised CSR *main* part plus a write-optimised *delta* of updates,
mirroring the store's main/delta split. :class:`ColumnarSparseMatrix`
implements that design:

* ``main``: CSR arrays (indptr/indices/data) — fast SpMV and scans,
* ``delta``: a COO dict of updates since the last merge,
* :meth:`merge_delta` folds the delta into a fresh CSR (the matrix's own
  "delta merge"),
* :meth:`from_table` / :meth:`to_table` move matrices between the
  relational store (coo triples) and the engine, keeping data and metadata
  "persisted and kept consistently within the data management ecosystem".
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.errors import ScientificError


class ColumnarSparseMatrix:
    """A mutable sparse matrix with main (CSR) + delta (COO) parts."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ScientificError("matrix dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self._indptr = np.zeros(rows + 1, dtype=np.int64)
        self._indices = np.empty(0, dtype=np.int64)
        self._data = np.empty(0, dtype=np.float64)
        self._delta: dict[tuple[int, int], float] = {}
        self.merges = 0

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_coo(
        cls, rows: int, cols: int, triples: Iterable[tuple[int, int, float]]
    ) -> "ColumnarSparseMatrix":
        matrix = cls(rows, cols)
        for row, col, value in triples:
            matrix.set(row, col, value)
        matrix.merge_delta()
        return matrix

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "ColumnarSparseMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        matrix = cls(dense.shape[0], dense.shape[1])
        rows, cols = np.nonzero(dense)
        for row, col in zip(rows, cols):
            matrix.set(int(row), int(col), float(dense[row, col]))
        matrix.merge_delta()
        return matrix

    @classmethod
    def from_table(
        cls,
        database: Any,
        table: str,
        rows: int,
        cols: int,
        row_column: str = "i",
        col_column: str = "j",
        value_column: str = "v",
    ) -> "ColumnarSparseMatrix":
        """Read a matrix stored relationally as (i, j, v) triples."""
        relation = database.catalog.table(table)
        snapshot = database.txn_manager.last_committed_cid
        ri = relation.schema.position(row_column)
        ci = relation.schema.position(col_column)
        vi = relation.schema.position(value_column)
        return cls.from_coo(
            rows,
            cols,
            (
                (int(row[ri]), int(row[ci]), float(row[vi]))
                for row in relation.scan_rows(snapshot)
            ),
        )

    def to_table(self, database: Any, table: str) -> int:
        """Write the matrix back as (i, j, v) triples; returns nnz."""
        from repro.core import types as dt
        from repro.core.schema import schema as make_schema

        if not database.catalog.has_table(table):
            database.create_table(
                table,
                make_schema(("i", dt.INTEGER), ("j", dt.INTEGER), ("v", dt.DOUBLE)),
            )
        txn = database.begin()
        count = database.catalog.table(table).insert_many(self.triples(), txn)
        database.commit(txn)
        return count

    # -- element access ----------------------------------------------------------------

    def _check(self, row: int, col: int) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ScientificError(
                f"index ({row}, {col}) out of bounds for {self.rows}x{self.cols}"
            )

    def set(self, row: int, col: int, value: float) -> None:
        """Point update — lands in the delta (cheap, no CSR rebuild)."""
        self._check(row, col)
        self._delta[(row, col)] = float(value)

    def get(self, row: int, col: int) -> float:
        """Point read (delta overrides main)."""
        self._check(row, col)
        override = self._delta.get((row, col))
        if override is not None:
            return override
        start, stop = self._indptr[row], self._indptr[row + 1]
        position = np.searchsorted(self._indices[start:stop], col)
        if position < stop - start and self._indices[start + position] == col:
            return float(self._data[start + position])
        return 0.0

    @property
    def delta_size(self) -> int:
        return len(self._delta)

    @property
    def nnz(self) -> int:
        """Non-zeros after a hypothetical merge (delta may overwrite)."""
        main_keys = 0
        overridden = 0
        for (row, col) in self._delta:
            if self._main_has(row, col):
                overridden += 1
        main_keys = len(self._data)
        explicit_zero = sum(1 for value in self._delta.values() if value == 0.0)
        return main_keys - overridden + len(self._delta) - explicit_zero

    def _main_has(self, row: int, col: int) -> bool:
        start, stop = self._indptr[row], self._indptr[row + 1]
        position = np.searchsorted(self._indices[start:stop], col)
        return position < stop - start and self._indices[start + position] == col

    # -- merge ---------------------------------------------------------------------------

    def merge_delta(self) -> None:
        """Fold delta updates into a fresh CSR main part."""
        if not self._delta:
            return
        entries: dict[tuple[int, int], float] = {}
        for row in range(self.rows):
            for position in range(self._indptr[row], self._indptr[row + 1]):
                entries[(row, int(self._indices[position]))] = float(self._data[position])
        entries.update(self._delta)
        self._delta = {}
        items = sorted(
            ((row, col, value) for (row, col), value in entries.items() if value != 0.0)
        )
        self._indptr = np.zeros(self.rows + 1, dtype=np.int64)
        self._indices = np.empty(len(items), dtype=np.int64)
        self._data = np.empty(len(items), dtype=np.float64)
        for position, (row, col, value) in enumerate(items):
            self._indptr[row + 1] += 1
            self._indices[position] = col
            self._data[position] = value
        np.cumsum(self._indptr, out=self._indptr)
        self.merges += 1

    # -- reads -------------------------------------------------------------------------------

    def triples(self) -> Iterable[tuple[int, int, float]]:
        """All non-zero (row, col, value), merged view."""
        overrides = dict(self._delta)
        for row in range(self.rows):
            for position in range(self._indptr[row], self._indptr[row + 1]):
                col = int(self._indices[position])
                value = overrides.pop((row, col), float(self._data[position]))
                if value != 0.0:
                    yield row, col, value
        for (row, col), value in sorted(overrides.items()):
            if value != 0.0:
                yield row, col, value

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.rows, self.cols))
        for row, col, value in self.triples():
            dense[row, col] = value
        return dense

    # -- kernels ---------------------------------------------------------------------------------

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        """SpMV: CSR main pass plus a delta correction pass."""
        vector = np.asarray(vector, dtype=np.float64)
        if len(vector) != self.cols:
            raise ScientificError(f"vector length {len(vector)} != cols {self.cols}")
        result = np.zeros(self.rows)
        if len(self._data):
            # vectorised CSR SpMV: gather + segment sum
            gathered = self._data * vector[self._indices]
            row_ids = np.repeat(
                np.arange(self.rows), np.diff(self._indptr)
            )
            np.add.at(result, row_ids, gathered)
        for (row, col), value in self._delta.items():
            if self._main_has(row, col):
                start, stop = self._indptr[row], self._indptr[row + 1]
                position = start + np.searchsorted(self._indices[start:stop], col)
                result[row] += (value - self._data[position]) * vector[col]
            else:
                result[row] += value * vector[col]
        return result

    def transpose(self) -> "ColumnarSparseMatrix":
        transposed = ColumnarSparseMatrix(self.cols, self.rows)
        for row, col, value in self.triples():
            transposed.set(col, row, value)
        transposed.merge_delta()
        return transposed
