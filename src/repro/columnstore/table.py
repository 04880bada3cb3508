"""The in-memory column table: partitions of main+delta fragments with MVCC.

A :class:`ColumnTable` is the unit the SQL layer, the engines, and the SOE
all operate on. Each horizontal partition pairs

* per-column :class:`~repro.columnstore.column.MainColumn` /
  :class:`~repro.columnstore.column.DeltaColumn` fragments, and
* two MVCC stamp vectors (``created`` / ``deleted``) spanning main+delta.

Writes are append-only: an UPDATE is a delete of the old version plus an
insert of the new one; the delta merge (:mod:`repro.columnstore.merge`)
compacts committed state into a fresh main fragment.

**Access paths.** A table whose schema declares a single-column primary
key has a second way in besides the scan: :meth:`TablePartition.key_versions`
asks the key column's two fragments *where* a value sits
(:meth:`MainColumn.positions_of` / :meth:`DeltaColumn.positions_of`, each a
lazily built index the fragment owns — see :mod:`repro.columnstore.column`
for why nothing invalidates them). MVCC keeps several versions of a key, so
the answer is every version's position and visibility is checked on just
those: :meth:`TablePartition.key_positions` for readers and UPDATE/DELETE,
:meth:`ColumnTable.insert` to *enforce* the key.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.columnstore.column import DeltaColumn, MainColumn
from repro.columnstore.compression import NULL_VID
from repro.columnstore.partition import PartitionSpec, SinglePartition
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.types import DataType
from repro.errors import (
    ColumnNotFoundError,
    DuplicateKeyError,
    SchemaError,
    StorageError,
    WriteConflictError,
)
from repro.transaction.manager import Transaction
from repro.transaction.mvcc import INF_CID, visible_mask
from repro.util.arrays import GrowableInt64

#: Events delivered to table change listeners.
EVENT_INSERT = "insert"
EVENT_DELETE = "delete"

ChangeListener = Callable[[str, "TablePartition", list[int], list[list[Any]]], None]


class TablePartition:
    """One horizontal partition: fragments + MVCC stamps."""

    def __init__(
        self,
        schema: TableSchema,
        name: str,
        sorted_dictionaries: bool = True,
        metadata: dict[str, Any] | None = None,
    ) -> None:
        self.schema = schema
        self.name = name
        self.sorted_dictionaries = sorted_dictionaries
        self.metadata: dict[str, Any] = metadata or {}
        #: storage tier: "hot" (in-memory) or "extended" (file-backed)
        self.tier = "hot"
        from repro.columnstore.dictionary import AppendDictionary

        self.main: dict[str, MainColumn] = {
            spec.name.lower(): MainColumn(
                spec.dtype,
                dictionary=None if sorted_dictionaries else AppendDictionary(),
            )
            for spec in schema.columns
        }
        self.delta: dict[str, DeltaColumn] = {
            spec.name.lower(): DeltaColumn(spec.dtype) for spec in schema.columns
        }
        self.created = GrowableInt64()
        self.deleted = GrowableInt64()
        #: simulated page reads charged when the partition is not hot
        self.cold_reads = 0
        #: extended-storage backing file when evicted (see repro.aging.tiering)
        self.storage_path: str | None = None
        self.is_loaded = True

    # -- sizes ---------------------------------------------------------------

    @property
    def n_main(self) -> int:
        first = next(iter(self.main.values()), None)
        return len(first) if first is not None else 0

    @property
    def n_delta(self) -> int:
        first = next(iter(self.delta.values()), None)
        return len(first) if first is not None else 0

    def __len__(self) -> int:
        return self.n_main + self.n_delta

    # -- schema evolution (flexible tables) -----------------------------------

    def add_column(self, spec: ColumnSpec) -> None:
        """Add a column backfilled with NULLs (flexible tables, §II.H)."""
        key = spec.name.lower()
        if key in self.main:
            return
        null_main = MainColumn.build(
            spec.dtype, [None] * self.n_main, sorted_dictionary=self.sorted_dictionaries
        )
        self.main[key] = null_main
        delta = DeltaColumn(spec.dtype)
        delta.extend([None] * self.n_delta)
        self.delta[key] = delta

    # -- writes ---------------------------------------------------------------

    def insert_row(self, values: Sequence[Any], txn: Transaction) -> int:
        """Append one coerced row to the delta; returns its position."""
        self._touch()
        # ``delta`` is in schema order: built from it, and add_column appends to both
        for column, value in zip(self.delta.values(), values):
            column.append(value)
        position = self.created.append(txn.stamp)
        self.deleted.append(INF_CID)
        txn.record_insert(self.created, position)
        return position

    def append_columns(self, columns: Sequence[list[Any]], txn: Transaction) -> int:
        """Append a batch of coerced rows, given column-major in schema
        order, to the delta; returns the first row's position. One
        ``extend`` per column, and one stamp slot for the batch."""
        self._touch()
        for column, values in zip(self.delta.values(), columns):
            column.extend(values)
        start, count = len(self.created), len(columns[0])
        self.created.extend(np.full(count, txn.stamp, dtype=np.int64))
        self.deleted.extend(np.full(count, INF_CID, dtype=np.int64))
        txn.record_insert_range(self.created, start, start + count)
        return start

    def require_undeleted(self, position: int) -> None:
        """First writer wins: refuse a version someone has deleted already."""
        if self.deleted[position] != INF_CID:
            raise WriteConflictError(
                f"row {position} of partition {self.name!r} is already "
                f"deleted or locked by another transaction"
            )

    def mark_deleted(self, position: int, txn: Transaction) -> None:
        """Delete a row version (first-writer-wins conflict detection)."""
        self._touch()
        self.require_undeleted(position)
        self.deleted[position] = txn.stamp
        txn.record_delete(self.deleted, position)

    # -- reads ----------------------------------------------------------------

    def visible_positions(self, snapshot_cid: int, own_tid: int = 0) -> np.ndarray:
        """Positions visible under the given snapshot."""
        self._touch()
        mask = visible_mask(self.created.view(), self.deleted.view(), snapshot_cid, own_tid)
        return np.flatnonzero(mask)

    def visible_row_mask(self, snapshot_cid: int, own_tid: int = 0) -> np.ndarray:
        """Boolean visibility mask over all positions."""
        self._touch()
        return visible_mask(self.created.view(), self.deleted.view(), snapshot_cid, own_tid)

    def key_versions(self, value: Any) -> np.ndarray:
        """Ascending positions of *every* row version — visible or not —
        whose primary key (``schema.key_column``) is ``value``."""
        self._touch()
        key = self.schema.key_column
        main = self.main[key]
        positions = main.positions_of(main.dictionary.vid_of(value))
        in_delta = self.delta[key].positions_of(value)
        if in_delta:
            shifted = np.asarray(in_delta, dtype=np.int64) + len(main)
            positions = np.concatenate([positions, shifted])
        return positions

    def held_keys(self, values: Sequence[Any]) -> set[Any]:
        """Those of the non-NULL ``values`` that some row version holds as
        its primary key: one membership test against the key column's
        dictionary and one against its delta — a superset when the
        dictionary keeps a value no row holds any more."""
        self._touch()
        key = self.schema.key_column
        in_main = np.flatnonzero(self.main[key].dictionary.vids_of(values) != NULL_VID)
        held = {values[index] for index in in_main.tolist()}
        held.update(set(values).intersection(self.delta[key].values))
        return held

    def key_positions(
        self, values: Sequence[Any], snapshot_cid: int, own_tid: int = 0
    ) -> np.ndarray:
        """Ascending positions of the visible rows whose primary key is one
        of ``values`` — what ``visible_positions`` plus a scan of the key
        column would leave, found through the position indexes instead."""
        found = [self.key_versions(value) for value in values]
        candidates = found[0] if len(found) == 1 else np.unique(np.concatenate(found))
        visible = visible_mask(
            self.created.view()[candidates],
            self.deleted.view()[candidates],
            snapshot_cid,
            own_tid,
        )
        return candidates[visible]

    def column_array(self, name: str) -> np.ndarray:
        """Decode a column (main + delta) to an analysis array."""
        self._touch()
        key = name.lower()
        if key not in self.main:
            raise ColumnNotFoundError(self.name, name)
        main = self.main[key].array()
        delta = self.delta[key].array()
        if len(delta) == 0:
            return main
        if len(main) == 0:
            return delta
        if main.dtype != delta.dtype:
            main = main.astype(object) if main.dtype == object or delta.dtype == object else main.astype(np.float64)
            delta = delta.astype(main.dtype)
        return np.concatenate([main, delta])

    def values_at(self, name: str, positions: np.ndarray) -> list[Any]:
        """Exact Python values of a column at the given positions."""
        self._touch()
        key = name.lower()
        if key not in self.main:
            raise ColumnNotFoundError(self.name, name)
        positions = np.asarray(positions, dtype=np.int64)
        n_main = self.n_main
        out: list[Any] = [None] * len(positions)
        in_main = positions < n_main
        main_positions = positions[in_main]
        if len(main_positions):
            decoded = self.main[key].values_at(main_positions)
            for slot, value in zip(np.flatnonzero(in_main), decoded):
                out[slot] = value
        delta_positions = positions[~in_main] - n_main
        if len(delta_positions):
            decoded = self.delta[key].values_at(delta_positions)
            for slot, value in zip(np.flatnonzero(~in_main), decoded):
                out[slot] = value
        return out

    def rows_at(self, positions: np.ndarray, columns: Sequence[str] | None = None) -> list[list[Any]]:
        """Materialise full rows (exact values) at the given positions."""
        names = list(columns) if columns is not None else self.schema.column_names
        per_column = [self.values_at(name, positions) for name in names]
        return [list(row) for row in zip(*per_column)] if per_column and len(positions) else []

    # -- stats / tiering --------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint of all fragments."""
        total = sum(column.memory_bytes() for column in self.main.values())
        total += sum(column.memory_bytes() for column in self.delta.values())
        total += len(self.created) * 16
        return total

    def _touch(self) -> None:
        if self.tier != "hot":
            self.cold_reads += 1
            if not self.is_loaded:
                from repro.aging.tiering import reload_partition

                reload_partition(self)


class ColumnTable:
    """A named, partitioned, MVCC-versioned column-store table."""

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        partitioning: PartitionSpec | None = None,
        flexible: bool = False,
        sorted_dictionaries: bool = True,
    ) -> None:
        self.name = name
        self.schema = schema
        self.partitioning = partitioning or SinglePartition()
        self.flexible = flexible
        self.sorted_dictionaries = sorted_dictionaries
        self.partitions: list[TablePartition] = [
            TablePartition(schema, part_name, sorted_dictionaries)
            for part_name in self.partitioning.partition_names()
        ]
        self._listeners: list[ChangeListener] = []
        #: merge statistics, filled by repro.columnstore.merge
        self.merge_stats: dict[str, Any] = {}

    # -- pickling (physical savepoints, SOFORT-style recovery) ---------------

    def __getstate__(self) -> dict[str, Any]:
        """Listeners are runtime wiring (text indexes etc.), not data."""
        state = dict(self.__dict__)
        state["_listeners"] = []
        return state

    # -- listeners ---------------------------------------------------------------

    def on_change(self, listener: ChangeListener) -> None:
        """Register a committed-change listener (e.g. the text indexer)."""
        self._listeners.append(listener)

    def _notify(
        self, event: str, partition: TablePartition, positions: list[int], rows: list[list[Any]]
    ) -> None:
        for listener in self._listeners:
            listener(event, partition, positions, rows)

    # -- schema (flexible tables) ---------------------------------------------------

    def ensure_columns(self, row: Mapping[str, Any], default_dtype: DataType) -> None:
        """Create columns referenced by ``row`` that do not exist yet.

        This is the flexible-table behaviour of Section II.H: "metadata
        about unknown columns are automatically created as soon as records
        with values for new columns are inserted".
        """
        if not self.flexible:
            unknown = [key for key in row if not self.schema.has_column(key)]
            if unknown:
                raise SchemaError(
                    f"table {self.name!r} is not flexible; unknown columns {unknown}"
                )
            return
        for key in row:
            if not self.schema.has_column(key):
                spec = ColumnSpec(key, default_dtype)
                self.schema.add_column(spec)
                for partition in self.partitions:
                    partition.add_column(spec)

    # -- writes -------------------------------------------------------------------

    def insert(self, row: Sequence[Any] | Mapping[str, Any], txn: Transaction) -> tuple[int, int]:
        """Insert one row; returns ``(partition ordinal, position)``.

        Raises :class:`~repro.errors.DuplicateKeyError` when a live row
        holds the row's primary key (see :meth:`_check_key`).
        """
        values = self.schema.coerce_row(row)
        self._check_key(values, txn)
        return self._append(values, txn)

    def _check_key(
        self,
        values: Sequence[Any],
        txn: Transaction,
        replacing: tuple[TablePartition, int] | None = None,
    ) -> None:
        """Refuse a row whose single-column primary key another version holds.

        Every version of the key in every partition is judged by its stamps
        (``replacing`` names the version an UPDATE is about to delete):

        * rolled back, deleted by ``txn`` itself, or dead at ``txn``'s
          snapshot — no obstacle;
        * live, committed or ``txn``'s own — :class:`DuplicateKeyError`;
        * created or being deleted by another open transaction, or deleted
          by a commit ``txn``'s snapshot does not see yet —
          :class:`WriteConflictError`: the outcome depends on a decision
          not visible here, and a fresh snapshot settles it.

        A NULL key equals nothing and is not checked; tables without a
        single-column key are not checked at all.
        """
        key = self.schema.key_column
        value = None if key is None else values[self.schema.position(key)]
        if value is not None:
            self._check_key_value(value, txn, replacing)

    def _check_key_value(
        self,
        value: Any,
        txn: Transaction,
        replacing: tuple[TablePartition, int] | None = None,
    ) -> None:
        """:meth:`_check_key` for the (non-NULL) key ``value``."""
        key = self.schema.key_column
        own, snapshot = txn.stamp, txn.snapshot_cid
        for partition in self.partitions:
            for position in partition.key_versions(value).tolist():
                if replacing is not None and replacing == (partition, position):
                    continue
                created, deleted = partition.created[position], partition.deleted[position]
                if created == INF_CID or deleted == own:
                    continue
                if deleted == INF_CID and (created > 0 or created == own):
                    raise DuplicateKeyError(
                        f"table {self.name!r}: a row with {key} = {value!r} already exists"
                    )
                if created < 0 or deleted < 0 or created <= snapshot < deleted:
                    raise WriteConflictError(
                        f"table {self.name!r}: {key} = {value!r} is being written "
                        f"by a concurrent transaction"
                    )

    def _append(self, values: list[Any], txn: Transaction) -> tuple[int, int]:
        """Route, store and log one coerced, key-checked row."""
        ordinal = self.partitioning.route(values, self.schema)
        partition = self.partitions[ordinal]
        position = partition.insert_row(values, txn)
        txn.log_redo({"op": "insert", "table": self.name, "row": values})
        txn.on_commit(
            lambda _cid, p=partition, pos=position, vals=values: self._notify(
                EVENT_INSERT, p, [pos], [vals]
            )
        )
        return ordinal, position

    def insert_many(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]], txn: Transaction) -> int:
        """Insert many rows, set at a time; returns the count.

        The batch is coerced a column at a time
        (:meth:`TableSchema.coerce_columns`) and every key is checked
        before the first row is stored (:meth:`_check_keys`), so a refused
        batch writes nothing. Each partition's share is then appended with
        one ``extend`` per column (:meth:`TablePartition.append_columns`),
        one stamp slot, one redo record and one commit hook.
        """
        columns = self.schema.coerce_columns(rows)
        count = len(columns[0]) if columns else 0
        if not count:
            return 0
        self._check_keys(columns, txn)
        if isinstance(self.partitioning, SinglePartition):
            self._append_columns(0, columns, txn)
            return count
        route, schema = self.partitioning.route, self.schema
        shares: dict[int, list[int]] = {}
        for index, row in enumerate(zip(*columns)):
            shares.setdefault(route(row, schema), []).append(index)
        for ordinal, indexes in sorted(shares.items()):
            self._append_columns(ordinal, [[values[i] for i in indexes] for values in columns], txn)
        return count

    def _check_keys(self, columns: list[list[Any]], txn: Transaction) -> None:
        """:meth:`_check_key` for a batch: the keys the batch repeats
        (found by set size) and those some partition already holds (one
        membership test against each key fragment) are judged, in batch
        order, by the same rules — so the outcome is the one inserting
        the rows one by one would end on, and an empty table checks
        nothing."""
        key = self.schema.key_column
        if key is None:
            return
        keys = columns[self.schema.position(key)]
        present = [value for value in keys if value is not None] if None in keys else keys
        repeated = len(set(present)) != len(present)
        held: set[Any] = set()
        for partition in self.partitions:  # held_keys reloads an evicted partition
            held.update(partition.held_keys(present))
        if not held and not repeated:
            return
        seen: set[Any] = set()
        for value in present:
            if value in seen:
                raise DuplicateKeyError(
                    f"table {self.name!r}: the batch holds {key} = {value!r} more than once"
                )
            seen.add(value)
            if value in held:
                self._check_key_value(value, txn)

    def _append_columns(self, ordinal: int, columns: list[list[Any]], txn: Transaction) -> None:
        """Store, log and announce one partition's share of a checked batch."""
        partition = self.partitions[ordinal]
        start = partition.append_columns(columns, txn)
        txn.log_redo({"op": "insert_many", "table": self.name, "columns": columns})

        def announce(_cid: int) -> None:
            if self._listeners:  # rows are materialised for listeners only
                rows = [list(row) for row in zip(*columns)]
                self._notify(EVENT_INSERT, partition, list(range(start, start + len(rows))), rows)

        txn.on_commit(announce)

    def delete_at(
        self, ordinal: int, position: int, txn: Transaction, row: list[Any] | None = None
    ) -> None:
        """Delete the row version at (partition, position).

        ``row`` is that version's values when the caller has already read
        them (the redo record and the change listeners need them).
        """
        partition = self.partitions[ordinal]
        if row is None:
            row = partition.rows_at(np.asarray([position]))[0]
        partition.mark_deleted(position, txn)
        txn.log_redo({"op": "delete", "table": self.name, "row": row})
        txn.on_commit(
            lambda _cid, p=partition, pos=position, vals=row: self._notify(
                EVENT_DELETE, p, [pos], [vals]
            )
        )

    def update_at(
        self,
        ordinal: int,
        position: int,
        changes: Mapping[str, Any],
        txn: Transaction,
        old_row: list[Any] | None = None,
    ) -> tuple[int, int]:
        """Update = delete old version + insert the changed row.

        ``old_row`` as ``row`` in :meth:`delete_at`. Whether the old version
        is still there to replace, then the new row's key, are checked
        before anything is written, so a refused update leaves the
        transaction as it found it.
        """
        partition = self.partitions[ordinal]
        partition.require_undeleted(position)
        if old_row is None:
            old_row = partition.rows_at(np.asarray([position]))[0]
        new_row = list(old_row)
        for column_name, value in changes.items():
            new_row[self.schema.position(column_name)] = value
        new_row = self.schema.coerce_row(new_row)
        self._check_key(new_row, txn, replacing=(partition, position))
        self.delete_at(ordinal, position, txn, old_row)
        return self._append(new_row, txn)

    # -- reads --------------------------------------------------------------------

    def row_count(self, snapshot_cid: int, own_tid: int = 0) -> int:
        """Visible row count under a snapshot."""
        return sum(
            len(partition.visible_positions(snapshot_cid, own_tid))
            for partition in self.partitions
        )

    def scan_rows(
        self,
        snapshot_cid: int,
        own_tid: int = 0,
        columns: Sequence[str] | None = None,
        partitions: Sequence[int] | None = None,
    ) -> list[list[Any]]:
        """Materialise all visible rows (exact values)."""
        ordinals = list(partitions) if partitions is not None else range(len(self.partitions))
        rows: list[list[Any]] = []
        for ordinal in ordinals:
            partition = self.partitions[ordinal]
            positions = partition.visible_positions(snapshot_cid, own_tid)
            rows.extend(partition.rows_at(positions, columns))
        return rows

    def find_rows(
        self,
        predicate: Callable[[list[Any]], bool],
        snapshot_cid: int,
        own_tid: int = 0,
    ) -> list[tuple[int, int, list[Any]]]:
        """(ordinal, position, row) of visible rows matching ``predicate``.

        A convenience row-at-a-time path for point operations; set scans go
        through the SQL executor's vectorised path instead.
        """
        matches = []
        for ordinal, partition in enumerate(self.partitions):
            positions = partition.visible_positions(snapshot_cid, own_tid)
            rows = partition.rows_at(positions)
            for position, row in zip(positions, rows):
                if predicate(row):
                    matches.append((ordinal, int(position), row))
        return matches

    def locate(
        self, row: list[Any], snapshot_cid: int, own_tid: int = 0
    ) -> tuple[int, int] | None:
        """(ordinal, position) of a visible version equal to ``row``, if any.

        Redo replay identifies the version a logged delete removed by its
        full row. A keyed table looks only at the versions of that key; a
        keyless one has nothing better than :meth:`find_rows`.
        """
        key = self.schema.key_column
        value = None if key is None else row[self.schema.position(key)]
        if value is None:
            matches = self.find_rows(lambda candidate: candidate == row, snapshot_cid, own_tid)
            return matches[0][:2] if matches else None
        for ordinal, partition in enumerate(self.partitions):
            positions = partition.key_positions((value,), snapshot_cid, own_tid)
            for position, candidate in zip(positions.tolist(), partition.rows_at(positions)):
                if candidate == row:
                    return ordinal, position
        return None

    # -- stats ---------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate total footprint."""
        return sum(partition.memory_bytes() for partition in self.partitions)

    def delta_rows(self) -> int:
        """Rows currently sitting in delta fragments (merge pressure)."""
        return sum(partition.n_delta for partition in self.partitions)

    def statistics(self) -> dict[str, Any]:
        """Monitoring snapshot used by the admin/monitoring surface."""
        return {
            "table": self.name,
            "partitions": len(self.partitions),
            "main_rows": sum(p.n_main for p in self.partitions),
            "delta_rows": self.delta_rows(),
            "memory_bytes": self.memory_bytes(),
            "flexible": self.flexible,
            "columns": len(self.schema.columns),
        }


def require_table(obj: Any) -> ColumnTable:
    """Assert-and-return helper for call sites holding catalog entries."""
    if not isinstance(obj, ColumnTable):
        raise StorageError(f"expected a ColumnTable, got {type(obj).__name__}")
    return obj
