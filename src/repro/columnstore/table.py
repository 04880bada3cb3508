"""The in-memory column table: partitions of main+delta fragments with MVCC.

A :class:`ColumnTable` is the unit the SQL layer, the engines, and the SOE
all operate on. Each horizontal partition pairs

* per-column :class:`~repro.columnstore.column.MainColumn` /
  :class:`~repro.columnstore.column.DeltaColumn` fragments, and
* two MVCC stamp vectors (``created`` / ``deleted``) spanning main+delta.

Writes are append-only: an UPDATE is a delete of the old version plus an
insert of the new one, and every statement is one set operation on the
table (:meth:`Table._write`); the delta merge (:mod:`repro.columnstore.merge`)
compacts committed state into a fresh main fragment.

**Access paths.** A table whose schema declares a single-column primary
key has a second way in besides the scan: :meth:`TablePartition.key_versions`
asks the key column's two fragments *where* a value sits
(:meth:`MainColumn.positions_of` / :meth:`DeltaColumn.positions_of`, each a
lazily built index the fragment owns — see :mod:`repro.columnstore.column`
for why nothing invalidates them). MVCC keeps several versions of a key, so
the answer is every version's position and visibility is checked on just
those: :meth:`TablePartition.key_positions` for readers and UPDATE/DELETE,
:meth:`ColumnTable._check_keys` to *enforce* the key.
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
    WriteConflictError,
)
from repro.transaction.manager import Transaction
from repro.transaction.mvcc import INF_CID, visible_mask
from repro.util.arrays import GrowableInt64

#: Events delivered to table change listeners.
EVENT_INSERT = "insert"
EVENT_DELETE = "delete"

ChangeListener = Callable[[str, "TablePartition", list[int], list[list[Any]]], None]


class RowVersions:
    """The MVCC stamps of a store's row versions — one ``created`` and one
    ``deleted`` stamp per row — and the writes on them. Each column-table
    partition and each row table is one."""

    name: str
    created: GrowableInt64
    deleted: GrowableInt64

    def require_undeleted(self, positions: int | np.ndarray) -> None:
        """First writer wins: refuse versions someone has deleted already."""
        taken = self.deleted.view()[positions] != INF_CID
        if np.logical_or.reduce(taken, axis=None):
            position = np.atleast_1d(positions)[np.atleast_1d(taken)][0]
            raise WriteConflictError(
                f"row {position} of {self.name!r} is already deleted or locked by another transaction"
            )

    def mark_deleted(self, positions: int | np.ndarray, txn: Transaction) -> None:
        """Delete row versions — one position or an index array — with one
        stamp slot, first writer wins."""
        self._touch()
        self.require_undeleted(positions)
        self.deleted[positions] = txn.stamp
        txn.record_delete(self.deleted, positions)

    def stamp_appended(self, count: int, txn: Transaction) -> int:
        """Stamp ``count`` rows just appended as ``txn``'s, with one slot;
        returns the first one's position."""
        start = self.created.fill(txn.stamp, count)
        self.deleted.fill(INF_CID, count)
        txn.record_insert(self.created, slice(start, start + count))
        return start

    def _touch(self) -> None:
        """Called before a read or write of the rows (tiering's hook)."""


class TablePartition(RowVersions):
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

    def append_columns(self, columns: Sequence[list[Any]], txn: Transaction) -> int:
        """Append a batch of coerced rows, given column-major in schema
        order, to the delta; returns the first row's position. One
        ``extend`` per column, and one stamp slot for the batch."""
        self._touch()
        # ``delta`` is in schema order: built from it, and add_column appends to both
        for column, values in zip(self.delta.values(), columns):
            column.extend(values)
        return self.stamp_appended(len(columns[0]), txn)

    # -- reads ----------------------------------------------------------------

    def visible_positions(self, snapshot_cid: int, own_tid: int = 0) -> np.ndarray:
        """Positions visible under the given snapshot."""
        self._touch()
        mask = visible_mask(self.created.view(), self.deleted.view(), snapshot_cid, own_tid)
        return np.flatnonzero(mask)

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
        dictionary and one against its delta's index — a superset when the
        dictionary keeps a value no row holds any more."""
        self._touch()
        key = self.schema.key_column
        in_main = np.flatnonzero(self.main[key].dictionary.vids_of(values) != NULL_VID)
        held = {values[index] for index in in_main.tolist()}
        return held | self.delta[key].holding(values)

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
        """Exact Python values of a column at the given (ascending) positions."""
        return self.columns_at(positions, (name,))[0]

    def columns_at(self, positions: np.ndarray, columns: Sequence[str] | None = None) -> list[list[Any]]:
        """Exact values at the given (ascending) positions, column-major —
        schema order unless ``columns`` names others. The positions are
        split between the two fragments once for all columns."""
        self._touch()
        positions = np.asarray(positions, dtype=np.int64)
        in_main = positions < self.n_main
        main, delta = positions[in_main], positions[~in_main] - self.n_main
        out = []
        for name in self.schema.column_names if columns is None else columns:
            key = name.lower()
            if key not in self.main:
                raise ColumnNotFoundError(self.name, name)
            values = self.main[key].values_at(main) if len(main) else []
            out.append(values + self.delta[key].values_at(delta) if len(delta) else values)
        return out

    def rows_at(self, positions: np.ndarray, columns: Sequence[str] | None = None) -> list[list[Any]]:
        """Materialise full rows (exact values) at the given (ascending) positions."""
        return list(map(list, zip(*self.columns_at(positions, columns))))

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


#: rows given column-major: one list of values per column, in schema order
Columns = list[list[Any]]
#: a batch's rows by partition: ``(ordinal, the slice of the batch in it)``
Runs = Sequence[tuple[int, slice]]


def _runs(ordinal: int | np.ndarray, count: int) -> Runs:
    """The :data:`Runs` of a batch of ``count`` rows: ``ordinal`` is one
    partition's for them all, or an array parallel to them, grouped."""
    if isinstance(ordinal, (int, np.integer)):
        return [(int(ordinal), slice(0, count))]
    bounds = [0, *(np.flatnonzero(np.diff(ordinal)) + 1).tolist(), count]
    return [(int(ordinal[start]), slice(start, stop)) for start, stop in zip(bounds, bounds[1:])]


class Table:
    """The write path of both stores. A table keeps its row versions in
    ``partitions`` — a row table is its own only one — and each statement
    is one set operation on them, :meth:`_write`.

    Rows are addressed as ``(ordinal, position)``: one partition ordinal
    and one position, or ascending positions with the ordinal of them all
    or an ordinal array parallel to them (grouped, as :meth:`gather` and
    the SQL layer give them).
    """

    name: str
    schema: TableSchema
    partitions: Sequence[Any]
    partitioning: PartitionSpec = SinglePartition()
    _listeners: Sequence[ChangeListener] = ()

    def insert(self, row: Sequence[Any] | Mapping[str, Any], txn: Transaction) -> tuple[int, int]:
        """Insert one row — :meth:`insert_many` of one; returns its
        ``(ordinal, position)``."""
        return self._write(txn, new=self.schema.coerce_columns([row]))[0]

    def insert_many(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]], txn: Transaction) -> int:
        """Insert rows, coerced a column at a time, as one set; returns the count."""
        columns = self.schema.coerce_columns(rows)
        count = len(columns[0]) if columns else 0
        if count:
            self._write(txn, new=columns)
        return count

    def delete_at(
        self, ordinal: int | np.ndarray, position: int | np.ndarray, txn: Transaction, old: Columns | None = None
    ) -> None:
        """Delete the row versions at ``(ordinal, position)``; ``old`` is
        their values when the caller has read them already."""
        positions = np.asarray(position, dtype=np.int64).reshape(-1)
        self._write(txn, _runs(ordinal, len(positions)), positions, old or self.gather(ordinal, positions))

    def update_at(
        self,
        ordinal: int | np.ndarray,
        position: int | np.ndarray,
        changes: Mapping[str, Any],
        txn: Transaction,
        old: Columns | None = None,
    ) -> None:
        """Delete the versions at ``(ordinal, position)`` and insert them with
        ``changes`` applied: column name → new values parallel to the
        positions (a value, for one position)."""
        positions = np.asarray(position, dtype=np.int64).reshape(-1)
        old = old or self.gather(ordinal, positions)
        single = isinstance(position, (int, np.integer))
        new = list(old)
        for name, values in changes.items():
            index = self.schema.position(name)
            new[index] = self.schema.columns[index].coerce_many([values] if single else list(values))
        self._write(txn, _runs(ordinal, len(positions)), positions, old, new)

    def gather(self, ordinal: int | np.ndarray, positions: np.ndarray) -> Columns:
        """Exact values of the rows at ``(ordinal, positions)``: the one
        read of the rows a statement rewrites."""
        runs = _runs(ordinal, len(positions))
        shares = [self.partitions[ordinal].columns_at(positions[rows]) for ordinal, rows in runs]
        return [[value for share in parts for value in share] for parts in zip(*shares)]

    def _write(
        self,
        txn: Transaction,
        runs: Runs = (),
        positions: np.ndarray | None = None,
        old: Columns | None = None,
        new: Columns | None = None,
    ) -> list[tuple[int, int]]:
        """The one write path: delete the versions at ``positions`` (``old``
        their values) and insert the coerced rows ``new``, as one set;
        returns ``(ordinal, first position)`` per partition ``new`` went to.

        The whole set is checked before anything is written — first writer
        wins on every version it deletes, and :meth:`_check_keys` judges
        its keys — so a refused statement writes nothing. Then each
        partition's deletes take one stamp slot, its inserts one ``extend``
        per column and another slot, each share one ``delete_many`` /
        ``insert_many`` redo record, and one commit hook announces it all.
        """
        for ordinal, rows in runs:
            self.partitions[ordinal].require_undeleted(positions[rows])
        if new is not None:
            self._check_keys(new, old, runs, positions, txn)
        changes = []
        for ordinal, rows in runs:
            partition = self.partitions[ordinal]
            partition.mark_deleted(positions[rows], txn)
            changes.append((EVENT_DELETE, partition, positions[rows], [values[rows] for values in old]))
        placed = []
        for ordinal, columns in self._route(new) if new is not None else ():
            partition = self.partitions[ordinal]
            start = partition.append_columns(columns, txn)
            changes.append((EVENT_INSERT, partition, range(start, start + len(columns[0])), columns))
            placed.append((ordinal, start))
        for event, _partition, _positions, columns in changes:
            txn.log_redo({"op": f"{event}_many", "table": self.name, "columns": columns})
        txn.on_commit(lambda _cid: self._announce(changes))
        return placed

    def _check_keys(
        self, new: Columns, old: Columns | None, runs: Runs, positions: np.ndarray | None, txn: Transaction
    ) -> None:
        """Refuse a set the table's constraints forbid — none here: a row
        table's primary key is declared only."""

    def _route(self, columns: Columns) -> list[tuple[int, Columns]]:
        """The rows ``columns`` holds, split by the partition each routes to."""
        if isinstance(self.partitioning, SinglePartition):
            return [(0, columns)]
        shares: dict[int, list[int]] = {}
        for index, row in enumerate(zip(*columns)):
            shares.setdefault(self.partitioning.route(row, self.schema), []).append(index)
        return [(o, [[values[i] for i in rows] for values in columns]) for o, rows in sorted(shares.items())]

    def locate(self, columns: Columns, snapshot_cid: int, own_tid: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """``(ordinals, positions)`` of visible versions equal to the coerced
        rows ``columns`` holds, one per row found: redo replay identifies
        the versions a logged delete removed by their full rows."""
        wanted = list(map(list, zip(*columns)))
        ordinals: list[int] = []
        found: list[int] = []
        for ordinal, partition in enumerate(self.partitions):
            positions = self._candidates(partition, columns, snapshot_cid, own_tid)
            for position, row in zip(positions.tolist(), partition.rows_at(positions)):
                if row in wanted:
                    wanted.remove(row)
                    ordinals.append(ordinal)
                    found.append(position)
        return np.asarray(ordinals, dtype=np.int64), np.asarray(found, dtype=np.int64)

    def _candidates(self, partition: Any, columns: Columns, snapshot_cid: int, own_tid: int) -> np.ndarray:
        """The positions of a partition :meth:`locate` compares."""
        return partition.visible_positions(snapshot_cid, own_tid)

    def _announce(self, changes: list[tuple[str, Any, Any, Columns]]) -> None:
        """Hand a committed statement's changes to the listeners, as rows."""
        for listener in self._listeners:
            for event, partition, positions, columns in changes:
                listener(event, partition, list(map(int, positions)), list(map(list, zip(*columns))))


class ColumnTable(Table):
    """A named, partitioned, MVCC-versioned column-store table; its
    single-column primary key is enforced (:meth:`_check_keys`)."""

    # own names of this class, so that a tracer can wrap them here alone
    # (benchmarks/harness/trace.py)
    insert, delete_at, update_at = Table.insert, Table.delete_at, Table.update_at

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

    # -- key enforcement --------------------------------------------------------------

    def _check_keys(
        self, new: Columns, old: Columns | None, runs: Runs, positions: np.ndarray | None, txn: Transaction
    ) -> None:
        """Refuse a set after which the single-column primary key would not
        be unique — judged at the end of the statement, as SQL's immediate
        constraints are, so the order of its rows does not matter.

        The new rows may not repeat a key. A key a new row *changes* (any
        inserted one; an updated one that differs from the old) and some
        version holds — one membership test against each key fragment
        finds these — is judged by :meth:`_check_key_value`, where the
        versions the statement deletes are no obstacle. A NULL key equals
        nothing and is not checked; tables without a single-column key are
        not checked at all.
        """
        key = self.schema.key_column
        if key is None:
            return
        index = self.schema.position(key)
        keys = new[index]
        present = [value for value in keys if value is not None] if None in keys else keys
        distinct = set(present)
        if len(distinct) != len(present):
            seen: set[Any] = set()
            for value in present:
                if value in seen:
                    raise DuplicateKeyError(
                        f"table {self.name!r}: the statement writes {key} = {value!r} more than once"
                    )
                seen.add(value)
        if old is not None:
            present = [
                value for value, was in zip(keys, old[index]) if value is not None and value != was
            ]
            distinct = set(present)
        # a lone key is probed directly; more take one membership test per key fragment
        held = distinct if len(distinct) < 2 else set().union(*(p.held_keys(present) for p in self.partitions))
        if held:
            replaced = {(o, p) for o, rows in runs for p in positions[rows].tolist()} if runs else set()
            for value in present:
                if value in held:
                    self._check_key_value(value, txn, replaced)

    def _check_key_value(self, value: Any, txn: Transaction, replaced: set[tuple[int, int]]) -> None:
        """Refuse the (non-NULL) key ``value`` if another version holds it.

        Every version of the key in every partition is judged by its stamps:

        * one the statement deletes (``replaced``), rolled back, deleted by
          ``txn`` itself, or dead at ``txn``'s snapshot — no obstacle;
        * live, committed or ``txn``'s own — :class:`DuplicateKeyError`;
        * created or being deleted by another open transaction, or deleted
          by a commit ``txn``'s snapshot does not see yet —
          :class:`WriteConflictError`: the outcome depends on a decision
          not visible here, and a fresh snapshot settles it.
        """
        key = self.schema.key_column
        own, snapshot = txn.stamp, txn.snapshot_cid
        for ordinal, partition in enumerate(self.partitions):
            for position in partition.key_versions(value).tolist():
                if (ordinal, position) in replaced:
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

    def _candidates(self, partition: Any, columns: Columns, snapshot_cid: int, own_tid: int) -> np.ndarray:
        """On a keyed table, :meth:`locate` looks only at the visible
        versions of the rows' keys (at every visible row for a NULL key)."""
        key = self.schema.key_column
        keys = None if key is None else columns[self.schema.position(key)]
        if keys is None or None in keys:
            return partition.visible_positions(snapshot_cid, own_tid)
        return partition.key_positions(keys, snapshot_cid, own_tid)

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

