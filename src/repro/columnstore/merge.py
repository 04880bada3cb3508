"""The delta merge: fold delta fragments into fresh main fragments.

Section III of the paper describes the core cost driver: "In order to
maintain the sorting of the dictionary within this merge process, the
dictionary must potentially be resorted which forces the references within
the main columns to be updated accordingly". When the application
guarantees append-ordered keys, that remap can be skipped — which this
module measures explicitly (``columns_remapped`` / ``ids_rewritten`` in the
returned :class:`MergeStats`), backing benchmark E3.

Optionally the merge also garbage-collects row versions no snapshot can see
(``compact=True`` with the oldest active snapshot id).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.columnstore.column import DeltaColumn, MainColumn
from repro.columnstore.compression import NULL_VID, choose_encoding
from repro.columnstore.table import ColumnTable, TablePartition
from repro.transaction.mvcc import INF_CID
from repro.util.arrays import GrowableArray


@dataclass
class MergeStats:
    """What one merge did; aggregated per table."""

    rows_merged: int = 0
    rows_compacted: int = 0
    columns_processed: int = 0
    columns_remapped: int = 0
    ids_rewritten: int = 0
    duration_seconds: float = 0.0
    partitions: int = 0
    details: list[str] = field(default_factory=list)

    def merge(self, other: "MergeStats") -> None:
        self.rows_merged += other.rows_merged
        self.rows_compacted += other.rows_compacted
        self.columns_processed += other.columns_processed
        self.columns_remapped += other.columns_remapped
        self.ids_rewritten += other.ids_rewritten
        self.duration_seconds += other.duration_seconds
        self.partitions += other.partitions
        self.details.extend(other.details)


def merge_partition(
    partition: TablePartition,
    compact: bool = False,
    oldest_active_snapshot: int | None = None,
) -> MergeStats:
    """Merge one partition's delta into its main fragments.

    Wall time comes from the observability layer's stopwatch
    (:func:`repro.obs.timed`), which doubles as the
    ``columnstore.merge_seconds`` latency histogram when collectors are
    enabled — one timer, one source of truth.
    """
    stats = MergeStats(partitions=1)
    with obs.timed("columnstore.merge_seconds", partition=partition.name) as timer:
        _merge_partition_body(partition, stats, compact, oldest_active_snapshot)
    stats.duration_seconds = timer.seconds
    obs.count("columnstore.merge.rows_merged", stats.rows_merged)
    obs.count("columnstore.merge.rows_compacted", stats.rows_compacted)
    obs.count("columnstore.merge.ids_rewritten", stats.ids_rewritten)
    return stats


def _merge_partition_body(
    partition: TablePartition,
    stats: MergeStats,
    compact: bool,
    oldest_active_snapshot: int | None,
) -> None:
    n_delta = partition.n_delta
    if n_delta == 0 and not compact:
        return

    keep: np.ndarray | None = None
    if compact:
        horizon = (
            oldest_active_snapshot
            if oldest_active_snapshot is not None
            else INF_CID - 1
        )
        created = partition.created.view()
        deleted = partition.deleted.view()
        tombstoned = created == INF_CID
        dead = (deleted > 0) & (deleted <= horizon) & (deleted != INF_CID)
        keep_mask = ~(tombstoned | dead)
        keep = np.flatnonzero(keep_mask)
        stats.rows_compacted = int(len(created) - len(keep))

    n_main = partition.n_main
    for key, main in list(partition.main.items()):
        delta: DeltaColumn = partition.delta[key]
        stats.columns_processed += 1
        dictionary = main.dictionary
        entries, rows = delta.entries()  # encoded once each; the rows follow by a gather
        if isinstance(entries, np.ndarray) and not isinstance(dictionary.values, np.ndarray):
            entries = entries.tolist()  # a list dictionary holds Python values
        remap = dictionary.encode_many(entries)

        old_vids = main.encoded.decode()
        if remap is not None:
            # remap only real value ids; NULL_VID stays NULL_VID
            non_null = old_vids != NULL_VID
            old_vids = np.where(non_null, remap[old_vids], NULL_VID)
            stats.columns_remapped += 1
            stats.ids_rewritten += int(np.count_nonzero(non_null))

        delta_vids = np.append(dictionary.vids_of(entries), NULL_VID)[rows]
        vids = np.concatenate([old_vids, delta_vids]) if len(delta_vids) else old_vids
        if keep is not None:
            vids = vids[keep]
        partition.main[key] = MainColumn(main.dtype, dictionary, choose_encoding(vids))
        partition.delta[key] = DeltaColumn(main.dtype)

    if keep is not None:
        partition.created = GrowableArray(partition.created.view()[keep])
        partition.deleted = GrowableArray(partition.deleted.view()[keep])
    # else: stamps already span main+delta positionally; nothing to do —
    # the delta rows simply became the tail of the new main.

    stats.rows_merged = n_delta
    stats.details.append(
        f"partition {partition.name}: merged {n_delta} delta rows "
        f"(was {n_main} main), remapped {stats.columns_remapped} columns"
    )


def merge_table(
    table: ColumnTable,
    compact: bool = False,
    oldest_active_snapshot: int | None = None,
) -> MergeStats:
    """Merge every partition of ``table``; records stats on the table."""
    total = MergeStats()
    for partition in table.partitions:
        total.merge(merge_partition(partition, compact, oldest_active_snapshot))
    table.merge_stats = {
        "rows_merged": total.rows_merged,
        "rows_compacted": total.rows_compacted,
        "columns_remapped": total.columns_remapped,
        "ids_rewritten": total.ids_rewritten,
        "duration_seconds": total.duration_seconds,
    }
    return total
