"""Dynamic tiering: temperature partitions and extended storage (Fig. 1).

The aging run moves eligible rows from a table's *hot* partitions into a
dedicated *aged* partition. Aged partitions may additionally be evicted to
**extended storage** — a file-backed tier that reloads transparently on
access while charging simulated cold reads — or exported to the HDFS tier
(see :mod:`repro.hadoop.connectors`). This is the paper's "data aging /
temperature" pipeline: In-Memory → Extended Storage → HDFS.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.columnstore.column import DeltaColumn, MainColumn
from repro.columnstore.table import ColumnTable, TablePartition
from repro.errors import AgingError

from repro.util.arrays import GrowableInt64

AGED_TAG = "aged"


def ensure_aged_partition(table: ColumnTable) -> TablePartition:
    """Get or create the table's aged partition (tagged metadata)."""
    for partition in table.partitions:
        if partition.metadata.get("tag") == AGED_TAG:
            return partition
    partition = TablePartition(
        table.schema,
        name=f"{table.name}_aged",
        sorted_dictionaries=table.sorted_dictionaries,
        metadata={"tag": AGED_TAG},
    )
    table.partitions.append(partition)
    return partition


def hot_ordinals(table: ColumnTable) -> list[int]:
    """Ordinals of non-aged partitions."""
    return [
        ordinal
        for ordinal, partition in enumerate(table.partitions)
        if partition.metadata.get("tag") != AGED_TAG
    ]


def aged_ordinals(table: ColumnTable) -> list[int]:
    """Ordinals of aged partitions."""
    return [
        ordinal
        for ordinal, partition in enumerate(table.partitions)
        if partition.metadata.get("tag") == AGED_TAG
    ]


def move_rows_to_aged(
    database: Any,
    table: ColumnTable,
    positions_by_ordinal: dict[int, np.ndarray],
) -> int:
    """Transactionally move rows into the aged partition.

    The move is a delete from the source partition plus an insert into the
    aged partition within one transaction, so concurrent readers see either
    the hot or the aged version, never both or neither.
    """
    aged = ensure_aged_partition(table)
    txn = database.begin()
    moved = 0
    with obs.latency("aging.migration_seconds", table=table.name):
        try:
            for ordinal, positions in positions_by_ordinal.items():
                partition = table.partitions[ordinal]
                if partition is aged or not len(positions):
                    continue
                columns = partition.columns_at(positions)
                partition.mark_deleted(positions, txn)
                aged.append_columns(columns, txn)
                moved += len(positions)
        except Exception:
            obs.count("aging.tiering_rollbacks")
            database.rollback(txn)
            raise
        database.commit(txn)
    obs.count("aging.rows_moved", moved, table=table.name)
    return moved


# --------------------------------------------------------------------------
# extended storage (file-backed tier)
# --------------------------------------------------------------------------


def evict_partition(partition: TablePartition, directory: str | Path) -> Path:
    """Write the partition's fragments to disk and release the memory."""
    if partition.n_delta:
        raise AgingError("merge the delta before evicting a partition")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{partition.name}.tier"
    payload = {
        "main": partition.main,
        "created": partition.created.view().copy(),
        "deleted": partition.deleted.view().copy(),
    }
    with open(path, "wb") as handle:
        pickle.dump(payload, handle)
    obs.count("aging.partitions_evicted")
    partition.storage_path = str(path)
    partition.tier = "extended"
    partition.is_loaded = False
    empty_main = {
        key: MainColumn(column.dtype) for key, column in partition.main.items()
    }
    partition.main = empty_main
    partition.delta = {
        key: DeltaColumn(column.dtype) for key, column in partition.delta.items()
    }
    partition.created = GrowableInt64()
    partition.deleted = GrowableInt64()
    return path


def reload_partition(partition: TablePartition) -> None:
    """Reload an evicted partition from its backing file (lazy, on touch)."""
    if partition.is_loaded:
        return
    if partition.storage_path is None:
        raise AgingError(f"partition {partition.name!r} has no backing file")
    with obs.latency("aging.reload_seconds", partition=partition.name):
        with open(partition.storage_path, "rb") as handle:
            payload = pickle.load(handle)
        partition.main = payload["main"]
        partition.created = GrowableInt64(payload["created"])
        partition.deleted = GrowableInt64(payload["deleted"])
        partition.is_loaded = True
    obs.count("aging.partitions_reloaded")


def rehydrate_partition(partition: TablePartition) -> None:
    """Bring a partition fully back to the hot tier."""
    if not partition.is_loaded:
        reload_partition(partition)
    partition.tier = "hot"
    partition.storage_path = None
