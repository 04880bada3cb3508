"""v2lqp: the local query-processing executable (§IV.B, Figure 3).

"At the core is the SAP HANA SOE local query processing executable (v2lqp)
which contains a query and a data service." The query service executes
coordinator tasks against the node-local prepackaged partitions — or, for
a repartition join, against the buckets shipped to it — through the
operator kernels it shares with the core's vectorised executor
(:mod:`repro.sql.kernels`): filters run on the partitions' codes, grouping,
join matching and the grouped reductions on their arrays; no task visits a
row in Python. This module only picks what a task reads and hands columns
to kernels; its results are the columnar :class:`~repro.soe.tasks.Columns`,
:class:`~repro.soe.tasks.HashTable` and :class:`~repro.soe.tasks.GroupStates`.
The data service (:class:`~repro.soe.replication.DataNode`) owns the
partitions and applies the shared log.

**Role in the query path:** the leaf executor of the SOE — the v2dqp
coordinator's task DAG lands here, one task at a time, and only partial
results travel back.

**Observability:** every task dispatch counts into
``soe.query_service.tasks`` and the ``soe.query_service.task_seconds``
latency histogram (labelled by task kind and node), the per-node numbers
the v2stats service reads to spot hotspots.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro import obs
from repro.errors import CoordinationError
from repro.soe.partitions import route_column
from repro.soe.replication import DataNode
from repro.soe.tasks import Columns, Filter, GroupStates, HashTable, Task
from repro.sql.expressions import Batch
from repro.sql.kernels import join_pairs, match_keys, nulls, unique_inverse


class QueryService:
    """Executes tasks on one node's local data."""

    def __init__(self, node_id: str, data_node: DataNode) -> None:
        self.node_id = node_id
        self.data_node = data_node
        self.tasks_executed = 0
        self.rows_processed = 0

    # -- task entry point ------------------------------------------------------

    def execute(self, task: Task, inputs: dict[int, Any]) -> Any:
        """Run one task; ``inputs`` maps input task id → its result."""
        self.tasks_executed += 1
        obs.count("soe.query_service.tasks", kind=task.kind, node=self.node_id)
        with obs.latency("soe.query_service.task_seconds", kind=task.kind, node=self.node_id):
            # pin the task's partitions so a concurrent partition move
            # cannot trim a retained donor copy out from under this scan
            # (a task over shipped buckets names none and pins nothing)
            with self.data_node.pinned(task.params["table"], task.params["partitions"]):
                if task.kind == "partial_aggregate":
                    return self._partial_aggregate(task)
                if task.kind == "build_hash":
                    return self._build_hash(task, inputs)
                if task.kind == "join_partial":
                    return self._join_partial(task, inputs)
                if task.kind == "scan_ship":
                    return self._scan_ship(task)
                raise CoordinationError(
                    f"query service cannot execute task kind {task.kind!r}"
                )

    # -- tasks ---------------------------------------------------------------------

    def _read(
        self,
        task: Task,
        names: Iterable[str],
        shipped: Iterable[Batch] = (),
        filters: Sequence[Filter] = (),
    ) -> Batch:
        """What a task reads: the named columns of the local partitions its
        params name, then of the shuffle buckets shipped to it — the rows
        that pass every filter, in source then row order. Only local reads
        count into ``rows_processed``, the per-node load v2stats balances on."""
        store = self.data_node.store
        table = task.params["table"]
        partitions = [store.partition(table, pid) for pid in task.params["partitions"]]
        self.rows_processed += sum(len(partition) for partition in partitions)
        names = list(dict.fromkeys(names))
        pieces = []
        for partition in partitions:
            if not len(partition):  # never held a row: its columns have no type yet
                continue
            piece = Batch({name: partition.column(name) for name in names}, len(partition))
            if filters:
                masks = [partition.compare(f.column, f.op, f.value) for f in filters]
                piece = piece.filter(np.logical_and.reduce(masks))
            pieces.append(piece)
        pieces.extend(shipped)
        if not pieces:
            return Batch({name: np.empty(0, dtype=np.int64) for name in names}, 0)
        return Batch.concat(pieces)

    def _partial_aggregate(self, task: Task) -> GroupStates:
        params = task.params
        aggregates = params["aggregates"]
        inputs = [aggregate.column for aggregate in aggregates]
        rows = self._read(
            task, [*params["group_by"], *filter(None, inputs)], filters=params["filters"]
        )
        return GroupStates.reduce(
            [rows.columns[name] for name in params["group_by"]],
            rows.length,
            [(rows.columns.get(name), None) for name in inputs],
            aggregates,
        )

    def _build_hash(self, task: Task, inputs: dict[int, Any]) -> HashTable:
        """Materialise a (small) table side as join keys plus the group key
        values they carry; NULL keys join nothing and are left out."""
        params = task.params
        rows = self._read(task, [params["key_column"], *params["columns"]], inputs.values())
        key = rows.columns[params["key_column"]]
        keep = ~nulls(key)
        return HashTable(key[keep], [rows.columns[name][keep] for name in params["columns"]])

    def _join_partial(self, task: Task, inputs: dict[int, Any]) -> GroupStates:
        """Match the fact rows with the hash table (the first input) and
        aggregate the pairs under the table's group keys: a partial
        aggregate whose rows are the join's output."""
        params = task.params
        table, *shipped = inputs.values()
        aggregates = params["aggregates"]
        rows = self._read(task, [params["key_column"], *params["columns"]], shipped)
        keys, missing = match_keys([rows.columns[params["key_column"]], table.key])
        fact_rows, dim_rows, _counts = join_pairs(keys[0], ~missing[0], keys[1], ~missing[1])
        return GroupStates.reduce(
            [column[dim_rows] for column in table.payload],
            len(fact_rows),
            [(a.column and rows.columns[a.column][fact_rows], None) for a in aggregates],
            aggregates,
        )

    def _scan_ship(self, task: Task) -> dict[int, Columns]:
        """Project local rows onto the key and payload columns and hash-
        partition them on the key for a repartition shuffle: bucket → its
        rows, column-wise and ready to ship; empty buckets are left out."""
        params = task.params
        rows = self._read(task, [params["key_column"], *params["columns"]])
        buckets = route_column(rows.columns[params["key_column"]], params["buckets"])
        shuffle = {}
        for bucket in unique_inverse(buckets)[0].tolist():
            part = rows.filter(buckets == bucket)
            shuffle[bucket] = Columns(part.columns, len(part))
        return shuffle
