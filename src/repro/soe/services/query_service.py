"""v2lqp: the local query-processing executable (§IV.B, Figure 3).

"At the core is the SAP HANA SOE local query processing executable (v2lqp)
which contains a query and a data service." The query service executes
coordinator tasks against the node-local prepackaged partitions — or, for
a repartition join, against the bucket shipped to it — compiling each
task's kernel first: aggregates and join probes alike run
:func:`repro.soe.codegen.run_partial_aggregate`, this module only picks
the partitions and builds hash tables and shuffle buckets. The data
service (:class:`~repro.soe.replication.DataNode`) owns the partitions and
applies the shared log.

**Role in the query path:** the leaf executor of the SOE — the v2dqp
coordinator's task DAG lands here, one task at a time, and only partial
results travel back.

**Observability:** every task dispatch counts into
``soe.query_service.tasks`` and the ``soe.query_service.task_seconds``
latency histogram (labelled by task kind and node), the per-node numbers
the v2stats service reads to spot hotspots.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro import obs
from repro.errors import CoordinationError
from repro.soe.cluster import approx_values_bytes
from repro.soe.codegen import (
    GroupStates,
    HashTable,
    estimate_states_bytes,
    run_partial_aggregate,
)
from repro.soe.partitions import PrepackagedPartition, route_row
from repro.soe.replication import DataNode
from repro.soe.tasks import Task


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

    # -- kernels ------------------------------------------------------------------

    def _partitions(
        self, task: Task, shipped: Iterable[PrepackagedPartition] = ()
    ) -> list[PrepackagedPartition]:
        """What a task reads: the local partitions its params name, then
        the shuffle buckets shipped to it. Only local reads count into
        ``rows_processed`` — the per-node load v2stats balances on."""
        store = self.data_node.store
        table = task.params["table"]
        partitions = [store.partition(table, pid) for pid in task.params["partitions"]]
        self.rows_processed += sum(len(partition) for partition in partitions)
        return [*partitions, *shipped]

    def _partial_aggregate(self, task: Task) -> GroupStates:
        params = task.params
        return run_partial_aggregate(
            self._partitions(task),
            params["filters"],
            params["group_by"],
            params["aggregates"],
        )

    def _build_hash(self, task: Task, inputs: dict[int, Any]) -> HashTable:
        """Materialise a (small) table side as join key → group keys; NULL
        keys join nothing and are left out."""
        params = task.params
        table_hash: HashTable = {}
        for partition in self._partitions(task, inputs.values()):
            keys = partition.column_list(params["key_column"])
            group_keys = zip(*(partition.column_list(c) for c in params["columns"]))
            for key, group_key in zip(keys, group_keys):
                if key is not None:
                    table_hash.setdefault(key, []).append(group_key)
        return table_hash

    def _join_partial(self, task: Task, inputs: dict[int, Any]) -> GroupStates:
        """Probe the fact partitions against the hash table (the first
        input) and aggregate: the partial-aggregate kernel's probe variant."""
        params = task.params
        hash_table, *shipped = inputs.values()
        return run_partial_aggregate(
            self._partitions(task, shipped),
            [],
            [],
            params["aggregates"],
            probe=(params["key_column"], hash_table),
        )

    def _scan_ship(self, task: Task) -> dict[int, PrepackagedPartition]:
        """Project local rows onto the key and payload columns and hash-
        partition them on the key for a repartition shuffle: bucket → one
        prepackaged (column-wise) partition, ready to ship; empty buckets
        are left out."""
        params = task.params
        columns = list(dict.fromkeys([params["key_column"], *params["columns"]]))
        key_positions, bucket_count = [0], params["buckets"]
        bucket_rows: list[list[tuple]] = [[] for _ in range(bucket_count)]
        for partition in self._partitions(task):
            for row in zip(*(partition.column_list(c) for c in columns)):
                bucket_rows[route_row(row, key_positions, bucket_count)].append(row)
        return {
            bucket: PrepackagedPartition.from_payload(
                {
                    "table": params["table"],
                    "partition_id": bucket,
                    "columns": columns,
                    "data": dict(zip(columns, zip(*rows))),
                }
            )
            for bucket, rows in enumerate(bucket_rows)
            if rows
        }

    # -- result sizing (for network accounting) -------------------------------------

    @staticmethod
    def result_bytes(result: Any) -> int:
        """Shipped size of a task result: a prepackaged partition, a hash
        table, or partial-aggregate states."""
        if isinstance(result, PrepackagedPartition):
            return sum(
                approx_values_bytes(result.column_list(name)) for name in result.columns
            )
        first = next(iter(result.values()), None)
        if isinstance(first, list) and first and isinstance(first[0], tuple):
            return approx_values_bytes(result) + sum(
                approx_values_bytes(row) for rows in result.values() for row in rows
            )
        return estimate_states_bytes(result)
