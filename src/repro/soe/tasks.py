"""Task DAGs: the unit of distributed execution (§IV.B).

"The execution of distributed queries is controlled by a distributed query
coordinator service (v2dqp) which translates each query to a directed
acyclic graph of tasks. The tasks are being sent to the query service
instances where they are compiled and executed."

What flows along the DAG's edges is columnar and sizes itself for the
network model: :class:`Columns` (a shuffle bucket), :class:`HashTable` (a
join's build side) and :class:`GroupStates` (partial aggregates). Their
grouping and reductions are the shared kernels of :mod:`repro.sql.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from repro.errors import CoordinationError
from repro.soe.cluster import approx_column_bytes
from repro.sql.expressions import Batch, Column, concat_columns, python_values
from repro.sql.kernels import finalize, group_ids, reduce_states


@dataclass(frozen=True)
class Filter:
    """A simple pushed-down predicate: column <op> value."""

    column: str
    op: str  # "=", "<>", "<", "<=", ">", ">="
    value: Any

    def __post_init__(self) -> None:
        if self.op not in ("=", "<>", "<", "<=", ">", ">="):
            raise CoordinationError(f"unknown filter operator {self.op!r}")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate: op in {count, sum, min, max, avg} over a column."""

    op: str
    column: str | None = None  # None only for count

    def __post_init__(self) -> None:
        if self.op not in ("count", "sum", "min", "max", "avg"):
            raise CoordinationError(f"unknown aggregate {self.op!r}")
        if self.op != "count" and self.column is None:
            raise CoordinationError(f"{self.op} needs a column")


def _concat(parts: list[Column]) -> Column:
    return concat_columns(parts) if parts else np.empty(0, dtype=np.int64)


class Columns(Batch):
    """One bucket of a shuffle on its way to a worker: a batch that sizes
    itself for the network model."""

    def size_bytes(self) -> int:
        return sum(map(approx_column_bytes, self.columns.values()))


@dataclass
class HashTable:
    """A join's build side in array form: per row its join key (never NULL)
    and the group key values it hands to the fact rows it matches."""

    key: Column
    payload: list[Column]

    def size_bytes(self) -> int:
        return self._wire_bytes

    @cached_property
    def _wire_bytes(self) -> int:
        """A hash table ships each distinct key once, then every payload
        row. Worked out once per table: a broadcast ships one table to
        every node."""
        _ids, first = group_ids([self.key], len(self.key))
        return sum(map(approx_column_bytes, [self.key[first], *self.payload]))

    @staticmethod
    def concat(parts: "list[HashTable]") -> "HashTable":
        """Union the build side's per-node tables (the broadcast gather)."""
        parts = [part for part in parts if len(part.key)]
        payload = [_concat(list(columns)) for columns in zip(*(part.payload for part in parts))]
        return HashTable(_concat([part.key for part in parts]), payload)


@dataclass
class GroupStates:
    """Partial aggregates, one row per group: the group key columns and, per
    aggregate, a ``(values, counts)`` state (see
    :func:`repro.sql.kernels.reduce_states`)."""

    keys: list[Column]
    states: list[tuple[Column, np.ndarray]]
    groups: int

    def size_bytes(self) -> int:
        return sum(map(approx_column_bytes, self.keys)) + 16 * len(self.states) * self.groups

    @staticmethod
    def reduce(
        keys: list[Column],
        length: int,
        states: list[tuple[Column | None, np.ndarray | None]],
        aggregates: Sequence[AggregateSpec],
        one_row: bool = False,
    ) -> "GroupStates":
        """Group per-row states by the key columns. Rows are states too
        (``counts`` None), so this is a worker's partial aggregate and the
        coordinator's merge alike. ``one_row``: a global aggregate always
        yields one row."""
        ids, first = group_ids(keys, length)
        groups = 1 if one_row else len(first)
        reduced = [
            reduce_states(aggregate.op, values, counts, ids, groups)
            for aggregate, (values, counts) in zip(aggregates, states)
        ]
        return GroupStates([key[first] for key in keys], reduced, groups)

    @staticmethod
    def merge(
        parts: "list[GroupStates]", aggregates: Sequence[AggregateSpec], key_count: int
    ) -> "GroupStates":
        """Combine partial states from several nodes (the reduce step): the
        same reduction over their concatenation."""
        parts = [part for part in parts if part.groups]
        keys = [_concat([part.keys[k] for part in parts]) for k in range(key_count)]
        states = [
            tuple(_concat([part.states[a][side] for part in parts]) for side in (0, 1))
            for a in range(len(aggregates))
        ]
        groups = sum(part.groups for part in parts)
        return GroupStates.reduce(keys, groups, states, aggregates, one_row=not key_count)

    def rows(self, aggregates: Sequence[AggregateSpec]) -> list[list[Any]]:
        """States → output rows: group key values then aggregate values
        (:func:`~repro.sql.kernels.finalize`), ordered by the keys' reprs."""
        columns = list(map(python_values, self.keys))
        for aggregate, (values, counts) in zip(aggregates, self.states):
            columns.append(python_values(finalize(aggregate.op, values, counts)))
        rows = list(map(list, zip(*columns))) if columns else [[] for _ in range(self.groups)]
        if not self.keys:
            return rows
        # one stable sort over a repr array per key column, the first key
        # last: NumPy compares ``U`` strings by code point, as Python does
        reprs = [np.array(list(map(repr, key))) for key in columns[: len(self.keys)]]
        order = np.lexsort(reprs[::-1])
        return list(map(rows.__getitem__, order.tolist()))


@dataclass
class Task:
    """One node-assigned unit of work in the DAG."""

    task_id: int
    #: on a worker: partial_aggregate | build_hash | join_partial | scan_ship;
    #: at the coordinator: merge_hash | merge_aggregate
    kind: str
    node_id: str
    params: dict[str, Any] = field(default_factory=dict)
    inputs: list[int] = field(default_factory=list)


@dataclass
class TaskDag:
    """The coordinator's plan: tasks plus dependency edges."""

    tasks: list[Task] = field(default_factory=list)

    def add(self, kind: str, node_id: str, params: dict[str, Any], inputs: list[int] | None = None) -> Task:
        task = Task(
            task_id=len(self.tasks),
            kind=kind,
            node_id=node_id,
            params=params,
            inputs=list(inputs or []),
        )
        self.tasks.append(task)
        return task

    def topological_order(self) -> list[Task]:
        """Tasks in dependency order (inputs first)."""
        indegree = {task.task_id: len(task.inputs) for task in self.tasks}
        dependents: dict[int, list[int]] = {task.task_id: [] for task in self.tasks}
        for task in self.tasks:
            for dependency in task.inputs:
                dependents[dependency].append(task.task_id)
        ready = [task_id for task_id, degree in indegree.items() if degree == 0]
        order: list[Task] = []
        while ready:
            current = ready.pop()
            order.append(self.tasks[current])
            for dependent in dependents[current]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self.tasks):
            raise CoordinationError("task DAG has a cycle")
        return order

    def describe(self) -> str:
        lines = []
        for task in self.tasks:
            inputs = f" <- {task.inputs}" if task.inputs else ""
            lines.append(f"t{task.task_id} {task.kind}@{task.node_id}{inputs}")
        return "\n".join(lines)
