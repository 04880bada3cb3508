"""Task DAGs: the unit of distributed execution (§IV.B).

"The execution of distributed queries is controlled by a distributed query
coordinator service (v2dqp) which translates each query to a directed
acyclic graph of tasks. The tasks are being sent to the query service
instances where they are compiled and executed."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import CoordinationError


@dataclass(frozen=True)
class Filter:
    """A simple pushed-down predicate: column <op> value."""

    column: str
    op: str  # "=", "<>", "<", "<=", ">", ">="
    value: Any


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
