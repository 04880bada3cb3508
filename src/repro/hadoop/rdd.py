"""A minimal RDD with SOE-backed relational operations (§IV.C).

"Integration is performed into the Spark framework as RDD objects by
utilizing SAP HANA SOE for relevant operations like join, filters,
aggregation etc. By wrapping SAP HANA SOE in RDD objects customers can
still use all Spark functionality."

:class:`Rdd` provides the lazy functional core (map/filter/flatMap/
reduceByKey/...); :func:`soe_table_rdd` wraps an SOE table so that
``filter``/``aggregate`` chains *push down* into the SOE engine instead of
materialising rows — the wrapped form tracks what was pushed so the E9
bench can compare pushdown vs collect-then-process.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable

import numpy as np

from repro.errors import HadoopError
from repro.hadoop.hdfs import HdfsCluster
from repro.sql.expressions import Batch


class Rdd:
    """A lazy, deterministic, in-process resilient-distributed-dataset."""

    def __init__(self, compute: Callable[[], Iterable[Any]]) -> None:
        self._compute = compute

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_iterable(cls, items: Iterable[Any]) -> "Rdd":
        materialised = list(items)
        return cls(lambda: iter(materialised))

    @classmethod
    def from_hdfs(cls, hdfs: HdfsCluster, path: str) -> "Rdd":
        return cls(lambda: hdfs.read_file(path))

    # -- transformations (lazy) ----------------------------------------------------

    def map(self, function: Callable[[Any], Any]) -> "Rdd":
        return Rdd(lambda: (function(item) for item in self._compute()))

    def filter(self, predicate: Callable[[Any], bool]) -> "Rdd":
        return Rdd(lambda: (item for item in self._compute() if predicate(item)))

    def flat_map(self, function: Callable[[Any], Iterable[Any]]) -> "Rdd":
        return Rdd(
            lambda: (out for item in self._compute() for out in function(item))
        )

    def distinct(self) -> "Rdd":
        def compute() -> Iterable[Any]:
            seen: set[Any] = set()
            for item in self._compute():
                if item not in seen:
                    seen.add(item)
                    yield item

        return Rdd(compute)

    def reduce_by_key(self, function: Callable[[Any, Any], Any]) -> "Rdd":
        def compute() -> Iterable[tuple[Hashable, Any]]:
            accumulator: dict[Hashable, Any] = {}
            for key, value in self._compute():
                if key in accumulator:
                    accumulator[key] = function(accumulator[key], value)
                else:
                    accumulator[key] = value
            yield from sorted(accumulator.items(), key=lambda kv: repr(kv[0]))

        return Rdd(compute)

    def join(self, other: "Rdd") -> "Rdd":
        """(k, a) join (k, b) → (k, (a, b))."""

        def compute() -> Iterable[tuple[Hashable, tuple[Any, Any]]]:
            right: dict[Hashable, list[Any]] = {}
            for key, value in other._compute():
                right.setdefault(key, []).append(value)
            for key, value in self._compute():
                for match in right.get(key, ()):
                    yield key, (value, match)

        return Rdd(compute)

    def union(self, other: "Rdd") -> "Rdd":
        def compute() -> Iterable[Any]:
            yield from self._compute()
            yield from other._compute()

        return Rdd(compute)

    # -- actions (eager) ----------------------------------------------------------------

    def collect(self) -> list[Any]:
        return list(self._compute())

    def count(self) -> int:
        return sum(1 for _item in self._compute())

    def take(self, count: int) -> list[Any]:
        out = []
        for item in self._compute():
            out.append(item)
            if len(out) >= count:
                break
        return out

    def reduce(self, function: Callable[[Any, Any], Any]) -> Any:
        iterator = iter(self._compute())
        try:
            result = next(iterator)
        except StopIteration:
            raise HadoopError("reduce of empty RDD") from None
        for item in iterator:
            result = function(result, item)
        return result

    def save_to_hdfs(self, hdfs: HdfsCluster, path: str) -> None:
        hdfs.write_file(path, (str(item) for item in self._compute()), overwrite=True)


class SoeTableRdd:
    """An RDD view over an SOE table with relational pushdown.

    ``filter`` (on simple column predicates) and ``aggregate`` execute in
    the SOE engine; ``rows()`` materialises the (filtered) table as a plain
    :class:`Rdd` for arbitrary Spark-style processing.
    """

    def __init__(self, soe: Any, table: str, filters: tuple[tuple[str, str, Any], ...] = ()) -> None:
        self.soe = soe
        self.table = table.lower()
        self.filters = filters
        self.pushed_operations: list[str] = []

    def filter(self, column: str, op: str, value: Any) -> "SoeTableRdd":
        """Pushed-down filter: no data leaves the engine."""
        derived = SoeTableRdd(
            self.soe, self.table, self.filters + ((column.lower(), op, value),)
        )
        derived.pushed_operations = self.pushed_operations + [f"filter({column} {op} {value!r})"]
        return derived

    def aggregate(
        self,
        group_by: list[str],
        aggregates: list[tuple[str, str | None]],
    ) -> Rdd:
        """Pushed-down aggregation executed by the SOE coordinator."""
        rows, _cost = self.soe.aggregate(
            self.table,
            group_by=group_by,
            aggregates=aggregates,
            filters=list(self.filters),
        )
        self.pushed_operations.append(f"aggregate({group_by}, {aggregates})")
        return Rdd.from_iterable(rows)

    def rows(self) -> Rdd:
        """Materialise (filtered) rows out of the engine — the expensive
        path pushdown avoids. Each partition is read once, from the replica
        the coordinator would read, and filtered on its codes as the
        engine's own scans are."""
        rows: list[tuple] = []
        for partition_id, hosts in self.soe.catalog.placement_of(self.table).items():
            store = self.soe.data_nodes[hosts[partition_id % len(hosts)]].store
            partition = store.partition(self.table, partition_id)
            if not len(partition):  # never held a row: its columns have no type yet
                continue
            piece = Batch({name: partition.column(name) for name in partition.columns}, len(partition))
            if self.filters:
                masks = [partition.compare(column, op, value) for column, op, value in self.filters]
                piece = piece.filter(np.logical_and.reduce(masks))
            rows.extend(map(tuple, piece.rows()))
        return Rdd.from_iterable(rows)


def soe_table_rdd(soe: Any, table: str) -> SoeTableRdd:
    """Entry point: wrap an SOE table as a pushdown-capable RDD."""
    return SoeTableRdd(soe, table)
