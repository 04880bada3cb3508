"""SDA adapters: Hive/HDFS, a second HANA instance, the SOE cluster, CSV.

"SDA enables federation to a huge variety of different data sources"
(Figure 4). Each adapter declares its capabilities — ``filter`` (simple
conjunct pushdown), ``aggregate`` (grouped aggregation pushdown), ``sql``
(full statement pushdown) — and the SDA frontend routes accordingly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.core import types as dt
from repro.core.schema import ColumnSpec, TableSchema
from repro.errors import FederationError
from repro.federation.sda import FilterTriple
from repro.sql.ast import sql_literal


class HanaAdapter:
    """Another repro :class:`Database` instance as a remote source: scans
    and aggregations travel as SQL text, so the remote engine filters."""

    def __init__(self, name: str, database: Any) -> None:
        self.name = name
        self.database = database

    def capabilities(self) -> set[str]:
        return {"filter", "aggregate", "sql"}

    def table_schema(self, remote_table: str) -> TableSchema:
        return self.database.catalog.table(remote_table).schema

    def scan(self, remote_table: str, filters: list[FilterTriple] | None = None) -> list[list[Any]]:
        return self.execute_sql(f"SELECT * FROM {remote_table}{_where(filters)}")

    def aggregate(
        self,
        remote_table: str,
        group_by: list[str],
        aggregates: list[tuple[str, str | None]],
        filters: list[FilterTriple],
    ) -> list[list[Any]]:
        select_parts = list(group_by)
        for op, column in aggregates:
            select_parts.append(f"{op.upper()}({column if column else '*'})")
        sql = f"SELECT {', '.join(select_parts)} FROM {remote_table}{_where(filters)}"
        if group_by:
            sql += " GROUP BY " + ", ".join(group_by)
        return self.execute_sql(sql)

    def execute_sql(self, sql: str) -> list[list[Any]]:
        return self.database.execute(sql).rows


class HiveAdapter(HanaAdapter):
    """A :class:`~repro.hadoop.hive.HiveServer` as a remote source: the
    same SQL pushdown; only the schema lookup differs."""

    def table_schema(self, remote_table: str) -> TableSchema:
        return self.database.table(remote_table).schema()


def _where(filters: list[FilterTriple] | None) -> str:
    """The ``WHERE`` clause pushing ``filters`` down ("" for none)."""
    if not filters:
        return ""
    return " WHERE " + " AND ".join(
        f"{column} {op} {sql_literal(value)}" for column, op, value in filters
    )


class SoeAdapter:
    """The SOE cluster as a remote source (filter + aggregate pushdown)."""

    def __init__(self, name: str, soe: Any) -> None:
        self.name = name
        self.soe = soe

    def capabilities(self) -> set[str]:
        return {"filter", "aggregate"}

    def table_schema(self, remote_table: str) -> TableSchema:
        meta = self.soe.catalog.table(remote_table.lower())
        return TableSchema([ColumnSpec(column, dt.VARCHAR) for column in meta.columns])

    def scan(self, remote_table: str, filters: list[FilterTriple] | None = None) -> list[list[Any]]:
        from repro.hadoop.rdd import SoeTableRdd

        rdd = SoeTableRdd(self.soe, remote_table)
        for column, op, value in filters or []:
            rdd = rdd.filter(column, op, value)
        return [list(row) for row in rdd.rows().collect()]

    def aggregate(
        self,
        remote_table: str,
        group_by: list[str],
        aggregates: list[tuple[str, str | None]],
        filters: list[FilterTriple],
    ) -> list[list[Any]]:
        rows, _cost = self.soe.aggregate(
            remote_table,
            group_by=group_by,
            aggregates=aggregates,
            filters=filters,
        )
        return rows


class CsvAdapter:
    """Local CSV files (one table per file) — scan-only, no pushdown."""

    def __init__(self, name: str, directory: str | Path, schemas: dict[str, list[tuple[str, str]]]) -> None:
        self.name = name
        self.directory = Path(directory)
        self._schemas = {
            table.lower(): TableSchema(
                [ColumnSpec(n.lower(), dt.type_from_name(t)) for n, t in columns]
            )
            for table, columns in schemas.items()
        }

    def capabilities(self) -> set[str]:
        return set()

    def table_schema(self, remote_table: str) -> TableSchema:
        try:
            return self._schemas[remote_table.lower()]
        except KeyError:
            raise FederationError(f"unknown CSV table {remote_table!r}") from None

    def scan(self, remote_table: str, filters: list[FilterTriple] | None = None) -> list[list[Any]]:
        schema = self.table_schema(remote_table)
        path = self.directory / f"{remote_table.lower()}.csv"
        if not path.exists():
            raise FederationError(f"missing CSV file: {path}")
        rows = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if not line:
                    continue
                raw = [None if field == "" else field for field in line.split(",")]
                rows.append(schema.coerce_row(raw))
        return rows
