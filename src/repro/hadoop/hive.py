"""Hive-flavoured SQL over HDFS files (the federation pushdown target).

"The most simple way of integration is a federated approach which is
pushing down SQL statements from HANA into Hive or similar frameworks. The
queries on HDFS data are executed on Hadoop and the results are combined
in the HANA layer." (§IV.C)

:class:`HiveServer` keeps a metastore of *external tables* (HDFS path +
schema), and answers SQL by loading the referenced files into a scratch
in-memory engine and delegating to the repro SQL stack. Every query is
charged a configurable job-start latency (simulated seconds) — the cost
profile that makes "push one aggregating query down" beat "ship the raw
file" in benchmark E9.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.core import types as dt
from repro.core.database import Database
from repro.core.result import QueryResult
from repro.core.schema import ColumnSpec, TableSchema
from repro.errors import HadoopError
from repro.hadoop.hdfs import HdfsCluster, parse_csv_line


@dataclass
class ExternalTable:
    """Metastore entry: schema over an HDFS CSV file."""

    name: str
    path: str
    columns: list[tuple[str, str]]  # (name, type name)
    delimiter: str = ","

    def schema(self) -> TableSchema:
        return TableSchema(
            [ColumnSpec(name.lower(), dt.type_from_name(type_name)) for name, type_name in self.columns]
        )


class HiveServer:
    """SQL endpoint over external HDFS tables."""

    def __init__(self, hdfs: HdfsCluster, job_latency_seconds: float = 2.0) -> None:
        self.hdfs = hdfs
        self.job_latency_seconds = job_latency_seconds
        self._metastore: dict[str, ExternalTable] = {}
        self.queries_run = 0
        self.simulated_seconds = 0.0
        self.rows_scanned = 0

    # -- metastore ----------------------------------------------------------------

    def create_external_table(
        self,
        name: str,
        path: str,
        columns: list[tuple[str, str]],
        delimiter: str = ",",
    ) -> ExternalTable:
        if name.lower() in self._metastore:
            raise HadoopError(f"external table exists: {name}")
        if not self.hdfs.exists(path):
            raise HadoopError(f"no such HDFS file: {path}")
        table = ExternalTable(name.lower(), path, columns, delimiter)
        self._metastore[name.lower()] = table
        return table

    def table(self, name: str) -> ExternalTable:
        try:
            return self._metastore[name.lower()]
        except KeyError:
            raise HadoopError(f"unknown external table {name!r}") from None

    def tables(self) -> list[str]:
        return sorted(self._metastore)

    # -- query path -----------------------------------------------------------------

    def execute(self, sql: str) -> QueryResult:
        """Run one SELECT against the external tables it references."""
        scratch = Database(name="hive-scratch")
        lowered = sql.lower()
        loaded = 0
        for table in self._metastore.values():
            if table.name in lowered:
                loaded += self._load_into(scratch, table)
        if loaded == 0 and self._metastore:
            raise HadoopError("query references no known external table")
        self.queries_run += 1
        self.simulated_seconds += self.job_latency_seconds
        self.rows_scanned += loaded
        return scratch.execute(sql)

    def _load_into(self, scratch: Database, table: ExternalTable) -> int:
        schema = table.schema()
        scratch.create_table(table.name, schema)
        lines = self.hdfs.read_file(table.path)
        rows = [parse_csv_line(line, table.delimiter) for line in lines if line.strip()]
        txn = scratch.begin()
        count = scratch.catalog.table(table.name).insert_many(rows, txn)
        scratch.commit(txn)
        return count


def export_query_to_hdfs(
    database: Database, sql: str, hdfs: HdfsCluster, path: str, delimiter: str = ","
) -> int:
    """Materialise a HANA query result as an HDFS CSV (the reverse flow)."""
    result = database.execute(sql)
    lines = (
        delimiter.join("" if value is None else str(value) for value in row)
        for row in result.rows
    )
    hdfs.write_file(path, lines, overwrite=True)
    return len(result.rows)
