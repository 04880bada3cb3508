"""HANA ↔ HDFS connectors (§IV.C: the three integration paths, plus the
three ways to *store* on HDFS).

* :func:`load_hdfs_csv_into_database` / :func:`load_hdfs_csv_into_soe` —
  the **standard file reader** (integration path 1).
* :class:`HdfsSegmentStore` — "we implement one version of the distributed
  log on top of HDFS": a shared-log segment store persisting entries as
  HDFS file lines (storage way 3).
* :func:`export_aged_partition_to_hdfs` — "HDFS is used as an aging store
  for HANA, where aged data is stored on a cheap storage mechanism"
  (storage way 2).
* :func:`deploy_soe_on_datanodes` — "we allow to install the low footprint
  SAP HANA SOE on each Hadoop node": builds an SOE landscape whose workers
  are the HDFS datanodes, then loads files block-by-block *locally*
  (no network charge when the block replica is on the worker).

Integration path 2 (RDD wrapping) lives in :mod:`repro.hadoop.rdd`; path 3
(distributed SQL over both stores in one plan) in
:mod:`repro.federation.sda`.
"""

from __future__ import annotations

import json
from typing import Any

from repro import obs
from repro.aging.tiering import aged_ordinals
from repro.columnstore.table import ColumnTable
from repro.core.database import Database
from repro.errors import HadoopError, LogError, LogSealedError
from repro.hadoop.hdfs import HdfsCluster, parse_csv_line
from repro.soe.cluster import NetworkModel
from repro.soe.engine import SoeEngine


def load_hdfs_csv_into_database(
    database: Database,
    hdfs: HdfsCluster,
    path: str,
    table: str,
    delimiter: str = ",",
) -> int:
    """File-reader connector: HDFS CSV → existing HANA table (coerced)."""
    target = database.catalog.table(table)
    rows = [parse_csv_line(line, delimiter) for line in hdfs.read_file(path) if line.strip()]
    txn = database.begin()
    try:
        count = target.insert_many(rows, txn)
    except Exception:
        obs.count("hadoop.import_rollbacks")
        database.rollback(txn)
        raise
    database.commit(txn)
    return count


def load_hdfs_csv_into_soe(
    soe: SoeEngine,
    hdfs: HdfsCluster,
    path: str,
    table: str,
    delimiter: str = ",",
    types: list[type] | None = None,
) -> int:
    """File-reader connector: HDFS CSV → SOE table (bulk import)."""
    rows = []
    for line in hdfs.read_file(path):
        if not line.strip():
            continue
        values = parse_csv_line(line, delimiter)
        if types is not None:
            values = [
                None if value is None else caster(value)
                for caster, value in zip(types, values)
            ]
        rows.append(values)
    return soe.load(table, rows)


# --------------------------------------------------------------------------
# shared log on HDFS
# --------------------------------------------------------------------------


class HdfsSegmentStore:
    """A shared-log segment replica persisting entries to an HDFS file.

    Entries append as JSON lines to ``/soelog/<segment name>``; an
    in-memory index mirrors the addresses for reads (a real implementation
    would rebuild it from the file on restart — :meth:`recover` does).
    """

    #: the HDFS cluster new instances attach to (set by make_factory)
    def __init__(self, name: str, hdfs: HdfsCluster, directory: str = "/soelog") -> None:
        self.name = name
        self.hdfs = hdfs
        self.path = f"{directory.rstrip('/')}/{name}"
        self._entries: dict[int, Any] = {}
        self.sealed_at: int | None = None
        if not hdfs.exists(self.path):
            hdfs.write_file(self.path, [])

    @classmethod
    def make_factory(cls, hdfs: HdfsCluster, directory: str = "/soelog"):
        """A store factory suitable for :class:`SharedLog`."""

        def factory(name: str) -> "HdfsSegmentStore":
            return cls(name, hdfs, directory)

        return factory

    def write(self, address: int, payload: Any) -> None:
        if self.sealed_at is not None and address >= self.sealed_at:
            raise LogSealedError(f"segment {self.name} sealed at {self.sealed_at}")
        if address in self._entries:
            raise LogError(f"address {address} already written in {self.name}")
        self.hdfs.append(self.path, [json.dumps({"a": address, "p": payload})])
        self._entries[address] = payload

    def read(self, address: int) -> Any:
        try:
            return self._entries[address]
        except KeyError:
            raise LogError(f"address {address} not written in {self.name}") from None

    def has(self, address: int) -> bool:
        return address in self._entries

    def trim(self, up_to: int) -> int:
        dropped = [address for address in self._entries if address < up_to]
        for address in dropped:
            del self._entries[address]
        surviving = [
            json.dumps({"a": address, "p": payload})
            for address, payload in sorted(self._entries.items())
        ]
        self.hdfs.write_file(self.path, surviving, overwrite=True)
        return len(dropped)

    def seal(self, at_address: int) -> None:
        self.sealed_at = at_address

    def recover(self) -> int:
        """Rebuild the in-memory index from the HDFS file."""
        self._entries = {}
        for line in self.hdfs.read_file(self.path):
            if not line.strip():
                continue
            record = json.loads(line)
            self._entries[record["a"]] = record["p"]
        return len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


# --------------------------------------------------------------------------
# aging store on HDFS
# --------------------------------------------------------------------------


def export_aged_partition_to_hdfs(
    database: Database,
    table: str,
    hdfs: HdfsCluster,
    path: str,
    delimiter: str = ",",
) -> int:
    """Move a table's aged rows to HDFS (the cheapest tier of Figure 1).

    The aged partition's committed rows are written as CSV and deleted
    from the in-memory store; a catalog annotation records where they
    went so federation can still reach them.
    """
    target = database.catalog.table(table)
    if not isinstance(target, ColumnTable):
        raise HadoopError("aging export requires a column table")
    ordinals = aged_ordinals(target)
    if not ordinals:
        raise HadoopError(f"table {table!r} has no aged partition")
    snapshot = database.txn_manager.last_committed_cid
    lines: list[str] = []
    txn = database.begin()
    exported = 0
    try:
        for ordinal in ordinals:
            partition = target.partitions[ordinal]
            positions = partition.visible_positions(snapshot, txn.tid)
            lines.extend(
                delimiter.join("" if value is None else str(value) for value in row)
                for row in partition.rows_at(positions)
            )
            if len(positions):
                partition.mark_deleted(positions, txn)
            exported += len(positions)
    except Exception:
        obs.count("hadoop.export_rollbacks")
        database.rollback(txn)
        raise
    hdfs.write_file(path, lines, overwrite=True)
    database.commit(txn)
    database.catalog.annotate(table, "hdfs_aged_path", path)
    return exported


# --------------------------------------------------------------------------
# SOE on the datanodes
# --------------------------------------------------------------------------


def deploy_soe_on_datanodes(
    hdfs: HdfsCluster,
    network: NetworkModel | None = None,
    node_modes: str = "olap",
) -> SoeEngine:
    """Build an SOE landscape with one worker per HDFS datanode."""
    soe = SoeEngine(node_count=len(hdfs.datanodes), node_modes=node_modes, network=network)
    # remember the datanode each worker is colocated with
    soe.colocation = dict(zip(soe.worker_ids, sorted(hdfs.datanodes)))  # type: ignore[attr-defined]
    return soe


def load_hdfs_file_colocated(
    soe: SoeEngine,
    hdfs: HdfsCluster,
    path: str,
    table: str,
    types: list[type] | None = None,
    delimiter: str = ",",
) -> dict[str, int]:
    """Load an HDFS file into SOE with block locality.

    Each block is parsed on the worker colocated with a replica-holding
    datanode and lands in a partition owned by that worker; only blocks
    without a local replica pay a network transfer. Returns
    ``{"local_blocks": ..., "remote_blocks": ..., "rows": ...}``.
    """
    colocation: dict[str, str] = getattr(soe, "colocation", {})
    if not colocation:
        raise HadoopError("deploy the SOE with deploy_soe_on_datanodes first")
    datanode_to_worker = {dn: worker for worker, dn in colocation.items()}
    meta = soe.catalog.table(table.lower())
    from repro.soe.partitions import PrepackagedPartition

    stats = {"local_blocks": 0, "remote_blocks": 0, "rows": 0}
    file_meta = hdfs.file_meta(path)
    next_partition = 0
    for block in file_meta.blocks:
        local_workers = [
            datanode_to_worker[replica]
            for replica in block.replicas
            if replica in datanode_to_worker
        ]
        if local_workers:
            worker = local_workers[0]
            lines, _served = hdfs.read_block(block, prefer_node=colocation[worker])
            stats["local_blocks"] += 1
        else:
            worker = soe.worker_ids[next_partition % len(soe.worker_ids)]
            lines, _served = hdfs.read_block(block)
            payload = sum(len(line) + 1 for line in lines)
            soe.cluster.transfer("hdfs", worker, payload)
            stats["remote_blocks"] += 1
        partition = PrepackagedPartition(meta.name, next_partition, meta.columns)
        for line in lines:
            if not line.strip():
                continue
            values = parse_csv_line(line, delimiter)
            if types is not None:
                values = [
                    None if value is None else caster(value)
                    for caster, value in zip(types, values)
                ]
            partition.append_row(values)
            stats["rows"] += 1
        soe.data_nodes[worker].own(
            meta.name, [partition], meta.key_positions, meta.partition_count
        )
        soe.catalog.place_partition(meta.name, next_partition, worker)
        next_partition += 1
    # the table's partition count must cover the blocks we created
    meta.partition_count = max(meta.partition_count, next_partition)
    return stats
