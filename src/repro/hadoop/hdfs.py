"""Simulated HDFS: namenode, datanodes, blocks, replication, locality.

Substitution (DESIGN.md): the paper's Hadoop integration claims only need
HDFS *semantics* — files split into replicated blocks spread over
datanodes, with block-location metadata that lets computation move to the
data. This module provides exactly that, storing block payloads as lists
of text lines (the natural unit for the MapReduce runner and the CSV
connectors).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import HdfsError


def parse_csv_line(line: str, delimiter: str = ",") -> list[str | None]:
    """The fields of one text line; an empty field is NULL."""
    return [None if field == "" else field for field in line.split(delimiter)]


@dataclass
class BlockMeta:
    """One block's identity and placement."""

    block_id: int
    replicas: list[str]
    line_count: int
    byte_size: int


@dataclass
class FileMeta:
    """Namenode entry for one file."""

    path: str
    blocks: list[BlockMeta] = field(default_factory=list)

    @property
    def byte_size(self) -> int:
        return sum(block.byte_size for block in self.blocks)

    @property
    def line_count(self) -> int:
        return sum(block.line_count for block in self.blocks)


class HdfsDataNode:
    """Stores block payloads (lines of text)."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self._blocks: dict[int, list[str]] = {}
        self.alive = True

    def store(self, block_id: int, lines: list[str]) -> None:
        self._blocks[block_id] = list(lines)

    def read(self, block_id: int) -> list[str]:
        if not self.alive:
            raise HdfsError(f"datanode {self.node_id} is down")
        try:
            return self._blocks[block_id]
        except KeyError:
            raise HdfsError(
                f"datanode {self.node_id} has no block {block_id}"
            ) from None

    def drop(self, block_id: int) -> None:
        self._blocks.pop(block_id, None)

    def block_count(self) -> int:
        return len(self._blocks)


class HdfsCluster:
    """Namenode + datanodes in one object."""

    def __init__(
        self,
        datanode_ids: Iterable[str] | int = 3,
        block_size_lines: int = 1000,
        replication: int = 2,
    ) -> None:
        if isinstance(datanode_ids, int):
            datanode_ids = [f"dn{i}" for i in range(datanode_ids)]
        ids = list(datanode_ids)
        if not ids:
            raise HdfsError("need at least one datanode")
        if replication > len(ids):
            raise HdfsError("replication factor exceeds datanode count")
        self.block_size_lines = block_size_lines
        self.replication = replication
        self.datanodes: dict[str, HdfsDataNode] = {
            node_id: HdfsDataNode(node_id) for node_id in ids
        }
        self._namespace: dict[str, FileMeta] = {}
        self._block_ids = itertools.count(1)
        self._placement_cursor = 0

    # -- namespace -----------------------------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._namespace

    def list_dir(self, prefix: str) -> list[str]:
        prefix = prefix.rstrip("/") + "/"
        return sorted(
            path for path in self._namespace if path.startswith(prefix)
        )

    def file_meta(self, path: str) -> FileMeta:
        try:
            return self._namespace[path]
        except KeyError:
            raise HdfsError(f"no such file: {path}") from None

    def delete(self, path: str) -> None:
        meta = self.file_meta(path)
        for block in meta.blocks:
            for node_id in block.replicas:
                self.datanodes[node_id].drop(block.block_id)
        del self._namespace[path]

    # -- write path ------------------------------------------------------------------

    def _place_replicas(self) -> list[str]:
        ids = list(self.datanodes)
        chosen = []
        for offset in range(self.replication):
            chosen.append(ids[(self._placement_cursor + offset) % len(ids)])
        self._placement_cursor += 1
        return chosen

    def write_file(self, path: str, lines: Iterable[str], overwrite: bool = False) -> FileMeta:
        """Create a file from text lines, splitting into replicated blocks."""
        if self.exists(path):
            if not overwrite:
                raise HdfsError(f"file exists: {path}")
            self.delete(path)
        meta = FileMeta(path)
        buffer: list[str] = []
        for line in lines:
            buffer.append(line)
            if len(buffer) >= self.block_size_lines:
                self._seal_block(meta, buffer)
                buffer = []
        if buffer or not meta.blocks:
            self._seal_block(meta, buffer)
        self._namespace[path] = meta
        return meta

    def append(self, path: str, lines: Iterable[str]) -> FileMeta:
        """Append lines (creates the file if missing)."""
        if not self.exists(path):
            return self.write_file(path, lines)
        meta = self.file_meta(path)
        buffer = list(lines)
        while buffer:
            chunk, buffer = buffer[: self.block_size_lines], buffer[self.block_size_lines :]
            self._seal_block(meta, chunk)
        return meta

    def _seal_block(self, meta: FileMeta, lines: list[str]) -> None:
        block_id = next(self._block_ids)
        replicas = self._place_replicas()
        for node_id in replicas:
            self.datanodes[node_id].store(block_id, lines)
        meta.blocks.append(
            BlockMeta(
                block_id=block_id,
                replicas=replicas,
                line_count=len(lines),
                byte_size=sum(len(line) + 1 for line in lines),
            )
        )

    # -- read path --------------------------------------------------------------------

    def read_block(self, block: BlockMeta, prefer_node: str | None = None) -> tuple[list[str], str]:
        """Read one block; returns (lines, serving node). Prefers the local
        replica when ``prefer_node`` holds one (data locality)."""
        order = list(block.replicas)
        if prefer_node in order:
            order.remove(prefer_node)
            order.insert(0, prefer_node)
        errors: list[str] = []
        for node_id in order:
            datanode = self.datanodes[node_id]
            if not datanode.alive:
                errors.append(f"{node_id} down")
                continue
            try:
                return datanode.read(block.block_id), node_id
            except HdfsError as exc:
                errors.append(str(exc))
        raise HdfsError(f"block {block.block_id} unreadable: {errors}")

    def read_file(self, path: str) -> Iterator[str]:
        """Stream a file's lines."""
        for block in self.file_meta(path).blocks:
            lines, _node = self.read_block(block)
            yield from lines

    # -- failure handling ------------------------------------------------------------------

    def kill_datanode(self, node_id: str) -> None:
        self.datanodes[node_id].alive = False

    def revive_datanode(self, node_id: str) -> None:
        self.datanodes[node_id].alive = True

    def re_replicate(self) -> int:
        """Restore the replication factor after datanode failures;
        returns blocks copied."""
        copied = 0
        live = [n for n in self.datanodes.values() if n.alive]
        for meta in self._namespace.values():
            for block in meta.blocks:
                live_replicas = [
                    node_id
                    for node_id in block.replicas
                    if self.datanodes[node_id].alive
                ]
                if not live_replicas:
                    raise HdfsError(f"block {block.block_id} lost all replicas")
                while len(live_replicas) < min(self.replication, len(live)):
                    source = self.datanodes[live_replicas[0]]
                    candidates = [
                        n for n in live if n.node_id not in live_replicas
                    ]
                    if not candidates:
                        break
                    target = min(candidates, key=lambda n: n.block_count())
                    target.store(block.block_id, source.read(block.block_id))
                    live_replicas.append(target.node_id)
                    copied += 1
                block.replicas = live_replicas
        return copied

    # -- stats ---------------------------------------------------------------------------------

    def statistics(self) -> dict[str, object]:
        return {
            "files": len(self._namespace),
            "blocks": sum(len(m.blocks) for m in self._namespace.values()),
            "bytes": sum(m.byte_size for m in self._namespace.values()),
            "datanodes": {
                node_id: node.block_count() for node_id, node in self.datanodes.items()
            },
        }
