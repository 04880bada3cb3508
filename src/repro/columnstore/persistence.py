"""Durability: write-ahead redo log, savepoints, and recovery.

The paper positions HANA as "a fully ACID compliant relational database
system with all the state of the art capabilities like backup, recovery"
(Section II). The reproduction implements the standard scheme:

* every commit appends its redo records to ``redo.log`` (JSON lines,
  flushed before the commit id becomes visible),
* a **savepoint** writes a logical snapshot of all committed data and
  truncates the log,
* **recovery** loads the latest savepoint and replays the log tail.

Redo records are logical (full row payloads), so replay is independent of
physical row positions — merges and compactions never invalidate the log.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
from pathlib import Path
from typing import Any

from repro.errors import PersistenceError

SAVEPOINT_FILE = "savepoint.json"
REDO_FILE = "redo.log"


def _json_default(value: Any) -> Any:
    if isinstance(value, (_dt.date, _dt.datetime)):
        return value.isoformat()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")


class PersistenceManager:
    """File-backed durability for one database instance."""

    def __init__(self, directory: str | os.PathLike[str]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._redo_path = self.directory / REDO_FILE
        self._savepoint_path = self.directory / SAVEPOINT_FILE
        self._redo_handle = open(self._redo_path, "a", encoding="utf-8")
        self.records_written = 0
        self.savepoints_taken = 0

    # -- redo log ---------------------------------------------------------------

    def write_redo(self, records: list[dict[str, Any]], cid: int) -> None:
        """Append one commit's records; durable before the commit returns."""
        line = json.dumps({"cid": cid, "records": records}, default=_json_default)
        self._redo_handle.write(line + "\n")
        self._redo_handle.flush()
        os.fsync(self._redo_handle.fileno())
        self.records_written += len(records)

    def read_redo(self, after_cid: int = 0) -> list[tuple[int, list[dict[str, Any]]]]:
        """All logged commits with cid > ``after_cid``, in commit order."""
        if not self._redo_path.exists():
            return []
        commits: list[tuple[int, list[dict[str, Any]]]] = []
        with open(self._redo_path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    # torn tail write: everything after it is not durable
                    break
                if entry["cid"] > after_cid:
                    commits.append((entry["cid"], entry["records"]))
        return commits

    # -- savepoints ---------------------------------------------------------------

    def write_savepoint(self, snapshot: dict[str, Any]) -> None:
        """Atomically persist a logical snapshot and truncate the log."""
        temp_path = self._savepoint_path.with_suffix(".tmp")
        with open(temp_path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, default=_json_default)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, self._savepoint_path)
        self._redo_handle.close()
        self._redo_handle = open(self._redo_path, "w", encoding="utf-8")
        self.savepoints_taken += 1

    def read_savepoint(self) -> dict[str, Any] | None:
        """The latest savepoint snapshot, if any."""
        if not self._savepoint_path.exists():
            return None
        try:
            with open(self._savepoint_path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise PersistenceError(f"corrupt savepoint: {exc}") from exc

    # -- physical savepoints (SOFORT-style, §IV.A ref [10]) -----------------------

    def write_physical_savepoint(self, tables: dict[str, Any], cid: int) -> None:
        """Persist table objects *physically* (fragments, dictionaries,
        MVCC stamps) instead of logical rows.

        This simulates the SOFORT/NVM design the paper cites: recovery
        re-attaches the data structures instead of replaying work, so
        restart cost is (de)serialisation-bound, not log-replay-bound.
        Atomic via write-to-temp + rename; truncates the redo log like a
        logical savepoint.
        """
        import pickle

        path = self.directory / "savepoint.phys"
        temp_path = path.with_suffix(".tmp")
        with open(temp_path, "wb") as handle:
            pickle.dump({"cid": cid, "tables": tables}, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
        self._redo_handle.close()
        self._redo_handle = open(self._redo_path, "w", encoding="utf-8")
        self.savepoints_taken += 1

    def read_physical_savepoint(self) -> dict[str, Any] | None:
        """The latest physical snapshot, if any."""
        import pickle

        path = self.directory / "savepoint.phys"
        if not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except Exception as exc:  # unreadable, truncated, or naming a class that is gone
            raise PersistenceError(f"cannot load physical savepoint {path}: {exc!r}") from exc

    def close(self) -> None:
        """Release the log handle."""
        self._redo_handle.close()
