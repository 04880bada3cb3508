"""Transaction manager: snapshots, commit stamping, rollback, conflicts.

Implements snapshot isolation with first-writer-wins write conflicts over
the column store's MVCC stamps (see :mod:`repro.transaction.mvcc`). The
manager is deliberately storage-agnostic: a transaction records *stamp
slots* — small handles that know how to write a commit id into the
``created``/``deleted`` vector of whatever partition the change touched —
so the same manager serves the row store, flexible tables, and the SOE's
replicated partitions.

Commit also drives the write-ahead redo log when the owning database has
persistence enabled (the log callable is injected, keeping this module free
of I/O concerns).
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.analysis.racecheck import track_fields
from repro.errors import InvalidTransactionStateError
from repro.transaction.mvcc import INF_CID, uncommitted_stamp


class TxnState(enum.Enum):
    """Lifecycle of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class StampSlot:
    """A pending MVCC stamp: where to write the commit id on commit, and
    ``INF_CID`` on rollback.

    ``vector`` is any object supporting ``__setitem__(position, int)`` —
    in practice a :class:`repro.util.arrays.GrowableArray`. ``position``
    is one row, a ``slice`` of rows a batch appended together, or an
    index array of the rows one statement deleted.
    """

    vector: Any
    position: int | slice | np.ndarray


@dataclass
class Transaction:
    """One unit of work. Obtain via :meth:`TransactionManager.begin`."""

    tid: int
    snapshot_cid: int
    state: TxnState = TxnState.ACTIVE
    _created_slots: list[StampSlot] = field(default_factory=list)
    _deleted_slots: list[StampSlot] = field(default_factory=list)
    _redo_records: list[dict[str, Any]] = field(default_factory=list)
    _commit_hooks: list[Callable[[int], None]] = field(default_factory=list)
    commit_cid: int | None = None

    @property
    def stamp(self) -> int:
        """The uncommitted stamp this transaction writes into MVCC vectors."""
        return uncommitted_stamp(self.tid)

    @property
    def is_active(self) -> bool:
        return self.state is TxnState.ACTIVE

    @property
    def is_read_only(self) -> bool:
        """True when the transaction has made no writes so far."""
        return not (self._created_slots or self._deleted_slots)

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise InvalidTransactionStateError(
                f"transaction {self.tid} is {self.state.value}"
            )

    # -- write registration (called by the storage layer) -------------------

    def record_insert(self, vector: Any, position: int | slice | np.ndarray) -> None:
        """Register the ``created`` slot of freshly inserted rows: one
        position, a slice or an index array, stamped as one."""
        self._require_active()
        self._created_slots.append(StampSlot(vector, position))

    def record_delete(self, vector: Any, position: int | slice | np.ndarray) -> None:
        """Register the ``deleted`` slot of deleted rows, as :meth:`record_insert`."""
        self._require_active()
        self._deleted_slots.append(StampSlot(vector, position))

    def log_redo(self, record: dict[str, Any]) -> None:
        """Queue a redo-log record to be flushed atomically at commit."""
        self._require_active()
        self._redo_records.append(record)

    def on_commit(self, hook: Callable[[int], None]) -> None:
        """Run ``hook(commit_cid)`` after a successful commit.

        Used for maintenance that must observe committed data only, e.g.
        automatic text-index updates (paper, Section II.C).
        """
        self._require_active()
        self._commit_hooks.append(hook)


@track_fields("_active")
class TransactionManager:
    """Hands out transactions and serialises commit stamping."""

    def __init__(self, redo_writer: Callable[[list[dict[str, Any]], int], None] | None = None) -> None:
        self._tid_counter = itertools.count(1)
        self._last_committed_cid = 0
        self._commit_lock = threading.Lock()
        self._active: dict[int, Transaction] = {}
        self._redo_writer = redo_writer
        self.commits = 0
        self.aborts = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def last_committed_cid(self) -> int:
        """The most recent commit id (== the freshest possible snapshot).

        Read under the commit lock: an unguarded read here is the classic
        check-then-act race against a concurrent commit's stamp (RA109).
        """
        with self._commit_lock:
            return self._last_committed_cid

    def begin(self) -> Transaction:
        """Start a transaction with a snapshot of the current commit state."""
        with self._commit_lock:
            txn = Transaction(tid=next(self._tid_counter), snapshot_cid=self._last_committed_cid)
            self._active[txn.tid] = txn
        return txn

    def commit(self, txn: Transaction) -> int:
        """Commit: allocate a commit id and stamp every touched row.

        Read-only transactions commit without consuming a commit id.
        Returns the commit id (or the snapshot cid for read-only commits).
        """
        txn._require_active()
        with self._commit_lock:
            if txn.is_read_only:
                txn.state = TxnState.COMMITTED
                txn.commit_cid = txn.snapshot_cid
            else:
                cid = self._last_committed_cid + 1
                if self._redo_writer is not None and txn._redo_records:
                    self._redo_writer(txn._redo_records, cid)
                for slot in txn._created_slots + txn._deleted_slots:
                    slot.vector[slot.position] = cid
                self._last_committed_cid = cid
                txn.state = TxnState.COMMITTED
                txn.commit_cid = cid
            self._active.pop(txn.tid, None)
            self.commits += 1
        for hook in txn._commit_hooks:
            hook(txn.commit_cid)
        return txn.commit_cid

    def rollback(self, txn: Transaction) -> None:
        """Abort: restore every touched stamp to its pre-transaction value."""
        if txn.state is TxnState.ABORTED:
            return
        txn._require_active()
        # Inserted rows become permanently invisible tombstones (created =
        # INF_CID); deletions are un-marked (deleted = INF_CID) so other
        # writers may target the row again.
        for slot in txn._created_slots + txn._deleted_slots:
            slot.vector[slot.position] = INF_CID
        txn.state = TxnState.ABORTED
        with self._commit_lock:
            self._active.pop(txn.tid, None)
            self.aborts += 1

    @property
    def active_count(self) -> int:
        """Number of currently running transactions."""
        with self._commit_lock:
            return len(self._active)
