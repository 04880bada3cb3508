"""Tests for the transaction manager."""

import pytest

from repro.errors import InvalidTransactionStateError
from repro.transaction.manager import TransactionManager, TxnState
from repro.transaction.mvcc import INF_CID
from repro.util.arrays import GrowableArray


def test_begin_assigns_increasing_tids_and_snapshot():
    manager = TransactionManager()
    a = manager.begin()
    b = manager.begin()
    assert b.tid > a.tid
    assert a.snapshot_cid == 0


def test_read_only_commit_consumes_no_cid():
    manager = TransactionManager()
    txn = manager.begin()
    manager.commit(txn)
    assert manager.last_committed_cid == 0
    assert txn.state is TxnState.COMMITTED


def test_commit_stamps_slots():
    manager = TransactionManager()
    vector = GrowableArray()
    txn = manager.begin()
    position = vector.append(txn.stamp)
    txn.record_insert(vector, position)
    cid = manager.commit(txn)
    assert cid == 1
    assert vector[position] == 1


def test_rollback_restores_slots():
    manager = TransactionManager()
    created = GrowableArray()
    deleted = GrowableArray()
    txn = manager.begin()
    created_pos = created.append(txn.stamp)
    deleted_pos = deleted.append(txn.stamp)
    txn.record_insert(created, created_pos)
    txn.record_delete(deleted, deleted_pos)
    manager.rollback(txn)
    assert created[created_pos] == INF_CID  # tombstone
    assert deleted[deleted_pos] == INF_CID  # undone


def test_double_commit_rejected():
    manager = TransactionManager()
    txn = manager.begin()
    manager.commit(txn)
    with pytest.raises(InvalidTransactionStateError):
        manager.commit(txn)


def test_rollback_after_rollback_is_idempotent():
    manager = TransactionManager()
    txn = manager.begin()
    manager.rollback(txn)
    manager.rollback(txn)  # no error
    assert manager.aborts == 1


def test_commit_hooks_fire_with_cid():
    manager = TransactionManager()
    seen = []
    txn = manager.begin()
    vector = GrowableArray()
    position = vector.append(txn.stamp)
    txn.record_insert(vector, position)
    txn.on_commit(seen.append)
    manager.commit(txn)
    assert seen == [1]


def test_redo_writer_called_once_per_commit():
    written = []
    manager = TransactionManager(redo_writer=lambda records, cid: written.append((cid, records)))
    txn = manager.begin()
    vector = GrowableArray()
    txn.record_insert(vector, vector.append(txn.stamp))
    txn.log_redo({"op": "insert"})
    manager.commit(txn)
    assert written == [(1, [{"op": "insert"}])]


def test_active_count():
    manager = TransactionManager()
    a = manager.begin()
    b = manager.begin()
    assert manager.active_count == 2
    manager.commit(a)
    manager.rollback(b)
    assert manager.active_count == 0
