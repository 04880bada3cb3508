"""Log-driven replica maintenance: OLTP vs OLAP database nodes (§IV.B).

"We are able to achieve different transactional behaviors by distinguishing
two types of database nodes. ... an OLAP node updates itself in a
transactionally consistent way but not necessarily synchronously to the
update request ... OLTP nodes allow real time transactional update of the
data by incorporating the log during the update transaction."

:class:`DataNode` owns a set of partition ids per table and applies the
transaction stream to its :class:`LocalStore`:

* ``mode="oltp"`` — subscribes to the broker; every committed transaction
  is applied before the commit returns (always fresh, pays apply cost on
  the write path),
* ``mode="olap"`` — applies nothing eagerly; :meth:`catch_up` pulls the
  log suffix on demand (polling or coordinator-forced), trading staleness
  for cheap writes. ``staleness()`` reports how far behind it is.

High availability: several nodes may own the same partition (replicas);
they all apply the same log, so any of them can serve reads after a
failure — "high availability is achieved by supporting multiple replicas
with the log replication mechanism".

Ownership changes go through the **locked ownership API**
(:meth:`DataNode.install_ownership` / :meth:`DataNode.release_ownership`
/ :meth:`DataNode.transfer_ownership`) — never by poking ``_ownership``
directly. The install path aligns the incoming partition with this
node's log-apply cursor *under the apply lock*, which closes the
install-vs-apply seam (the PR 4 race): a commit can never be applied
twice to, or skipped by, a partition that arrives mid-stream.

Every ownership-mutating entry point additionally accepts a ``fence``
token (``repro.soe.membership``): when a :class:`FencingGuard` is
installed on the node, a mutation on a leased partition must present a
current-epoch token or it raises a non-retryable ``FencedError`` — the
zombie-write gate. Guard checks run *before* the apply lock is taken,
so the lease lock and the apply lock never nest.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro.analysis.racecheck import track_fields
from repro.errors import SoeError
from repro.soe.partitions import LocalStore, PrepackagedPartition, route_row
from repro.soe.services.transaction_broker import Operation, TransactionBroker


def apply_to_partition(
    partition: PrepackagedPartition,
    operations: list[Operation],
    key_positions: Sequence[int],
    partition_count: int,
) -> int:
    """Apply one committed transaction's operations to a single detached
    partition copy (the movement catch-up path): only rows routing to this
    partition's ordinal land. Returns rows touched."""
    touched = 0
    for operation in operations:
        if operation["table"] != partition.table:
            continue
        kind = operation["op"]
        if kind == "insert":
            for row in operation["rows"]:
                target = route_row(row, key_positions, partition_count)
                if target == partition.partition_id:
                    partition.append_row(row)
                    touched += 1
        elif kind == "delete":
            touched += partition.delete_where(operation["column"], operation["value"])
        else:
            raise SoeError(f"unknown log operation {kind!r}")
    return touched


@track_fields("_ownership")
class DataNode:
    """One database node's data service state + log application logic."""

    def __init__(
        self,
        node_id: str,
        broker: TransactionBroker,
        mode: str = "olap",
    ) -> None:
        if mode not in ("oltp", "olap"):
            raise SoeError(f"unknown node mode {mode!r}")
        self.node_id = node_id
        self.broker = broker
        self.mode = mode
        self.store = LocalStore()
        #: optional membership FencingGuard; installed by
        #: SoeEngine.enable_membership(), None == legacy unfenced behaviour
        self.fencing: Any = None
        #: optional cluster handle + gateway node id for the node-local
        #: ingest path, so client traffic into this node experiences the
        #: reachability matrix on its way to the shared log
        self.cluster: Any = None
        self.gateway: str | None = None
        #: table -> (owned partition ids, key positions, partition count)
        self._ownership: dict[str, tuple[set[int], list[int], int]] = {}
        #: serialises log application: _on_commit escapes to whichever
        #: thread calls broker.submit() (RA108), so the apply path and the
        #: pull/staleness path must not interleave
        self._apply_lock = threading.Lock()
        self.applied_lsn = broker.current_lsn
        self.applies = 0
        #: (table, partition id) -> in-flight query pin count; a released
        #: partition retained for draining is freed only once unpinned
        self._pins: dict[tuple[str, int], int] = {}
        if mode == "oltp":
            broker.subscribe_oltp(self._on_commit)

    # -- ownership -----------------------------------------------------------------

    def own(
        self,
        table: str,
        partitions: list[PrepackagedPartition],
        key_positions: list[int],
        partition_count: int,
    ) -> None:
        """Install prepackaged partitions this node is responsible for."""
        # ownership changes race the apply path on an OLTP node: the
        # broker may push a commit into _on_commit mid-install (RA108)
        with self._apply_lock:
            owned = self._ownership.setdefault(
                table, (set(), list(key_positions), partition_count)
            )[0]
            for partition in partitions:
                self.store.install(partition)
                owned.add(partition.partition_id)

    def owned_partitions(self, table: str) -> set[int]:
        with self._apply_lock:
            return set(self._ownership.get(table, (set(), [], 0))[0])

    def ownership_meta(self, table: str) -> tuple[list[int], int]:
        """(key positions, partition count) of an owned table — returned
        as copies, so callers can never alias this node's routing state
        into another node (the rebalancing aliasing bug)."""
        with self._apply_lock:
            ownership = self._ownership.get(table)
            if ownership is None:
                raise SoeError(f"{self.node_id} owns nothing of {table!r}")
            return list(ownership[1]), ownership[2]

    def snapshot_partition(
        self, table: str, partition_id: int
    ) -> tuple[PrepackagedPartition, int]:
        """Clone one hosted partition at a pinned position: the copy plus
        the apply-cursor LSN it reflects, taken atomically under the apply
        lock so no commit lands between the clone and the cursor read.
        The donor keeps serving reads and applying the log afterwards —
        this is the MVCC-consistent snapshot the online mover ships."""
        with self._apply_lock:
            partition = self.store.partition(table, partition_id)
            clone = PrepackagedPartition.from_payload(partition.to_payload())
            return clone, self.applied_lsn

    def install_ownership(
        self,
        table: str,
        partition: PrepackagedPartition,
        key_positions: Sequence[int],
        partition_count: int,
        partition_lsn: int,
        fence: Any = None,
    ) -> None:
        """Install a partition copy that reflects the log up to
        ``partition_lsn`` and take ownership of it — atomically with
        respect to the apply path. On a leased partition the caller must
        present a current-epoch ``fence`` token (validated before the
        apply lock; a stale mover raises ``FencedError`` here).

        The node's apply cursor and the copy are aligned under the apply
        lock before either becomes visible: a node that lags the copy is
        caught up first (so the gap is never re-applied to the copy), and
        a copy that lags the node has the gap replayed into it alone.
        This is the ownership install-vs-apply seam — without the
        alignment, a commit in the gap is double-applied or lost.
        """
        if self.fencing is not None:
            self.fencing.check_partition(table, partition.partition_id, fence)
        with self._apply_lock:
            ownership = self._ownership.get(table)
            if ownership is not None and partition.partition_id in ownership[0]:
                raise SoeError(
                    f"{self.node_id} already owns {table}#{partition.partition_id}"
                )
            if self.applied_lsn < partition_lsn:
                # catch this node up to the copy: ops in the gap reach the
                # already-owned partitions exactly once, never the copy
                for address, operations in self.broker.read_since(self.applied_lsn):
                    if address >= partition_lsn:
                        break
                    self._apply(operations)
                    self.applied_lsn = address + 1
                self.applied_lsn = max(self.applied_lsn, partition_lsn)
            elif partition_lsn < self.applied_lsn:
                # the copy lags this node: replay the gap into the copy only
                for address, operations in self.broker.read_since(partition_lsn):
                    if address >= self.applied_lsn:
                        break
                    apply_to_partition(
                        partition, operations, key_positions, partition_count
                    )
            self.store.install(partition)
            owned = self._ownership.setdefault(
                table, (set(), list(key_positions), partition_count)
            )[0]
            owned.add(partition.partition_id)

    def release_ownership(
        self,
        table: str,
        partition_id: int,
        *,
        retain_data: bool = False,
        fence: Any = None,
    ) -> PrepackagedPartition | None:
        """Stop owning (and applying the log to) one partition.

        With ``retain_data`` the bytes stay in the local store so
        in-flight queries drain against the retained copy
        (:meth:`drop_retained` frees it once unpinned); without it the
        partition is removed and returned. A leased partition requires a
        current-epoch ``fence`` token — only the mover holding the new
        lease may strip the donor.
        """
        if self.fencing is not None:
            self.fencing.check_partition(table, partition_id, fence)
        with self._apply_lock:
            ownership = self._ownership.get(table)
            if ownership is None or partition_id not in ownership[0]:
                raise SoeError(
                    f"{self.node_id} does not own {table}#{partition_id}"
                )
            ownership[0].discard(partition_id)
            if retain_data:
                return self.store.partition(table, partition_id)
            return self.store.remove(table, partition_id)

    def drop_retained(self, table: str, partition_id: int) -> bool:
        """Free a retained (released but not yet trimmed) partition copy.
        Refuses while owned or pinned; returns whether bytes were freed."""
        with self._apply_lock:
            ownership = self._ownership.get(table)
            if ownership is not None and partition_id in ownership[0]:
                raise SoeError(
                    f"{table}#{partition_id} is still owned by {self.node_id}"
                )
            if self._pins.get((table, partition_id), 0) > 0:
                raise SoeError(
                    f"{table}#{partition_id} is pinned on {self.node_id}"
                )
            return self.store.remove(table, partition_id) is not None

    @classmethod
    def transfer_ownership(
        cls,
        donor: "DataNode",
        recipient: "DataNode",
        table: str,
        partition: PrepackagedPartition,
        *,
        partition_lsn: int,
        retain_on_donor: bool = False,
        commit: Callable[[], None] | None = None,
        fence: Any = None,
    ) -> None:
        """The locked ownership handover: install on the recipient first,
        run the ``commit`` callback (the catalog's placement swap — the
        atomic visibility flip), then release on the donor.

        Ordering is the crash-safety argument: after the install both
        nodes own a log-consistent copy (a harmless transient replica), so
        a crash at any point leaves at least one node with correct data —
        there is no remove-before-install window and no moment with zero
        owners. ``retain_on_donor`` keeps the donor's bytes for draining
        in-flight queries (the online mover's phase 4).

        ``fence`` is the new-epoch token the mover acquired before the
        flip; it is validated at every step of the handover (install,
        swap, release), so a mover resumed at a stale epoch cannot move
        ownership anywhere.
        """
        key_positions, partition_count = donor.ownership_meta(table)
        recipient.install_ownership(
            table, partition, key_positions, partition_count, partition_lsn,
            fence=fence,
        )
        if commit is not None:
            commit()
        donor.release_ownership(
            table, partition.partition_id, retain_data=retain_on_donor,
            fence=fence,
        )

    # -- client writes -------------------------------------------------------------

    def ingest(self, table: str, rows: list[list[Any]], fence: Any = None) -> int:
        """Client rows served directly by this node (the paper's OLTP
        node updating its partitions in place) — the path a zombie owner
        keeps serving after a partition. Returns rows acknowledged.

        With a fencing guard installed and enabled, the write is
        epoch-checked and committed **write-through** via the shared log
        (routed over the cluster so an isolated node cannot reach it):
        a fenced, expired, or unreachable holder never acknowledges, so
        no acknowledged row can be stranded on a copy the catalog has
        moved away from. Without a guard the rows are applied to the
        local copy only — the undisciplined split-brain path the
        membership layer exists to close (bench E29's unfenced arm).
        """
        operation = make_insert(table, rows)
        guard = self.fencing
        if guard is not None and guard.enabled:
            guard.check_write(operation, fence)
            if self.cluster is not None and self.gateway is not None:
                from repro.soe.cluster import approx_row_bytes

                payload = sum(approx_row_bytes(row) for row in rows)
                # may raise NetworkPartitionedError: an isolated node
                # cannot commit, so the client is told "unavailable",
                # never "acknowledged"
                self.cluster.transfer(self.node_id, self.gateway, payload)
            self.broker.submit([operation], fence=fence)
            return len(rows)
        with self._apply_lock:
            ownership = self._ownership.get(table)
            if ownership is None:
                raise SoeError(f"{self.node_id} owns nothing of {table!r}")
            owned, key_positions, partition_count = ownership
            targets = [
                route_row(row, key_positions, partition_count) for row in rows
            ]
            for target in targets:
                if target not in owned:
                    raise SoeError(
                        f"{self.node_id} does not own {table}#{target}"
                    )
            for row, target in zip(rows, targets):
                self.store.partition(table, target).append_row(row)
                self.applies += 1
        return len(rows)

    # -- query pins ----------------------------------------------------------------

    def pin_partition(self, table: str, partition_id: int) -> None:
        """Mark one partition as read by an in-flight query: a released
        copy retained for draining cannot be freed while pinned."""
        with self._apply_lock:
            key = (table, partition_id)
            self._pins[key] = self._pins.get(key, 0) + 1

    def unpin_partition(self, table: str, partition_id: int) -> None:
        with self._apply_lock:
            key = (table, partition_id)
            count = self._pins.get(key, 0)
            if count <= 1:
                self._pins.pop(key, None)
            else:
                self._pins[key] = count - 1

    def pin_count(self, table: str, partition_id: int) -> int:
        with self._apply_lock:
            return self._pins.get((table, partition_id), 0)

    @contextmanager
    def pinned(self, table: str | None, partition_ids: Sequence[int]) -> Iterator[None]:
        """Pin a task's partitions for the duration of its execution."""
        if not table or not partition_ids:
            yield
            return
        for partition_id in partition_ids:
            self.pin_partition(table, partition_id)
        try:
            yield
        finally:
            for partition_id in partition_ids:
                self.unpin_partition(table, partition_id)

    # -- log application --------------------------------------------------------------

    def _on_commit(self, address: int, operations: list[Operation]) -> None:
        # OLTP path: called synchronously by the broker, on the submitting
        # thread — serialise against a concurrent catch_up()
        with self._apply_lock:
            self._apply(operations)
            self.applied_lsn = address + 1

    def catch_up(self, to_lsn: int | None = None) -> int:
        """OLAP path: pull and apply the log suffix; returns txns applied."""
        target = to_lsn if to_lsn is not None else self.broker.current_lsn
        applied = 0
        with self._apply_lock:
            for address, operations in self.broker.read_since(self.applied_lsn):
                if address >= target:
                    break
                self._apply(operations)
                self.applied_lsn = address + 1
                applied += 1
        return applied

    def staleness(self) -> int:
        """Committed transactions this node has not applied yet."""
        with self._apply_lock:
            return self.broker.current_lsn - self.applied_lsn

    def _apply(self, operations: list[Operation]) -> None:
        for operation in operations:
            table = operation["table"]
            ownership = self._ownership.get(table)
            if ownership is None:
                continue
            owned, key_positions, partition_count = ownership
            kind = operation["op"]
            if kind == "insert":
                for row in operation["rows"]:
                    target = route_row(row, key_positions, partition_count)
                    if target in owned:
                        self.store.partition(table, target).append_row(row)
                        self.applies += 1
            elif kind == "delete":
                for partition in self.store.partitions_of(table):
                    if partition.partition_id in owned:
                        self.applies += partition.delete_where(
                            operation["column"], operation["value"]
                        )
            else:
                raise SoeError(f"unknown log operation {kind!r}")


def make_insert(table: str, rows: list[list[Any]]) -> Operation:
    """Log-record helper for inserts."""
    return {"op": "insert", "table": table, "rows": rows}


def make_delete(table: str, column: str, value: Any) -> Operation:
    """Log-record helper for key deletes."""
    return {"op": "delete", "table": table, "column": column, "value": value}
