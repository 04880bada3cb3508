"""Exception hierarchy for the repro data-management ecosystem.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch one base class. Sub-hierarchies mirror the major
subsystems (catalog, SQL, transactions, storage, scale-out, Hadoop).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class RetryableError(Exception):
    """Mixin marking an error as *transient*: a bounded retry (with backoff)
    may clear it — the node can revive, the message can be resent, the log
    can reopen. Retry policy is type-driven (``except RetryableError``),
    never matched on message strings; combine it with the subsystem error
    (e.g. ``class TransferDroppedError(ClusterError, RetryableError)``) so
    existing ``except ClusterError`` handlers keep working."""


class CatalogError(ReproError):
    """Schema/catalog level problem (unknown or duplicate object)."""


class TableNotFoundError(CatalogError):
    """A referenced table does not exist in the catalog."""

    def __init__(self, name: str) -> None:
        super().__init__(f"table not found: {name!r}")
        self.name = name


class ColumnNotFoundError(CatalogError):
    """A referenced column does not exist on the table."""

    def __init__(self, table: str, column: str) -> None:
        super().__init__(f"column not found: {table!r}.{column!r}")
        self.table = table
        self.column = column


class DuplicateObjectError(CatalogError):
    """Attempt to create an object whose name is already taken."""


class SchemaError(CatalogError):
    """Row shape or value does not match the table schema."""


class TypeMismatchError(SchemaError):
    """A value cannot be coerced to the declared column type."""


class DuplicateKeyError(SchemaError):
    """A live row already holds the primary key being inserted. Not
    retryable: the same statement fails the same way until the data
    changes (a key held by another *open* transaction is a
    :class:`WriteConflictError` instead)."""


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class PlanError(SqlError):
    """The statement parsed but no valid plan could be produced."""


class ExpressionError(SqlError):
    """An expression could not be evaluated (bad types, unknown function)."""


class TransactionError(ReproError):
    """Base class for transaction-management errors."""


class TransactionAbortedError(TransactionError):
    """The transaction was rolled back (conflict, deadlock, explicit)."""


class WriteConflictError(TransactionAbortedError):
    """First-committer-wins conflict between concurrent writers."""


class InvalidTransactionStateError(TransactionError):
    """Operation not legal in the transaction's current state."""


class StorageError(ReproError):
    """Column/row store level failure."""


class PersistenceError(StorageError):
    """Savepoint, redo-log, or recovery failure."""


class PartitionError(StorageError):
    """Invalid partitioning specification or partition routing failure."""


class AgingError(ReproError):
    """Data-aging rule problem (e.g. cyclic rule dependencies)."""


class EngineError(ReproError):
    """Base class for the specialised data-processing engines."""


class TextEngineError(EngineError):
    """Text/search engine failure."""


class GraphEngineError(EngineError):
    """Graph or hierarchy engine failure."""


class GeoError(EngineError):
    """Geospatial engine failure (bad WKT, invalid geometry)."""


class TimeSeriesError(EngineError):
    """Time-series engine failure."""


class ScientificError(EngineError):
    """Scientific (linear algebra) engine failure."""


class PlanningError(EngineError):
    """Planning-extension failure (disaggregation, versions)."""


class SoeError(ReproError):
    """Base class for Scale-Out Extension errors."""


class ClusterError(SoeError):
    """Cluster membership / service orchestration failure."""


class MoveError(ClusterError):
    """Online partition movement failed. Failures in any pre-flip phase
    roll back completely (the donor stays authoritative, the recipient's
    staging copy is garbage-collected); post-flip failures roll forward."""


class MoveAbortedError(MoveError):
    """A move was aborted and rolled back; the donor remains the sole
    catalog owner of the partition."""


class NodeUnavailableError(ClusterError, RetryableError):
    """A node is (currently) down — a replica or a later retry may serve."""

    def __init__(self, node_id: str, message: str | None = None) -> None:
        super().__init__(message or f"node {node_id} is down")
        self.node_id = node_id


class TransferDroppedError(ClusterError, RetryableError):
    """A simulated network transfer was dropped (chaos); resend to clear."""


class NetworkPartitionedError(TransferDroppedError):
    """The directed link between two nodes is cut by a network partition:
    the message is dropped, not delayed. Retryable with backoff — the
    partition may heal — and a ``TransferDroppedError``, so every resend
    path (coordinator, mover, broker heartbeats) already handles it."""

    def __init__(self, source: str, target: str, message: str | None = None) -> None:
        super().__init__(
            message or f"link {source} -> {target} is partitioned"
        )
        self.source = source
        self.target = target


class MembershipError(ClusterError):
    """Membership/lease protocol misuse (unknown lease, premature fencing
    of an unreachable-but-unexpired holder, bad detector wiring)."""


class FencedError(MembershipError):
    """A writer presented a stale-epoch (or missing, or revoked) fence
    token on an ownership-mutating path. Deliberately *not* retryable —
    it punches through :class:`~repro.util.retry.RetryPolicy` exactly
    like ``CircuitOpenError``: the epoch has moved on, and re-running the
    same write re-presents the same stale token. The only recovery is to
    re-acquire a current lease (a new decision, not a retry)."""


class LeaseExpiredError(FencedError):
    """The fence token's lease TTL elapsed on the simulated clock before
    the write. Still non-retryable: an expired holder must *renew* (and
    may discover it was superseded), never blind-retry the write."""


class LogError(SoeError):
    """Distributed shared-log failure (hole, trimmed address, seal)."""


class LogStallError(LogError, RetryableError):
    """The shared log momentarily cannot accept appends; retry with backoff."""


class LogSealedError(LogError, RetryableError):
    """A segment is sealed (reconfiguration fence); reopen, then retry."""


class CoordinationError(SoeError):
    """Distributed query coordination failure."""


class DeadlineExceededError(CoordinationError):
    """The per-query deadline elapsed on the simulated clock (terminal —
    deliberately *not* retryable: the budget is spent)."""


class ChaosError(ReproError):
    """Invalid fault plan or chaos-controller misuse."""


class QosError(ReproError):
    """Base class for overload-protection (repro.qos) errors."""


class AdmissionRejectedError(QosError, RetryableError):
    """The admission controller shed this query (queue past its
    high-water mark, or a hotspot placement penalty). Retryable by
    design: backing off and resubmitting is the intended client
    response to load shedding."""

    def __init__(self, query_class: str, reason: str, message: str | None = None) -> None:
        super().__init__(
            message
            or f"admission rejected ({reason}) for class {query_class!r}"
        )
        self.query_class = query_class
        self.reason = reason


class BudgetExceededError(QosError):
    """A query blew through its hard resource budget (rows, bytes, or
    operator seconds). Terminal — deliberately *not* retryable: re-running
    the same query spends the same budget again."""


class CircuitOpenError(QosError):
    """The circuit breaker guarding this seam is open: recent calls
    failed past the threshold and the cool-down has not elapsed. Fail
    fast — deliberately *not* retryable, so retry loops cannot burn
    backoff budget against a seam known to be down."""

    def __init__(self, breaker: str, message: str | None = None) -> None:
        super().__init__(message or f"circuit breaker {breaker!r} is open")
        self.breaker = breaker


class HadoopError(ReproError):
    """Base class for the simulated Hadoop substrate."""


class HdfsError(HadoopError):
    """HDFS namespace or block-storage failure."""


class MapReduceError(HadoopError):
    """MapReduce job failure."""


class YarnError(HadoopError):
    """Resource-manager failure (no capacity, unknown application)."""


class FederationError(ReproError):
    """Smart-Data-Access / remote source failure."""


class RemoteSourceUnavailableError(FederationError, RetryableError):
    """A federated source is temporarily unreachable."""


class StreamingError(ReproError):
    """Event-stream-processor failure."""


class BackpressureError(StreamingError, RetryableError):
    """A bounded stream buffer with the ``block`` policy is full: the
    producer must pump the pipeline (drain downstream) before offering
    more events. Retryable — draining clears it."""
