"""Smart Data Access: federation via virtual tables (Figure 2/4 "SDA").

"A comprehensive federation framework (SDA = smart data access) in order
to reach out to a huge variety of external data sources." A remote source
is registered under a name; :meth:`SmartDataAccess.create_virtual_table`
then exposes one of its tables in the local catalog. Virtual tables plug
into the ordinary SQL executor (they answer the row-store scan protocol),
and sources that advertise filter pushdown receive the scan's simple
conjuncts so only qualifying rows travel.

For aggregation pushdown — the big win of the federated approach
(§IV.C) — :meth:`SmartDataAccess.pushdown_aggregate` sends the whole
grouped aggregation to capable sources and returns only the result rows;
benchmark E9 compares it against shipping the raw virtual table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol

from repro import obs
from repro.core.schema import TableSchema
from repro.errors import FederationError
from repro.soe.cluster import approx_values_bytes
from repro.util.retry import RetryPolicy, SimulatedClock

FilterTriple = tuple[str, str, Any]  # (column, op, literal)


class RemoteSource(Protocol):
    """What an SDA adapter must provide."""

    name: str

    def table_schema(self, remote_table: str) -> TableSchema: ...

    def scan(
        self, remote_table: str, filters: list[FilterTriple] | None = None
    ) -> list[list[Any]]: ...

    def capabilities(self) -> set[str]: ...


@dataclass
class TransferLedger:
    """Rows/bytes that crossed the federation boundary."""

    rows: int = 0
    bytes: int = 0

    def record(self, rows: list[list[Any]]) -> None:
        self.rows += len(rows)
        payload = sum(map(approx_values_bytes, rows))
        self.bytes += payload
        obs.count("federation.rows_shipped", len(rows))
        obs.count("federation.bytes_shipped", payload)


def _remote(
    source_name: str, fn: Any, retry_policy: RetryPolicy, clock: SimulatedClock, breaker: Any
) -> list[list[Any]]:
    """One remote call: through the source's circuit breaker, when it has
    one, under the bounded retry policy."""
    if breaker is not None:
        wrapped = fn
        fn = lambda: breaker.call(wrapped)  # noqa: E731
    return retry_policy.call(
        fn,
        clock=clock,
        on_retry=lambda _attempt, _exc: obs.count(
            "federation.retries", source=source_name.lower()
        ),
    )


class VirtualTable:
    """A catalog object backed by a remote source (row-store protocol).

    Remote calls run under a bounded :class:`RetryPolicy` — a transient
    source outage (``RemoteSourceUnavailableError``, e.g. injected by
    repro.chaos) is retried with backoff on the simulated clock and
    counted into ``federation.retries``; a persistent outage surfaces as
    the original :class:`~repro.errors.FederationError` subtype.
    """

    def __init__(
        self,
        name: str,
        source: RemoteSource,
        remote_table: str,
        ledger: TransferLedger,
        retry_policy: RetryPolicy | None = None,
        clock: SimulatedClock | None = None,
        breaker: Any = None,
    ) -> None:
        self.name = name
        self.source = source
        self.remote_table = remote_table
        self.schema = source.table_schema(remote_table)
        self.ledger = ledger
        self.retry_policy = retry_policy or RetryPolicy()
        self.clock = clock or SimulatedClock()
        #: optional repro.qos CircuitBreaker for this source; open means
        #: scans fail fast (CircuitOpenError) with zero retry attempts
        self.breaker = breaker
        self.is_virtual = True

    def scan(self, snapshot_cid: int, own_tid: int = 0) -> list[list[Any]]:
        """Full remote scan (the executor's row-store protocol)."""
        return self.scan_with_filters([])

    def scan_with_filters(self, filters: list[FilterTriple]) -> list[list[Any]]:
        """Scan with pushed-down filters when the source supports it."""
        pushed = filters if filters and "filter" in self.source.capabilities() else None
        rows = _remote(
            self.source.name,
            lambda: self.source.scan(self.remote_table, pushed),
            self.retry_policy,
            self.clock,
            self.breaker,
        )
        self.ledger.record(rows)
        return rows

    def __len__(self) -> int:
        return 0  # size unknown without a remote call


class SmartDataAccess:
    """The federation frontend attached to one database."""

    def __init__(
        self,
        database: Any,
        retry_policy: RetryPolicy | None = None,
        clock: SimulatedClock | None = None,
        breaker_config: Any = None,
    ) -> None:
        self.database = database
        self._sources: dict[str, RemoteSource] = {}
        self.ledger = TransferLedger()
        self.retry_policy = retry_policy or RetryPolicy()
        self.clock = clock or SimulatedClock()
        #: a repro.qos BreakerConfig enables per-source circuit breakers
        #: on every remote call (scan, aggregate/SQL pushdown)
        self.breaker_config = breaker_config
        self.breakers: dict[str, Any] = {}

    def breaker_for(self, source_name: str) -> Any:
        """The source's circuit breaker (lazily created), or ``None``
        when federation breakers are not configured."""
        if self.breaker_config is None:
            return None
        key = source_name.lower()
        breaker = self.breakers.get(key)
        if breaker is None:
            from repro.qos.breaker import CircuitBreaker

            breaker = CircuitBreaker(
                f"sda.{key}", self.breaker_config, clock=self.clock
            )
            self.breakers[key] = breaker
        return breaker

    # -- sources ---------------------------------------------------------------

    def register_source(self, source: RemoteSource) -> None:
        key = source.name.lower()
        if key in self._sources:
            raise FederationError(f"source {source.name!r} already registered")
        self._sources[key] = source

    def source(self, name: str) -> RemoteSource:
        try:
            return self._sources[name.lower()]
        except KeyError:
            raise FederationError(f"unknown source {name!r}") from None

    def sources(self) -> list[str]:
        return sorted(self._sources)

    # -- virtual tables ----------------------------------------------------------

    def create_virtual_table(
        self, local_name: str, source_name: str, remote_table: str
    ) -> VirtualTable:
        source = self.source(source_name)
        virtual = VirtualTable(
            local_name.lower(),
            source,
            remote_table,
            self.ledger,
            retry_policy=self.retry_policy,
            clock=self.clock,
            breaker=self.breaker_for(source_name),
        )
        self.database.catalog.register_table(virtual)
        return virtual

    # -- pushdown ------------------------------------------------------------------

    def pushdown_aggregate(
        self,
        source_name: str,
        remote_table: str,
        group_by: list[str],
        aggregates: list[tuple[str, str | None]],
        filters: list[FilterTriple] | None = None,
    ) -> list[list[Any]]:
        """Execute the aggregation at the source; ship only results."""
        source = self.source(source_name)
        if "aggregate" not in source.capabilities():
            raise FederationError(
                f"source {source_name!r} cannot push down aggregation"
            )
        obs.count("federation.pushdowns", kind="aggregate", source=source_name.lower())
        with obs.latency("federation.pushdown_seconds", source=source_name.lower()):
            rows = _remote(
                source_name,
                lambda: source.aggregate(  # type: ignore[attr-defined]
                    remote_table, group_by, aggregates, filters or []
                ),
                self.retry_policy,
                self.clock,
                self.breaker_for(source_name),
            )
        self.ledger.record(rows)
        return rows

    def pushdown_sql(self, source_name: str, sql: str) -> list[list[Any]]:
        """Ship a whole SQL statement to a SQL-capable source."""
        source = self.source(source_name)
        if "sql" not in source.capabilities():
            raise FederationError(f"source {source_name!r} cannot execute SQL")
        obs.count("federation.pushdowns", kind="sql", source=source_name.lower())
        with obs.latency("federation.pushdown_seconds", source=source_name.lower()):
            rows = _remote(
                source_name,
                lambda: source.execute_sql(sql),  # type: ignore[attr-defined]
                self.retry_policy,
                self.clock,
                self.breaker_for(source_name),
            )
        self.ledger.record(rows)
        return rows
