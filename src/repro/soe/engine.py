"""The SOE facade: deploy a whole scale-out landscape in one call.

Wires together every Figure 3 component — cluster, shared log, transaction
broker (v2transact), catalog + data discovery (v2catalog), discovery/auth
(v2disc&auth), query/data services (v2lqp), coordinator (v2dqp), cluster
manager + statistics (v2clustermgr / v2stats) — and exposes the user-level
operations: create table, bulk import (prepackaged partitions), insert
through the log, aggregate and join queries with strategy and consistency
choices.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import SoeError
from repro.soe.cluster import NetworkModel, SimulatedCluster
from repro.soe.partitions import hash_partition_rows
from repro.soe.replication import DataNode, make_delete, make_insert
from repro.soe.services.catalog_service import CatalogService, SoeTableMeta
from repro.soe.services.cluster_manager import (
    ClusterManager,
    ClusterStatisticsService,
)
from repro.soe.services.coordinator import (
    AggregateQuery,
    Coordinator,
    JoinQuery,
    PlanCost,
)
from repro.soe.services.discovery import AuthorizationService, DiscoveryService
from repro.soe.services.query_service import QueryService
from repro.soe.services.shared_log import SharedLog
from repro.soe.services.transaction_broker import TransactionBroker
from repro.soe.tasks import AggregateSpec, Filter
from repro.util.retry import RetryPolicy, SimulatedClock


class SoeEngine:
    """One deployed SOE landscape."""

    def __init__(
        self,
        node_count: int = 4,
        node_modes: Sequence[str] | str = "olap",
        log_stripes: int = 2,
        log_replication: int = 2,
        replication: int = 1,
        network: NetworkModel | None = None,
        log_store_factory: Any = None,
        chaos: Any = None,
        retry_policy: RetryPolicy | None = None,
        failover: bool = True,
        staleness_bound: int = 0,
        deadline_seconds: float | None = None,
        breaker_config: Any = None,
    ) -> None:
        if node_count < 1:
            raise SoeError("need at least one node")
        self.cluster = SimulatedCluster(network=network or NetworkModel())
        self.log = SharedLog(
            stripes=log_stripes,
            replication=log_replication,
            store_factory=log_store_factory,
        )
        #: optional repro.chaos.ChaosController; every retry/backoff in the
        #: landscape shares its simulated clock so recovery is replayable
        self.chaos = chaos
        self.clock = chaos.clock if chaos is not None else SimulatedClock()
        policy = retry_policy or RetryPolicy()
        #: shared by broker/coordinator and the movement factories below
        self._retry_policy = policy
        #: a repro.qos BreakerConfig arms circuit breakers on the two SOE
        #: overload seams: cluster transfer and shared-log append
        self.breakers: dict[str, Any] = {}
        if breaker_config is not None:
            from repro.qos.breaker import CircuitBreaker

            self.breakers["soe.transfer"] = CircuitBreaker(
                "soe.transfer", breaker_config, clock=self.clock
            )
            self.breakers["soe.log_append"] = CircuitBreaker(
                "soe.log_append", breaker_config, clock=self.clock
            )
        self.broker = TransactionBroker(
            self.log,
            retry_policy=policy,
            clock=self.clock,
            breaker=self.breakers.get("soe.log_append"),
        )
        self.catalog = CatalogService()
        self.discovery = DiscoveryService()
        #: installed by enable_membership(); None ⇒ legacy (unfenced) mode
        self.membership: Any = None
        self.auth = AuthorizationService()
        self.stats = ClusterStatisticsService(cluster=self.cluster)
        self.manager = ClusterManager(
            self.cluster, self.catalog, self.discovery, self.stats
        )
        self.replication = replication

        modes = (
            [node_modes] * node_count
            if isinstance(node_modes, str)
            else list(node_modes)
        )
        if len(modes) != node_count:
            raise SoeError("node_modes length must equal node_count")

        coordinator_node = self.cluster.add_node("coordinator")
        self.coordinator = Coordinator(
            node_id=coordinator_node.node_id,
            cluster=self.cluster,
            catalog=self.catalog,
            broker=self.broker,
            retry_policy=policy,
            clock=self.clock,
            failover=failover,
            staleness_bound=staleness_bound,
            deadline_seconds=deadline_seconds,
            transfer_breaker=self.breakers.get("soe.transfer"),
        )
        coordinator_node.host("v2dqp", self.coordinator)
        self.discovery.announce("v2dqp", coordinator_node.node_id)
        coordinator_node.host("v2transact", self.broker)
        self.discovery.announce("v2transact", coordinator_node.node_id)
        coordinator_node.host("v2catalog", self.catalog)
        self.discovery.announce("v2catalog", coordinator_node.node_id)
        coordinator_node.host("v2disc&auth", (self.discovery, self.auth))
        coordinator_node.host("v2clustermgr", self.manager)

        self.data_nodes: dict[str, DataNode] = {}
        for index in range(node_count):
            node = self.cluster.add_node(f"worker{index}")
            data_node = DataNode(node.node_id, self.broker, mode=modes[index])
            service = QueryService(node.node_id, data_node)
            self.manager.start_service(node.node_id, "v2lqp", service)
            self.coordinator.register_query_service(service)
            self.data_nodes[node.node_id] = data_node

        # dead-node leakage fix: the cluster tells discovery about
        # membership transitions, so kill() immediately withdraws every
        # announcement of the dead node and revive() restores them
        self.cluster.notify_membership(
            self.discovery.mark_failed, self.discovery.restore
        )

        if chaos is not None:
            chaos.install(cluster=self.cluster, log=self.log)

    # -- membership & fencing -----------------------------------------------------

    def enable_membership(
        self,
        *,
        ttl_seconds: float = 0.05,
        suspect_after: float = 0.02,
        dead_after: float = 0.06,
        heartbeat_interval: float = 0.01,
        enforce: bool = True,
        journal: Any = None,
    ) -> Any:
        """Turn on partition-tolerant membership for this landscape.

        Creates the :class:`~repro.soe.membership.MembershipService`
        (failure detector + epoch-numbered ownership leases), installs
        its :class:`~repro.soe.membership.FencingGuard` on every
        ownership-mutating seam — broker submits, shared-log appends,
        catalog placement swaps, data-node ownership changes and ingest
        — watches every worker, and grants epoch-1 leases for every
        already-placed partition. ``enforce=False`` builds the whole
        apparatus but leaves the guard disabled (the bench's split-brain
        arm). Call again after new tables load to bootstrap their
        leases, or use ``self.membership.bootstrap(table)`` directly.
        """
        from repro.soe.membership import MembershipService

        membership = self.membership
        if membership is None:
            membership = MembershipService(
                self.cluster,
                self.catalog,
                self.clock,
                coordinator=self.coordinator.node_id,
                ttl_seconds=ttl_seconds,
                suspect_after=suspect_after,
                dead_after=dead_after,
                heartbeat_interval=heartbeat_interval,
                enforce=enforce,
                journal=journal,
                discovery=self.discovery,
            )
            self.membership = membership
            self.broker.fencing = membership.guard
            self.log.fencing = membership.guard
            self.catalog.fencing = membership.guard
            for node_id, data_node in sorted(self.data_nodes.items()):
                data_node.fencing = membership.guard
                data_node.cluster = self.cluster
                data_node.gateway = self.coordinator.node_id
                membership.detector.watch(node_id)
        for table in self.catalog.tables():
            membership.bootstrap(table)
        return membership

    # -- DDL / load ---------------------------------------------------------------

    @property
    def worker_ids(self) -> list[str]:
        return sorted(self.data_nodes)

    def create_table(
        self,
        name: str,
        columns: Sequence[str],
        key_columns: Sequence[str],
        partition_count: int | None = None,
    ) -> SoeTableMeta:
        """Register a hash-partitioned SOE table."""
        if partition_count is None:
            partition_count = 2 * len(self.data_nodes)
        meta = SoeTableMeta(
            name=name.lower(),
            columns=[c.lower() for c in columns],
            key_columns=[c.lower() for c in key_columns],
            partition_count=partition_count,
        )
        self.catalog.register_table(meta)
        return meta

    def load(self, table: str, rows: Sequence[Sequence[Any]]) -> int:
        """Bulk import: build prepackaged partitions and distribute them
        round-robin (with ``replication`` replicas per partition)."""
        meta = self.catalog.table(table.lower())
        partitions = hash_partition_rows(
            rows, meta.columns, meta.key_positions, meta.partition_count, meta.name
        )
        workers = self.worker_ids
        for partition in partitions:
            for replica in range(self.replication):
                node_id = workers[(partition.partition_id + replica) % len(workers)]
                clone_payload = partition.to_payload()
                from repro.soe.partitions import PrepackagedPartition

                clone = PrepackagedPartition.from_payload(clone_payload)
                self.data_nodes[node_id].own(
                    meta.name, [clone], meta.key_positions, meta.partition_count
                )
                self.catalog.place_partition(meta.name, partition.partition_id, node_id)
        return len(rows)

    # -- writes through the log ---------------------------------------------------------

    def insert(self, table: str, rows: list[list[Any]], via: str | None = None) -> int:
        """Commit an insert transaction via the broker; returns its LSN.

        With membership enabled the write carries fence tokens: the
        front door (``via=None``) presents the coordinator's *current*
        lease view, while ``via=<worker>`` models a client whose write
        enters at that worker — the hop to the gateway is charged to the
        network (so a partitioned worker cannot even reach the broker)
        and the tokens presented are what that worker *believes* it
        holds, which is exactly where a healed zombie gets fenced."""
        name = table.lower()
        self.catalog.table(name)
        operation = make_insert(name, rows)
        if self.membership is None:
            return self.broker.submit([operation])
        if via is None:
            fence = self.membership.current_tokens(name)
        else:
            from repro.soe.cluster import approx_row_bytes

            payload = sum(approx_row_bytes(row) for row in rows)
            self.cluster.transfer(via, self.coordinator.node_id, payload)
            fence = self.membership.cached_tokens(via, name)
        return self.broker.submit([operation], fence=fence)

    def delete(self, table: str, column: str, value: Any) -> int:
        """Commit a delete-by-value transaction; returns its LSN."""
        name = table.lower()
        self.catalog.table(name)
        fence = (
            self.membership.current_tokens(name)
            if self.membership is not None
            else None
        )
        return self.broker.submit([make_delete(name, column, value)], fence=fence)

    def catch_up_all(self) -> int:
        """Force every OLAP node to apply the full log."""
        return sum(
            node.catch_up()
            for node in self.data_nodes.values()
            if node.mode == "olap"
        )

    # -- queries ---------------------------------------------------------------------------

    def aggregate(
        self,
        table: str,
        group_by: Sequence[str] = (),
        aggregates: Sequence[tuple[str, str | None]] = (("count", None),),
        filters: Sequence[tuple[str, str, Any]] = (),
        consistency: str = "eventual",
    ) -> tuple[list[list[Any]], PlanCost]:
        query = AggregateQuery(
            table=table.lower(),
            group_by=tuple(c.lower() for c in group_by),
            aggregates=tuple(AggregateSpec(op, col and col.lower()) for op, col in aggregates),
            filters=tuple(Filter(column.lower(), op, value) for column, op, value in filters),
            consistency=consistency,
        )
        return self.coordinator.run_aggregate(query)

    def join(
        self,
        fact_table: str,
        dim_table: str,
        fact_key: str,
        dim_key: str,
        group_column: str,
        aggregates: Sequence[tuple[str, str | None]],
        strategy: str = "auto",
        consistency: str = "eventual",
    ) -> tuple[list[list[Any]], PlanCost]:
        query = JoinQuery(
            fact_table=fact_table.lower(),
            dim_table=dim_table.lower(),
            fact_key=fact_key.lower(),
            dim_key=dim_key.lower(),
            group_column=group_column.lower(),
            aggregates=tuple(AggregateSpec(op, col and col.lower()) for op, col in aggregates),
            strategy=strategy,
            consistency=consistency,
        )
        return self.coordinator.run_join(query)

    # -- online data movement -----------------------------------------------------------------

    def make_mover(self, governor: Any = None, **kwargs: Any) -> Any:
        """A :class:`~repro.soe.movement.PartitionMover` wired to this
        landscape (shared clock, retry policy, transfer breaker, chaos)."""
        from repro.soe.movement import PartitionMover

        return PartitionMover(
            cluster=self.cluster,
            catalog=self.catalog,
            broker=self.broker,
            data_nodes=self.data_nodes,
            clock=self.clock,
            retry_policy=self._retry_policy,
            transfer_breaker=self.breakers.get("soe.transfer"),
            chaos=self.chaos,
            governor=governor,
            membership=kwargs.pop("membership", self.membership),
            **kwargs,
        )

    def make_rebalancer(self, mover: Any = None, **kwargs: Any) -> Any:
        """An :class:`~repro.soe.movement.AutoRebalancer` consuming this
        landscape's v2stats hotspot signal."""
        from repro.soe.movement import AutoRebalancer

        return AutoRebalancer(
            mover=mover or self.make_mover(),
            stats=self.stats,
            catalog=self.catalog,
            cluster=self.cluster,
            **kwargs,
        )

    # -- monitoring ---------------------------------------------------------------------------

    def statistics(self) -> dict[str, Any]:
        """The landscape's monitoring snapshot."""
        return {
            "nodes": len(self.cluster.nodes),
            "log_tail": self.log.tail,
            "log_stripes": self.log.stripe_lengths(),
            "transactions": self.broker.transactions,
            "network": self.cluster.stats.snapshot(),
            "stats": self.stats.snapshot(),
            "staleness": {
                node_id: node.staleness() for node_id, node in self.data_nodes.items()
            },
        }
