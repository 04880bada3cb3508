"""v2dqp: the distributed query coordinator (§IV.B, Figure 3).

**Role in the query path:** the SOE entry point for distributed reads —
a client's aggregate/join query arrives here, becomes a task DAG, and
fans out to the v2lqp query services before partial results merge back.

Translates a query into one task DAG (see :mod:`repro.soe.tasks`) and then
only plans, ships and merges: column names are resolved against the catalog
before a task exists, worker tasks run on the query services (rows are
filtered, joined and reduced there, by the operator kernels shared with the
core executor, :mod:`repro.sql.kernels`), every edge between nodes is
charged to the cluster's network model at the size the shipped result
reports for itself, and the DAG's last task merges the partial states here
— the same grouped reduction once more. "These plans can lead to strong
speedup results compared to single machine execution ... if the plans are
specifically tailored for a clustered execution in combination with
efficient communication algorithms" [13] — hence the three join strategies (broadcast,
repartition, co-located): the same ``build_hash`` → ``join_partial``
tasks, differing only in who ships what to whom, whose communication
volumes benchmark E7 compares.

**Observability:** every distributed plan runs inside
:meth:`Coordinator._execute`, the single place where ``PlanCost.wall_seconds``
is measured (via :func:`repro.obs.timed`) and where per-strategy request
counters and latency histograms feed v2stats — wall-time accounting
cannot drift between the aggregate and the three join code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro import obs
from repro.errors import (
    CoordinationError,
    DeadlineExceededError,
    NodeUnavailableError,
    RetryableError,
    TransferDroppedError,
)
from repro.soe.cluster import SimulatedCluster
from repro.soe.services.catalog_service import CatalogService
from repro.soe.services.query_service import QueryService
from repro.soe.services.transaction_broker import TransactionBroker
from repro.soe.tasks import AggregateSpec, Filter, GroupStates, HashTable, TaskDag
from repro.util.retry import RetryPolicy, SimulatedClock


@dataclass(frozen=True)
class AggregateQuery:
    """Scan + filter + group-by aggregation over one SOE table."""

    table: str
    group_by: tuple[str, ...] = ()
    aggregates: tuple[AggregateSpec, ...] = ()
    filters: tuple[Filter, ...] = ()
    consistency: str = "eventual"  # "eventual" | "strong"


@dataclass(frozen=True)
class JoinQuery:
    """Fact ⋈ dim with aggregation grouped by a dim column."""

    fact_table: str
    dim_table: str
    fact_key: str
    dim_key: str
    group_column: str            # on the dim table
    aggregates: tuple[AggregateSpec, ...]
    strategy: str = "auto"       # auto | broadcast | repartition | colocated
    consistency: str = "eventual"

    @property
    def group_by(self) -> tuple[str, ...]:
        return (self.group_column,)


@dataclass
class PlanCost:
    """What a distributed plan cost."""

    bytes_shipped: int = 0
    messages: int = 0
    simulated_network_seconds: float = 0.0
    wall_seconds: float = 0.0
    tasks: int = 0
    strategy: str = ""
    #: transient-failure recoveries charged to this plan (resends + re-runs)
    retries: int = 0
    #: partition reads served by a replica because the primary was down
    failovers: int = 0
    #: True when any partition was served by a replica that still lagged
    #: the log (within the coordinator's staleness bound)
    degraded: bool = False
    #: how many times the plan was re-optimized mid-query — strategy-body
    #: re-plans against fresh cluster state (mirrors the SQL path's
    #: ``QueryResult.reoptimizations``; see docs/OPTIMIZER.md)
    reoptimizations: int = 0

    def as_dict(self) -> dict[str, float | str]:
        return {
            "bytes_shipped": float(self.bytes_shipped),
            "messages": float(self.messages),
            "simulated_network_seconds": self.simulated_network_seconds,
            "wall_seconds": self.wall_seconds,
            "tasks": float(self.tasks),
            "strategy": self.strategy,
            "retries": float(self.retries),
            "failovers": float(self.failovers),
            "degraded": float(self.degraded),
            "reoptimizations": float(self.reoptimizations),
        }


@dataclass
class Coordinator:
    """The v2dqp service instance.

    **Failure awareness:** every plan runs under
    :meth:`_recover` — a transient failure (dead node, dropped transfer,
    chaos crash) triggers a bounded re-plan-and-retry with exponential
    backoff charged to the *simulated* clock. Re-planning recomputes
    :meth:`_assignments` against current liveness, which is how a
    partition read fails over from a dead primary to a live replica
    (within ``staleness_bound`` committed transactions of the log tail;
    a stale-but-bounded serve marks the plan ``degraded``). A per-query
    ``deadline_seconds`` budget on the simulated clock aborts hopeless
    queries with :class:`~repro.errors.DeadlineExceededError`. Counters:
    ``soe.coordinator.retries`` / ``failovers`` / ``degraded_reads`` /
    ``failover_catch_ups`` / ``deadline_aborts``.
    """

    node_id: str
    cluster: SimulatedCluster
    catalog: CatalogService
    broker: TransactionBroker
    query_services: dict[str, QueryService] = field(default_factory=dict)
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    clock: SimulatedClock = field(default_factory=SimulatedClock)
    #: replica failover for partition reads (the benchmark's control knob)
    failover: bool = True
    #: max committed-but-unapplied transactions a failover replica may
    #: serve with; beyond it the replica is caught up first
    staleness_bound: int = 0
    #: per-query budget on the simulated clock (None = no deadline)
    deadline_seconds: float | None = None
    #: optional repro.qos CircuitBreaker guarding cluster transfers; once
    #: open, transfers fail fast with the non-retryable CircuitOpenError
    #: instead of paying the resend schedule against a down network
    transfer_breaker: Any = None
    _deadline_at: float | None = field(default=None, init=False, repr=False)

    def register_query_service(self, service: QueryService) -> None:
        self.query_services[service.node_id] = service

    # -- helpers -------------------------------------------------------------------

    def _check_deadline(self) -> None:
        """Abort the query once the simulated clock passes its budget.
        :class:`DeadlineExceededError` is a plain ``CoordinationError`` —
        deliberately *not* retryable, so it punches through recovery."""
        if self._deadline_at is not None and self.clock.now > self._deadline_at:
            obs.count("soe.coordinator.deadline_aborts")
            raise DeadlineExceededError(
                f"query exceeded its {self.deadline_seconds}s deadline "
                f"(simulated clock {self.clock.now:.6f})"
            )

    def _charge(self, seconds: float) -> None:
        """Charge simulated seconds to the query clock, then enforce the
        deadline — network time and backoff spend the same budget."""
        self.clock.advance(seconds)
        self._check_deadline()

    def _recover(self, cost: PlanCost, body: Any) -> Any:
        """Plan-level recovery: re-run the whole strategy body on any
        transient failure. Re-running re-plans — :meth:`_assignments`
        recomputes against *current* liveness, so the retry lands on live
        replicas instead of the node that just died."""
        last: RetryableError | None = None
        for attempt, delay in self.retry_policy.schedule():
            if attempt:
                self._charge(delay)
                cost.retries += 1
                # each retry re-plans the strategy body against current
                # liveness: a mid-query re-optimization in PlanCost terms
                cost.reoptimizations += 1
                obs.count("soe.coordinator.retries")
            try:
                return body()
            except RetryableError as exc:
                last = exc
        assert last is not None
        raise last

    def _transfer(self, source: str, target: str, result: Any, cost: PlanCost) -> float:
        """Move one task result between nodes: one charged transfer with
        bounded resend — a dropped message (chaos) is resent under the
        retry policy rather than failing the whole plan; every resend pays
        backoff on the simulated clock. A node-local hand-off is free, so
        it is not sized either."""
        payload_bytes = result.size_bytes() if source != target else 0
        last: TransferDroppedError | None = None
        for attempt, delay in self.retry_policy.schedule():
            if attempt:
                self._charge(delay)
                cost.retries += 1
                obs.count("soe.coordinator.retries")
            try:
                if self.transfer_breaker is not None:
                    seconds = self.transfer_breaker.call(
                        lambda: self.cluster.transfer(source, target, payload_bytes)
                    )
                else:
                    seconds = self.cluster.transfer(source, target, payload_bytes)
            except TransferDroppedError as exc:
                last = exc
                continue
            if source != target:
                cost.bytes_shipped += payload_bytes
                cost.messages += 1
                cost.simulated_network_seconds += seconds
                self._charge(seconds)
            return seconds
        assert last is not None
        raise last

    def _service_for(self, node_id: str) -> QueryService:
        """Resolve the v2lqp service on a node through the availability
        seam (liveness gate; scheduled chaos crashes fire here)."""
        self.cluster.node(node_id).check_available("v2lqp")
        service = self.query_services.get(node_id)
        if service is None:
            raise CoordinationError(f"no query service on {node_id}")
        return service

    def _assignments(
        self, table: str, cost: PlanCost | None = None
    ) -> dict[str, list[int]]:
        """node id → partition ids it will scan (one replica per partition,
        spread across hosts; dead primaries fail over when enabled)."""
        placement = self.catalog.placement_of(table)
        assignments: dict[str, list[int]] = {}
        for partition_id, nodes in placement.items():
            chosen = self._choose_host(table, partition_id, nodes, cost)
            assignments.setdefault(chosen, []).append(partition_id)
        return assignments

    def _choose_host(
        self,
        table: str,
        partition_id: int,
        replicas: list[str],
        cost: PlanCost | None,
    ) -> str:
        """Pick the serving replica for one partition. The deterministic
        primary is ``replicas[partition_id % len(replicas)]``; a dead
        primary fails over to a live replica — caught up first when it
        lags more than ``staleness_bound``, marked degraded otherwise."""
        primary = replicas[partition_id % len(replicas)]
        if self.cluster.node(primary).alive:
            return primary
        if not self.failover:
            raise NodeUnavailableError(
                primary,
                f"primary {primary} of {table}#{partition_id} is down "
                "and failover is disabled",
            )
        alive = [n for n in replicas if self.cluster.node(n).alive]
        if not alive:
            raise CoordinationError(f"no live replica of {table}#{partition_id}")
        fallback = alive[partition_id % len(alive)]
        obs.count("soe.coordinator.failovers")
        if cost is not None:
            cost.failovers += 1
        service = self.query_services.get(fallback)
        if service is not None:
            staleness = service.data_node.staleness()
            if staleness > self.staleness_bound:
                service.data_node.catch_up()
                obs.count("soe.coordinator.failover_catch_ups")
            elif staleness > 0:
                if cost is not None:
                    cost.degraded = True
                obs.count("soe.coordinator.degraded_reads")
        return fallback

    def _ensure_fresh(self, tables: list[str], consistency: str) -> None:
        """Strong consistency: ask the broker for "additional updates to be
        considered" — force OLAP nodes serving the query to catch up."""
        if consistency != "strong":
            return
        target = self.broker.current_lsn
        involved: set[str] = set()
        for table in tables:
            involved.update(self._assignments(table))
        for node_id in involved:
            service = self.query_services[node_id]
            if service.data_node.mode == "olap":
                service.data_node.catch_up(target)

    def _run_dag(self, dag: TaskDag, cost: PlanCost) -> dict[int, Any]:
        """Execute a plan in dependency order: ship every edge (charged),
        run worker tasks on their query service, merge at the coordinator."""
        results: dict[int, Any] = {}
        for task in dag.topological_order():
            inputs: dict[int, Any] = {}
            for input_id in task.inputs:
                producer = dag.tasks[input_id]
                result = results[input_id]
                if producer.kind == "scan_ship":
                    # a shuffle edge carries only the consumer's bucket,
                    # and nothing when no row hashed there
                    result = result.get(task.params["bucket"])
                    if result is None:
                        continue
                self._transfer(producer.node_id, task.node_id, result, cost)
                inputs[input_id] = result
            if task.kind == "merge_aggregate":
                results[task.task_id] = GroupStates.merge(
                    list(inputs.values()), task.params["aggregates"], task.params["keys"]
                )
            elif task.kind == "merge_hash":
                results[task.task_id] = HashTable.concat(list(inputs.values()))
            else:
                results[task.task_id] = self._service_for(task.node_id).execute(
                    task, inputs
                )
            cost.tasks += 1
        return results

    def _execute(
        self,
        strategy: str,
        tables: list[str],
        query: Any,
        place: Callable[[TaskDag, Any, PlanCost], list[int]],
    ) -> tuple[list[list[Any]], PlanCost]:
        """One distributed plan execution, under recovery: the single
        wall-clock. Every attempt re-plans — ``place`` puts the strategy's
        worker tasks on a fresh DAG and returns the ids of those producing
        partial states; the tail all plans share ships these to the
        coordinator, merges and finalizes them.

        The measured wall time lands on ``cost.wall_seconds`` and — when
        observability is enabled — on the ``soe.coordinator.plan_seconds``
        histogram and the ``soe.coordinator.plans`` counter (per strategy),
        the numbers v2stats reads.
        """
        cost = PlanCost(strategy=strategy)
        self._deadline_at = (
            self.clock.now + self.deadline_seconds
            if self.deadline_seconds is not None
            else None
        )

        def attempt() -> list[list[Any]]:
            self._ensure_fresh(tables, query.consistency)
            dag = TaskDag()
            merge = dag.add(
                "merge_aggregate",
                self.node_id,
                {"aggregates": query.aggregates, "keys": len(query.group_by)},
                place(dag, query, cost),
            )
            return self._run_dag(dag, cost)[merge.task_id].rows(query.aggregates)

        with obs.timed("soe.coordinator.plan_seconds", strategy=strategy) as timer:
            rows = self._recover(cost, attempt)
        cost.wall_seconds = timer.seconds
        obs.count("soe.coordinator.plans", strategy=strategy)
        obs.count("soe.coordinator.bytes_shipped", cost.bytes_shipped, strategy=strategy)
        obs.count("soe.coordinator.tasks", cost.tasks, strategy=strategy)
        return rows, cost

    # -- aggregate queries -----------------------------------------------------------

    def _check_columns(self, table: str, *names: str | None) -> None:
        """Plan-time name resolution: a query naming a column the catalog
        does not know is refused before any task is dispatched."""
        unknown = {*names} - {None, *self.catalog.table(table).columns}
        if unknown:
            raise CoordinationError(f"no column {sorted(unknown)} in SOE table {table!r}")

    def run_aggregate(self, query: AggregateQuery) -> tuple[list[list[Any]], PlanCost]:
        """Partial aggregation at the data, merge at the coordinator."""
        specs = (*query.filters, *query.aggregates)
        self._check_columns(query.table, *query.group_by, *(spec.column for spec in specs))
        return self._execute("partial-aggregate", [query.table], query, self._place_aggregate)

    def _place_aggregate(self, dag: TaskDag, query: AggregateQuery, cost: PlanCost) -> list[int]:
        return [
            dag.add(
                "partial_aggregate",
                node_id,
                {
                    "table": query.table,
                    "partitions": partition_ids,
                    "filters": list(query.filters),
                    "group_by": list(query.group_by),
                    "aggregates": list(query.aggregates),
                },
            ).task_id
            for node_id, partition_ids in self._assignments(query.table, cost).items()
        ]

    # -- join queries ---------------------------------------------------------------------

    def run_join(self, query: JoinQuery) -> tuple[list[list[Any]], PlanCost]:
        self._check_columns(query.fact_table, query.fact_key, *(a.column for a in query.aggregates))
        self._check_columns(query.dim_table, query.dim_key, query.group_column)
        strategy = query.strategy
        if strategy == "auto":
            strategy = self._choose_join_strategy(query)
        elif strategy == "colocated" and not self._colocatable(query):
            raise CoordinationError(
                f"a colocated join needs {query.fact_table!r} and {query.dim_table!r} "
                f"hash-partitioned alike on the join key, with aligned placement"
            )
        place = {
            "broadcast": self._place_broadcast,
            "repartition": self._place_repartition,
            "colocated": self._place_colocated,
        }.get(strategy)
        if place is None:
            raise CoordinationError(f"unknown join strategy {strategy!r}")
        return self._execute(strategy, [query.fact_table, query.dim_table], query, place)

    def _choose_join_strategy(self, query: JoinQuery) -> str:
        if self._colocatable(query):
            return "colocated"
        dim_rows = self._table_rows(query.dim_table)
        fact_rows = self._table_rows(query.fact_table)
        return "broadcast" if dim_rows * 10 <= fact_rows else "repartition"

    def _colocatable(self, query: JoinQuery) -> bool:
        """Can the join run node-locally: both sides hash-partitioned alike
        on the join key, each partition pair on a common node?"""
        fact_meta = self.catalog.table(query.fact_table)
        dim_meta = self.catalog.table(query.dim_table)
        co_partitioned = (
            fact_meta.partition_count == dim_meta.partition_count
            and fact_meta.key_columns == [query.fact_key]
            and dim_meta.key_columns == [query.dim_key]
        )
        if not co_partitioned:
            return False
        fact_nodes = self.catalog.placement_of(query.fact_table)
        dim_nodes = self.catalog.placement_of(query.dim_table)
        return all(set(fact_nodes[pid]) & set(dim_nodes.get(pid, [])) for pid in fact_nodes)

    def _table_rows(self, table: str) -> int:
        total = 0
        for node_id, partition_ids in self._assignments(table).items():
            store = self.query_services[node_id].data_node.store
            total += sum(len(store.partition(table, pid)) for pid in partition_ids)
        return total

    @staticmethod
    def _join_sides(query: JoinQuery) -> tuple[dict[str, Any], dict[str, Any]]:
        """The build (dim) and probe (fact) side of a join as task params:
        each names its table, its join key and the columns the join reads
        besides the key. A plan adds what places a task — the local
        ``partitions`` it reads (and pins) or the shuffle ``bucket`` it is
        shipped — so the strategies differ only in who ships what to whom."""
        dim = {
            "table": query.dim_table,
            "partitions": (),
            "key_column": query.dim_key,
            "columns": [query.group_column],
        }
        fact = {
            "table": query.fact_table,
            "partitions": (),
            "key_column": query.fact_key,
            "columns": [a.column for a in query.aggregates if a.column is not None],
            "aggregates": list(query.aggregates),
        }
        return dim, fact

    def _place_broadcast(self, dag: TaskDag, query: JoinQuery, cost: PlanCost) -> list[int]:
        """Gather the dim side once, broadcast it to every fact node."""
        dim, fact = self._join_sides(query)
        build_ids = [
            dag.add("build_hash", node_id, {**dim, "partitions": partition_ids}).task_id
            for node_id, partition_ids in self._assignments(query.dim_table, cost).items()
        ]
        # the edges out of the gathered table are the broadcast
        gather = dag.add("merge_hash", self.node_id, {}, build_ids)
        return [
            dag.add(
                "join_partial", node_id, {**fact, "partitions": partition_ids}, [gather.task_id]
            ).task_id
            for node_id, partition_ids in self._assignments(query.fact_table, cost).items()
        ]

    def _place_repartition(self, dag: TaskDag, query: JoinQuery, cost: PlanCost) -> list[int]:
        """Ship both sides hashed on the join key to worker nodes, then
        join each bucket on its worker like a co-located plan."""
        if self.failover:
            workers = [
                node_id
                for node_id in sorted(self.query_services)
                if self.cluster.node(node_id).alive
            ]
        else:
            workers = sorted(self.query_services)
        if not workers:
            raise CoordinationError("no live workers for a repartition join")

        def shuffle(side: dict[str, Any]) -> list[int]:
            """Every host splits its rows of one side into a prepackaged
            partition per worker; the edges to the workers' tasks ship them."""
            return [
                dag.add(
                    "scan_ship",
                    node_id,
                    {**side, "partitions": partition_ids, "buckets": len(workers)},
                ).task_id
                for node_id, partition_ids in self._assignments(side["table"], cost).items()
            ]

        dim, fact = self._join_sides(query)
        fact_ids, dim_ids = shuffle(fact), shuffle(dim)
        probe_ids = []
        for bucket, worker in enumerate(workers):
            built = dag.add("build_hash", worker, {**dim, "bucket": bucket}, dim_ids)
            probe_ids.append(
                dag.add(
                    "join_partial", worker, {**fact, "bucket": bucket}, [built.task_id, *fact_ids]
                ).task_id
            )
        return probe_ids

    def _place_colocated(self, dag: TaskDag, query: JoinQuery, cost: PlanCost) -> list[int]:
        """Both sides hash-partitioned on the join key with aligned
        placement: join entirely node-locally, ship only partial states."""
        dim, fact = self._join_sides(query)
        probe_ids = []
        for node_id, partition_ids in self._assignments(query.fact_table, cost).items():
            placed = {"partitions": partition_ids}
            built = dag.add("build_hash", node_id, {**dim, **placed})
            probe_ids.append(
                dag.add("join_partial", node_id, {**fact, **placed}, [built.task_id]).task_id
            )
        return probe_ids
