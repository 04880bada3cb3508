"""The database facade: DDL, DML, queries, merge, durability, monitoring.

:class:`Database` wires the substrates together the way Figure 2 wires the
HANA system: the column/row store, the transaction manager, the SQL stack
(parser → planner → vectorised executor), the function registry, the text
indexes, the semantic pruning hooks of the aging subsystem, and optional
file persistence. The specialised engines (graph, geo, time series, ...)
operate on the same catalog and transaction manager.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Mapping

from repro import obs
from repro.analysis import plancheck
from repro.columnstore.merge import MergeStats, merge_table
from repro.columnstore.partition import (
    HashPartitioning,
    PartitionSpec,
    RangePartitioning,
)
from repro.columnstore.persistence import PersistenceManager
from repro.columnstore.rowstore import RowTable
from repro.columnstore.table import ColumnTable
from repro.core import types as dt
from repro.core.catalog import Catalog
from repro.core.result import QueryResult
from repro.core.schema import ColumnSpec, TableSchema
from repro.errors import DuplicateObjectError, PlanError, StorageError, TableNotFoundError
from repro.sql import ast
from repro.sql import plancache
from repro.sql.context import ExecutionContext
from repro.sql.executor import execute as execute_plan
from repro.sql.expressions import evaluate  # noqa: F401 - benchmarks/harness/trace.py patches it here
from repro.sql.feedback import CardinalityFeedback, ReplanSignal
from repro.sql.functions import FunctionRegistry
from repro.sql.lexer import shape
from repro.sql.parser import parse
from repro.sql.planner import PLANNED_STATEMENTS, QueryPlan, WriteNode, join_order, plan_select
from repro.transaction.manager import Transaction, TransactionManager

PruningHook = Callable[[ColumnTable, list[ast.Expr], ExecutionContext], set[int] | None]

#: simulated optimizer cost charged to the query budget per re-planning pass
REPLAN_PLANNING_SECONDS = 0.005


class Database:
    """One in-memory database instance (the HANA core of the ecosystem)."""

    def __init__(
        self,
        name: str = "hana",
        data_dir: str | os.PathLike[str] | None = None,
        persist_feedback: bool = True,
    ) -> None:
        self.name = name
        self.catalog = Catalog()
        self.functions = FunctionRegistry()
        self.persistence: PersistenceManager | None = (
            PersistenceManager(data_dir) if data_dir is not None else None
        )
        self.txn_manager = TransactionManager(
            redo_writer=self.persistence.write_redo if self.persistence else None
        )
        #: (table, column) -> inverted index, maintained by the text engine
        self.text_indexes: dict[tuple[str, str], Any] = {}
        #: semantic partition-pruning hooks (installed by repro.aging)
        self.pruning_hooks: list[PruningHook] = []
        #: session defaults copied into every execution context
        self.parameters: dict[str, Any] = {}
        #: observed cardinalities per operator signature (docs/OPTIMIZER.md)
        self.feedback = CardinalityFeedback()
        #: parsed statements and their plans, keyed by the text's shape
        self.plan_cache = plancache.PlanCache()
        #: master switches for the adaptive optimizer — benchmarks flip
        #: these to measure static vs. adaptive planning (E26)
        self.plan_cache_enabled = True
        self.adaptive_planning = True
        #: mid-query re-optimizations allowed per statement execution
        self.max_reoptimizations = 1
        #: learned cardinalities survive restarts (ROADMAP item 1): the
        #: feedback store autoloads here and autosaves at every savepoint,
        #: so a recovered instance plans with its pre-crash estimates
        #: instead of re-learning from scratch. ``persist_feedback=False``
        #: opts out (e.g. benchmarks that want a cold optimizer).
        self._feedback_path = (
            self.persistence.directory / "feedback.json"
            if self.persistence is not None and persist_feedback
            else None
        )
        if self._feedback_path is not None and self._feedback_path.exists():
            self.feedback.load(self._feedback_path)
        if self.persistence is not None:
            self._recover()

    # -- transactions ------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start an explicit transaction."""
        return self.txn_manager.begin()

    def commit(self, txn: Transaction) -> int:
        return self.txn_manager.commit(txn)

    def rollback(self, txn: Transaction) -> None:
        self.txn_manager.rollback(txn)

    # -- DDL ---------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: TableSchema,
        partitioning: PartitionSpec | None = None,
        store: str = "column",
        flexible: bool = False,
        sorted_dictionaries: bool = True,
    ) -> Any:
        """Create and register a table; returns the table object."""
        if store == "row":
            table: Any = RowTable(name.lower(), schema)
        else:
            table = ColumnTable(
                name.lower(),
                schema,
                partitioning=partitioning,
                flexible=flexible,
                sorted_dictionaries=sorted_dictionaries,
            )
        self.catalog.register_table(table)
        # DDL invalidation: a (re)created table voids plans that read it
        self.plan_cache.invalidate_table(name.lower())
        return table

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)
        self.text_indexes = {
            key: index for key, index in self.text_indexes.items() if key[0] != name.lower()
        }
        # DDL invalidation: cached plans and learned cardinalities both die
        self.plan_cache.invalidate_table(name.lower())
        self.feedback.forget_table(name.lower())

    def table(self, name: str) -> Any:
        return self.catalog.table(name)

    # -- SQL entry point ------------------------------------------------------------

    def execute(
        self,
        sql: str,
        txn: Transaction | None = None,
        parameters: Mapping[str, Any] | None = None,
        budget: Any = None,
    ) -> QueryResult:
        """Parse and execute one SQL statement.

        Without an explicit transaction, writes auto-commit and reads use
        the freshest committed snapshot. ``budget`` (a
        :class:`repro.qos.QueryBudget`) governs SELECTs: crossing a soft
        limit returns a truncated result with ``QueryResult.degraded``
        set; crossing a hard limit raises
        :class:`~repro.errors.BudgetExceededError`.

        Through the plan cache (docs/OPTIMIZER.md), a statement whose text
        shape (:func:`repro.sql.lexer.shape`) was seen before is neither
        lexed nor parsed: its literal values are bound straight into the
        cached plan.
        """
        shaped = shape(sql) if self.plan_cache_enabled else None
        if shaped is None:
            return self.execute_statement(parse(sql), txn, parameters, budget)
        key, values = shaped
        entry = self.plan_cache.get(key, self.feedback, values, self._keeps_join_order)
        if entry is None:
            sources: list[Any] = []
            statement = parse(sql, sources)
            if isinstance(statement, (ast.SelectStatement, ast.UnionStatement)):
                self.plan_cache.miss()
            entry = self._remember(statement, sources, values)
            if entry is None:
                return self.execute_statement(statement, txn, parameters, budget)
        template = entry.template
        assert template is not None  # every entry keyed by text has one
        mapping = template.bind(values)
        if entry.plan is None:
            plan = self._plan_template(key, entry.slots, template, mapping)
        else:
            plan = plancache.bind_plan(entry, mapping)
            if plancheck.enabled():  # the binding left the cached entry intact
                findings = plancheck.verify_binding(entry, plan, template.statement_for(mapping))
                if findings:
                    raise plancheck.PlanCheckError(findings)
        return self._run(
            plan,
            lambda: self._plan_template(key, entry.slots, template, mapping),
            txn,
            parameters,
            budget,
        )

    def execute_statement(
        self,
        statement: ast.Statement,
        txn: Transaction | None = None,
        parameters: Mapping[str, Any] | None = None,
        budget: Any = None,
    ) -> QueryResult:
        if isinstance(statement, PLANNED_STATEMENTS):
            return self._run(
                self._plan(statement), lambda: self._plan(statement), txn, parameters, budget
            )
        if isinstance(statement, ast.CreateTableStatement):
            return self._execute_create(statement)
        if isinstance(statement, ast.DropTableStatement):
            try:
                self.drop_table(statement.table)
            except TableNotFoundError:
                if not statement.if_exists:
                    raise
            return QueryResult([], [], rowcount=0)
        if isinstance(statement, ast.MergeDeltaStatement):
            stats = self.merge(statement.table)
            return QueryResult(
                ["rows_merged", "columns_remapped"],
                [[stats.rows_merged, stats.columns_remapped]],
            )
        if isinstance(statement, ast.TransactionStatement):
            raise PlanError(
                "BEGIN/COMMIT/ROLLBACK are session-level statements; "
                "use a Session or the begin()/commit()/rollback() API"
            )
        raise PlanError(f"unsupported statement {type(statement).__name__}")

    # -- query ------------------------------------------------------------------------

    def _context(
        self, txn: Transaction | None, parameters: Mapping[str, Any] | None
    ) -> ExecutionContext:
        merged = dict(self.parameters)
        if parameters:
            merged.update(parameters)
        return ExecutionContext(
            database=self,
            snapshot_cid=self.txn_manager.last_committed_cid if txn is None else txn.snapshot_cid,
            own_tid=0 if txn is None else txn.tid,
            txn=txn,
            functions=self.functions,
            parameters=merged,
        )

    def _plan(self, statement: ast.Statement) -> QueryPlan:
        """Plan a statement the plan cache does not hold."""
        with obs.latency("sql.plan_seconds"):
            plan = plan_select(statement, self.catalog, feedback=self.feedback)
        if plancheck.enabled():
            plancheck.check_plan(plan, self.catalog)
        return plan

    def _remember(
        self, statement: ast.Statement, sources: list[Any], values: list[Any]
    ) -> plancache.PlanEntry | None:
        """The parse of a statement just read from a new text shape, as an
        entry :meth:`_plan_template` plans and caches. ``None``: the
        statement is not cached (DDL, or a text whose literal tokens the
        shape pass does not line up with the parser's).
        """
        if not isinstance(statement, PLANNED_STATEMENTS):
            return None
        slots = plancache.collect_literals(statement)
        template = plancache.record_template(statement, slots, sources, values)
        if template is None:
            return None
        return plancache.PlanEntry(plan=None, slots=slots, tables=frozenset(), template=template)

    def _plan_template(
        self,
        key: str,
        slots: list[ast.Literal],
        template: plancache.Template,
        mapping: dict[int, ast.Literal],
    ) -> QueryPlan:
        """Plan a cached parse, cache the plan, and bind ``mapping``.

        The plan of the cached parse serves every statement of its shape
        with its own values bound — what every cache hit relies on, and
        what :func:`repro.analysis.plancheck.verify_entry` proves before
        the plan is cached. A plan that fails it is not cached, and a
        statement with other values is then planned as itself. Only a plan
        that records a join order snapshots the feedback versions it was
        planned under: feedback cannot reshape any other.
        """
        with obs.latency("sql.plan_seconds"):
            plan = plan_select(template.statement, self.catalog, feedback=self.feedback)
        tables = plancache.plan_tables(plan.root)
        entry = plancache.PlanEntry(
            plan=plan,
            slots=slots,
            tables=tables,
            versions=None if plan.join_order is None else self.feedback.versions(tables),
            template=template,
        )
        entry.seal = plancheck.entry_seal(entry)
        if self._cache_entry(key, entry):
            return plancache.bind_plan(entry, mapping)
        if not mapping:
            return plan
        return self._plan(template.statement_for(mapping))

    def _keeps_join_order(self, entry: plancache.PlanEntry) -> bool:
        """Would today's feedback join as ``entry``'s plan does?"""
        return join_order(entry.template.statement, self.catalog, self.feedback) == entry.plan.join_order

    def _cache_entry(self, key: str, entry: plancache.PlanEntry) -> bool:
        """Verify a sealed entry and cache it; False when it was refused."""
        findings = plancheck.verify_entry(entry, catalog=self.catalog)
        if findings:
            # an entry that fails verification is never cached: the fresh
            # plan still answers this query, the shape just replans on
            # every execution. Genuine IR corruption (anything beyond a
            # cache-suitability finding) is a planner bug and escalates
            # to a hard error under REPRO_PLANCHECK.
            obs.count("sql.plancheck.rejected")
            if plancheck.enabled() and any(f.check != "cache" for f in findings):
                raise plancheck.PlanCheckError(findings)
            return False
        self.plan_cache.put(key, entry)
        return True

    def _run(
        self,
        plan: QueryPlan,
        replan: Callable[[], QueryPlan],
        txn: Transaction | None,
        parameters: Mapping[str, Any] | None,
        budget: Any = None,
    ) -> QueryResult:
        """Run a plan. A write runs as :meth:`_write` does. A query may be
        governed by ``budget``, records its cardinalities as feedback, and
        ``replan`` plans it afresh when the executor asks for a mid-query
        re-optimization."""
        if isinstance(plan.root, WriteNode):
            return self._write(plan, txn, parameters)[0]
        with obs.latency("sql.select_seconds"):
            context = self._context(txn, parameters)
            context.feedback = self.feedback
            governor = None
            if budget is not None:
                from repro.qos.governor import ResourceGovernor

                governor = ResourceGovernor(budget)
                context.governor = governor
            reoptimizations = 0
            if self.adaptive_planning:
                context.replans_remaining = self.max_reoptimizations
                context.scan_cache = {}
            while True:
                try:
                    batch = execute_plan(plan, context)
                    break
                except ReplanSignal:
                    # mid-query re-optimization: the aborted attempt's
                    # actuals are already in the feedback store, and its
                    # completed scans stay memoised on context.scan_cache,
                    # so the re-planned attempt resumes rather than redoes
                    reoptimizations += 1
                    context.replans_remaining -= 1
                    obs.count("sql.reopt.replans")
                    if governor is not None:
                        governor.charge_planning(REPLAN_PLANNING_SECONDS)
                    plan = replan()
            if reoptimizations:
                context.bump("reoptimizations", reoptimizations)
            degraded = governor is not None and governor.degraded
            return QueryResult(
                plan.output_names,
                batch.rows(),
                degraded=degraded,
                degraded_reasons=list(governor.degraded_reasons) if degraded else None,
                reoptimizations=reoptimizations,
            )

    def query(self, sql: str, **parameters: Any) -> QueryResult:
        """Convenience: execute a SELECT with keyword parameters."""
        return self.execute(sql, parameters=parameters or None)

    def profile(
        self,
        sql: str,
        txn: Transaction | None = None,
        parameters: Mapping[str, Any] | None = None,
    ) -> "obs.Profile":
        """Execute a query or a write with per-operator profiling (EXPLAIN
        PROFILE).

        Returns a :class:`repro.obs.Profile`: the executed plan tree where
        every operator node carries its output row count and wall time,
        plus the ordinary query result and the execution-context counters.
        Works regardless of whether global observability is enabled — the
        profiler is installed on this one execution's context.
        """
        statement = parse(sql)
        if not isinstance(statement, PLANNED_STATEMENTS):
            raise PlanError("profile() supports queries and writes only")
        plan = plan_select(statement, self.catalog, feedback=self.feedback)
        # profiled runs do not auto-record feedback: a profile is a
        # measurement, and feeding it back is the caller's explicit call
        # (``database.feedback.harvest(profile.root)``) — so profiling a
        # query never changes how its next plain execution is planned
        profiler = obs.QueryProfiler()
        with obs.span("sql.profile", sql=sql.strip()):
            if isinstance(plan.root, WriteNode):
                result, context = self._write(plan, txn, parameters, profiler)
            else:
                context = self._context(txn, parameters)
                context.profiler = profiler
                batch = execute_plan(plan, context)
                result = QueryResult(plan.output_names, batch.rows())
        root = profiler.root
        assert root is not None  # the executor always visits plan.root
        return obs.Profile(
            sql=sql, root=root, result=result, metrics=dict(context.metrics)
        )

    # -- writes ------------------------------------------------------------------------

    def _write(
        self,
        plan: QueryPlan,
        txn: Transaction | None,
        parameters: Mapping[str, Any] | None,
        profiler: "obs.QueryProfiler | None" = None,
    ) -> tuple[QueryResult, ExecutionContext]:
        """Run a write plan in ``txn`` — without one, in a transaction of
        its own that commits if the write succeeds and rolls back if not.
        A write runs without feedback, re-planning or a governor: nothing
        can abort or truncate it once it has started."""
        own = txn is None
        active = txn if txn is not None else self.begin()
        try:
            context = self._context(active, parameters)
            context.profiler = profiler
            count = execute_plan(plan, context).length
        except Exception:
            obs.count("core.dml_rollbacks")
            if own:
                self.rollback(active)
            raise
        if own:
            self.commit(active)
        return QueryResult([], [], rowcount=count), context

    # -- DDL from AST ----------------------------------------------------------------------

    def _execute_create(self, statement: ast.CreateTableStatement) -> QueryResult:
        if self.catalog.has_table(statement.table):
            if statement.if_not_exists:
                return QueryResult([], [], rowcount=0)
            raise DuplicateObjectError(f"table already exists: {statement.table!r}")
        specs = [
            ColumnSpec(
                column.name.lower(),
                dt.type_from_name(
                    column.type_name,
                    length=column.length,
                    precision=column.precision,
                    scale=column.scale,
                ),
                nullable=column.nullable,
                default=column.default,
            )
            for column in statement.columns
        ]
        schema = TableSchema(specs, primary_key=tuple(c.lower() for c in statement.primary_key))
        partitioning: PartitionSpec | None = None
        if statement.partition_kind == "hash":
            partitioning = HashPartitioning(
                [c.lower() for c in statement.partition_columns],
                statement.partition_count or 1,
            )
        elif statement.partition_kind == "range":
            partitioning = RangePartitioning(
                statement.partition_columns[0].lower(), statement.partition_boundaries
            )
        table = self.create_table(
            statement.table,
            schema,
            partitioning=partitioning,
            store=statement.store,
            flexible=statement.flexible,
        )
        if self.persistence is not None:
            self.persistence.write_redo(
                [
                    {
                        "op": "create_table",
                        "table": table.name,
                        "ddl": _describe_table(table),
                    }
                ],
                cid=self.txn_manager.last_committed_cid + 1,
            )
        return QueryResult([], [], rowcount=0)

    # -- maintenance --------------------------------------------------------------------------

    def merge(self, table_name: str, compact: bool = False) -> MergeStats:
        """Run the delta merge on one table."""
        table = self.catalog.table(table_name)
        if not isinstance(table, ColumnTable):
            return MergeStats()
        stats = merge_table(table, compact=compact)
        # a delta merge changes partition layout and the cost picture:
        # plans against the pre-merge shape must be re-planned
        self.plan_cache.invalidate_table(table.name)
        if compact and self.persistence is not None:
            # compaction invalidates nothing logically, but take a savepoint
            # so the (logical) log stays small
            self.savepoint()
        return stats

    def merge_all(self, compact: bool = False) -> MergeStats:
        """Merge every column table."""
        total = MergeStats()
        for table in list(self.catalog.tables()):
            if isinstance(table, ColumnTable):
                total.merge(merge_table(table, compact=compact))
                self.plan_cache.invalidate_table(table.name)
        return total

    # -- durability ------------------------------------------------------------------------------

    def physical_savepoint(self) -> None:
        """SOFORT-style savepoint: persist the table *data structures*.

        Recovery from a physical savepoint re-attaches fragments instead of
        re-inserting rows — the fast-restart design of the paper's NVM
        trend paragraph (§IV.A, ref [10]). Compare benchmark E19.
        """
        if self.persistence is None:
            return
        tables = {
            table.name: table
            for table in self.catalog.tables()
            if isinstance(table, (ColumnTable, RowTable))
        }
        self.persistence.write_physical_savepoint(
            tables, self.txn_manager.last_committed_cid
        )
        self._save_feedback()

    def savepoint(self) -> None:
        """Write a logical snapshot of all committed data; truncate the log."""
        if self.persistence is None:
            return
        snapshot_cid = self.txn_manager.last_committed_cid
        tables_payload: dict[str, Any] = {}
        for table in self.catalog.tables():
            if isinstance(table, (ColumnTable, RowTable)):
                if isinstance(table, ColumnTable):
                    rows = table.scan_rows(snapshot_cid)
                else:
                    rows = table.scan(snapshot_cid)
                tables_payload[table.name] = {
                    "ddl": _describe_table(table),
                    "rows": rows,
                }
        self.persistence.write_savepoint({"cid": snapshot_cid, "tables": tables_payload})
        self._save_feedback()

    def _save_feedback(self) -> None:
        """Persist the cardinality feedback store next to the savepoint."""
        if self._feedback_path is not None:
            self.feedback.save(self._feedback_path)

    def _recover(self) -> None:
        """Load the latest savepoint and replay the redo-log tail.

        The log tail is materialised *before* the savepoint load: loading
        goes through regular (logged) inserts, so reading the file lazily
        would re-observe those writes and double-apply rows. After replay a
        fresh savepoint re-baselines the on-disk state.
        """
        assert self.persistence is not None
        commits = self.persistence.read_redo()
        physical = self.persistence.read_physical_savepoint()
        if physical is not None:
            # SOFORT path: re-attach the data structures, replay the tail
            for _name, table in physical["tables"].items():
                _scrub_in_flight_stamps(table)
                self.catalog.replace_table(table)
            # resume commit ids where the previous incarnation stopped, so
            # the re-attached MVCC stamps stay meaningful
            self.txn_manager._last_committed_cid = physical["cid"]
            for _cid, records in commits:
                txn = self.txn_manager.begin()
                for record in records:
                    self._replay(record, txn)
                self.txn_manager.commit(txn)
            if commits:
                self.physical_savepoint()
            return
        snapshot = self.persistence.read_savepoint()
        if snapshot is not None:
            for name, payload in snapshot["tables"].items():
                table = _table_from_description(name, payload["ddl"])
                self.catalog.replace_table(table)
                txn = self.txn_manager.begin()
                table.insert_many(payload["rows"], txn)
                self.txn_manager.commit(txn)
        for _cid, records in commits:
            # Logical replay: records carry table names and full rows.
            txn = self.txn_manager.begin()
            try:
                for record in records:
                    self._replay(record, txn)
                self.txn_manager.commit(txn)
            except Exception:
                obs.count("core.recovery_rollbacks")
                self.txn_manager.rollback(txn)
                raise
        if snapshot is not None or commits:
            self.savepoint()

    def _replay(self, record: dict[str, Any], txn: Transaction) -> None:
        operation = record.get("op")
        if operation == "create_table":
            if not self.catalog.has_table(record["table"]):
                table = _table_from_description(record["table"], record["ddl"])
                self.catalog.register_table(table)
            return
        table = self.catalog.table(record["table"])
        if operation == "insert_many":
            table.insert_columns(record["columns"], txn)
        elif operation == "delete_many":
            columns = table.schema.coerce_transposed(record["columns"])
            ordinals, positions = table.locate(columns, txn.snapshot_cid, txn.tid)
            if len(positions):
                table.delete_at(ordinals, positions, txn)
        else:  # e.g. a row-form record this version no longer writes
            raise StorageError(f"cannot replay redo record {operation!r}")

    # -- monitoring (the "one administration experience") --------------------------------------------

    def statistics(self) -> dict[str, Any]:
        """Instance-wide monitoring snapshot."""
        tables = [
            table.statistics() if isinstance(table, ColumnTable) else {
                "table": table.name,
                "rows": len(table),
                "store": "row",
            }
            for table in self.catalog.tables()
        ]
        return {
            "name": self.name,
            "tables": tables,
            "commits": self.txn_manager.commits,
            "aborts": self.txn_manager.aborts,
            "active_transactions": self.txn_manager.active_count,
            "last_committed_cid": self.txn_manager.last_committed_cid,
            "text_indexes": len(self.text_indexes),
            "observability": {
                "enabled": obs.enabled(),
                "metrics_collected": len(obs.registry()) if obs.enabled() else 0,
            },
        }


def _scrub_in_flight_stamps(table: Any) -> None:
    """Resolve MVCC stamps of transactions that died with the old process.

    Uncommitted creations (negative stamps) become tombstones; uncommitted
    deletions are undone — the standard crash-recovery outcome for
    transactions that never reached their commit record.
    """
    from repro.transaction.mvcc import INF_CID

    for partition in table.partitions:
        created = partition.created.view()
        deleted = partition.deleted.view()
        created[created < 0] = INF_CID
        deleted[deleted < 0] = INF_CID


def _describe_table(table: Any) -> dict[str, Any]:
    """Serialisable DDL description for savepoints."""
    schema: TableSchema = table.schema
    return {
        "store": "row" if isinstance(table, RowTable) else "column",
        "flexible": getattr(table, "flexible", False),
        "columns": [
            {
                "name": spec.name,
                "type": spec.dtype.code.value,
                "nullable": spec.nullable,
            }
            for spec in schema.columns
        ],
        "primary_key": list(schema.primary_key),
    }


def _table_from_description(name: str, ddl: dict[str, Any]) -> Any:
    specs = [
        ColumnSpec(column["name"], dt.type_from_name(column["type"]), nullable=column["nullable"])
        for column in ddl["columns"]
    ]
    schema = TableSchema(specs, primary_key=tuple(ddl.get("primary_key", [])))
    if ddl.get("store") == "row":
        return RowTable(name, schema)
    return ColumnTable(name, schema, flexible=ddl.get("flexible", False))
