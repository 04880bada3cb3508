"""Semantic partition pruning driven by aging rules (§III).

The pruner is installed as a scan hook on the database: for every scan of
an aged table it checks whether any query conjunct *contradicts* a fact
that holds for all aged rows; if so, the aged partitions cannot contain
qualifying rows and are skipped. This is the "much better partition
pruning than any approach purely based on access statistics" the paper
argues for — it prunes even on the very first query, because the knowledge
comes from the application, not from observed access patterns.

Join pruning (the order/invoice example): when the child table's rule
carries a dependency "child ages only if its parent aged", a join whose
parent side is provably hot-only can also skip the child's aged
partitions — see :meth:`AgingManager.join_prunable`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.aging.rules import AgingDependency, AgingRule, RuleSet, contradicts
from repro.aging.tiering import (
    aged_ordinals,
    ensure_aged_partition,
    hot_ordinals,
    move_rows_to_aged,
)
from repro.columnstore.table import ColumnTable
from repro.errors import AgingError
from repro.sql import ast
from repro.sql.context import ExecutionContext
from repro.sql.expressions import Batch


class AgingManager:
    """Owns the rule set, runs aging, and installs the semantic pruner."""

    def __init__(self, database: Any) -> None:
        self.database = database
        self.rules = RuleSet()
        #: aged primary keys per table (drives dependency checks)
        self._aged_keys: dict[str, set[Any]] = {}
        database.pruning_hooks.append(self._pruning_hook)

    # -- registration ------------------------------------------------------------

    def define_rule(
        self,
        table: str,
        predicate_sql: str,
        dependencies: list[AgingDependency] | None = None,
    ) -> AgingRule:
        """Register an aging rule; stored in the catalog metadata."""
        target = self.database.catalog.table(table)
        if not isinstance(target, ColumnTable):
            raise AgingError("aging requires a column table")
        rule = AgingRule(table.lower(), predicate_sql, dependencies or [])
        self.rules.register(rule)
        self.database.catalog.annotate(table, "aging_rule", rule)
        ensure_aged_partition(target)
        self._aged_keys.setdefault(table.lower(), set())
        return rule

    # -- the aging run -------------------------------------------------------------

    def run(self, table: str | None = None) -> dict[str, int]:
        """Execute aging for one table or, in dependency order, for all.

        Returns rows moved per table.
        """
        tables = [table.lower()] if table is not None else self.rules.aging_order()
        moved: dict[str, int] = {}
        for name in tables:
            rule = self.rules.rule_for(name)
            if rule is None:
                raise AgingError(f"no aging rule for table {name!r}")
            moved[name] = self._age_table(rule)
        return moved

    def _age_table(self, rule: AgingRule) -> int:
        database = self.database
        table = database.catalog.table(rule.table)
        snapshot = database.txn_manager.last_committed_cid
        context = ExecutionContext(
            database=database,
            snapshot_cid=snapshot,
            functions=database.functions,
            parameters=dict(database.parameters),
        )
        key_columns = list(table.schema.primary_key) or [table.schema.column_names[0]]

        positions_by_ordinal: dict[int, np.ndarray] = {}
        aged_key_values: list[Any] = []
        for ordinal in hot_ordinals(table):
            partition = table.partitions[ordinal]
            positions = partition.visible_positions(snapshot)
            if len(positions) == 0:
                continue
            columns = {
                name.lower(): partition.column_array(name)[positions]
                for name in table.schema.column_names
            }
            batch = Batch(columns, len(positions))
            mask = rule.eligible_mask(batch, context)
            if rule.dependencies:
                mask &= self._dependency_mask(rule, table, batch)
            if not mask.any():
                continue
            selected = positions[mask]
            positions_by_ordinal[ordinal] = selected
            key_rows = [
                partition.values_at(column, selected) for column in key_columns
            ]
            aged_key_values.extend(zip(*key_rows))

        if not positions_by_ordinal:
            return 0
        moved = move_rows_to_aged(database, table, positions_by_ordinal)
        self._aged_keys.setdefault(rule.table, set()).update(aged_key_values)
        return moved

    def _dependency_mask(
        self, rule: AgingRule, table: ColumnTable, batch: Batch
    ) -> np.ndarray:
        """Rows whose every dependency parent is already aged."""
        mask = np.ones(len(batch), dtype=bool)
        for dependency in rule.dependencies:
            parent_keys = self._aged_keys.get(dependency.parent_table.lower(), set())
            child_values = batch.column(dependency.child_key_column)
            allowed = np.fromiter(
                ((value,) in parent_keys for value in child_values),
                dtype=bool,
                count=len(batch),
            )
            mask &= allowed
        return mask

    def aged_keys(self, table: str) -> set[Any]:
        """Primary keys moved to the aged tier so far."""
        return set(self._aged_keys.get(table.lower(), set()))

    # -- semantic pruning -------------------------------------------------------------

    def _pruning_hook(
        self,
        table: ColumnTable,
        conjuncts: list[ast.Expr],
        context: ExecutionContext,
    ) -> set[int] | None:
        rule = self.rules.rule_for(table.name)
        if rule is None or not conjuncts:
            return None
        aged = set(aged_ordinals(table))
        if not aged:
            return None
        for conjunct in conjuncts:
            for fact in rule.facts:
                if contradicts(fact, conjunct):
                    context.bump("semantic_prunes")
                    return set(range(len(table.partitions))) - aged
        return None

    def join_prunable(self, child_table: str, parent_hot_only: bool) -> list[int]:
        """Partitions of ``child_table`` a join must read.

        With a dependency rule ("child ages only if parent aged") and a
        parent side already restricted to hot rows, the aged child
        partitions cannot produce join matches and are skipped — the
        paper's extended order/invoice example. Without the dependency,
        every partition must be read.
        """
        table = self.database.catalog.table(child_table)
        rule = self.rules.rule_for(child_table)
        if parent_hot_only and rule is not None and rule.dependencies:
            return hot_ordinals(table)
        return list(range(len(table.partitions)))

    # -- statistics-based proposal (paper: "statistical methods can be used
    # to propose new application rules") ------------------------------------------

    def propose_rule(self, table: str, date_column: str, quantile: float = 0.5) -> str:
        """Suggest a predicate from the column's value distribution."""
        target = self.database.catalog.table(table)
        snapshot = self.database.txn_manager.last_committed_cid
        values = [
            row[0]
            for row in target.scan_rows(snapshot, columns=[date_column])
            if row[0] is not None
        ]
        if not values:
            raise AgingError(f"no data in {table}.{date_column} to analyse")
        values.sort()
        cutoff = values[int(len(values) * quantile)]
        return f"{date_column} < {ast.sql_literal(cutoff)}"
