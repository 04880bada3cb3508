"""Logical planning: SELECT statements become operator trees.

**Paper mapping:** Section II.A / Figure 2 — the planning layer between
the common SQL frontend and the specialised execution engines; the
"exploit application knowledge" rewrites of Section III surface here as
scan annotations. **Role in the query path:** stage two of parse → plan
→ execute; :func:`plan_select` consumes the AST from
:mod:`repro.sql.parser` and hands a :class:`QueryPlan` to the vectorised
engine (:mod:`repro.sql.executor`), whose operator table also runs the
functions :mod:`repro.sql.compiler` generates; the tuple-at-a-time
:mod:`repro.sql.volcano` shares no operator with them and serves as their
oracle. The same plan-node tree is what
``session.profile(sql)`` annotates with measured rows and wall time
(see :mod:`repro.obs.profiler`).

The planner performs the classical rule-based rewrites the paper's
execution engines rely on:

* conjunct splitting and **predicate pushdown** to the owning source —
  except the nullable side of a LEFT JOIN, whose WHERE conjuncts must see
  the padded rows and so stay above the joins,
* turning cross joins plus equality predicates into **equi hash joins**,
* aggregate extraction (group keys and aggregate calls become named
  columns; HAVING and post-aggregate arithmetic are rewritten over them),
* hidden sort columns so ORDER BY may reference non-projected expressions.

Partition pruning (range bounds plus the semantic aging rules of
Section III) and CONTAINS-index probes are *annotated* on scan nodes here
and resolved by the executors, which have access to live table state.

Since PR 6 the planner is also **cost- and feedback-aware** (see
``docs/OPTIMIZER.md`` for the full pipeline):

* every :class:`ScanNode` and :class:`JoinNode` carries an
  ``estimated_rows`` cardinality (catalog row counts × per-conjunct
  selectivity heuristics) and a workload-stable ``signature`` from
  :mod:`repro.sql.feedback`;
* when :func:`plan_select` is given a
  :class:`~repro.sql.feedback.CardinalityFeedback` store, *observed*
  row counts override the static estimates, and inner/cross join chains
  are **greedily reordered** smallest-estimate-first (connected
  relations preferred so equi joins stay hash joins);
* the executors compare ``estimated_rows`` with actuals at run time and
  trigger mid-query re-optimization on a >10× blow-out
  (:func:`repro.sql.feedback.observe_actual`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Any

from repro import obs
from repro.errors import PlanError, TableNotFoundError
from repro.sql import ast
from repro.sql import feedback as fb


# --------------------------------------------------------------------------
# plan nodes
# --------------------------------------------------------------------------


class PlanNode:
    """Base class of logical/physical plan nodes."""

    def children(self) -> list["PlanNode"]:
        return []


@dataclass
class ScanNode(PlanNode):
    """Scan of a base table with pushed-down conjuncts.

    ``estimated_rows``/``signature`` feed the adaptive loop: the engines
    compare actual output counts against the estimate (mid-query
    re-optimization) and record them in the feedback store under the
    signature.
    """

    table: str
    alias: str
    columns: list[str]
    predicate: ast.Expr | None = None
    estimated_rows: float | None = None
    signature: str | None = None

    def children(self) -> list[PlanNode]:
        return []


@dataclass
class SubqueryScanNode(PlanNode):
    """A derived table: the inner plan's outputs re-qualified as alias.*."""

    plan: PlanNode
    alias: str
    columns: list[str] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.plan]


@dataclass
class FilterNode(PlanNode):
    child: PlanNode
    predicate: ast.Expr

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class JoinNode(PlanNode):
    """Hash join; ``equi`` pairs (left expr, right expr), plus residual."""

    left: PlanNode
    right: PlanNode
    kind: str  # "inner" | "left" | "cross"
    equi: list[tuple[ast.Expr, ast.Expr]] = field(default_factory=list)
    residual: ast.Expr | None = None
    estimated_rows: float | None = None
    signature: str | None = None

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]


@dataclass
class AggregateNode(PlanNode):
    """Group-by aggregation producing named group and aggregate columns."""

    child: PlanNode
    group: list[tuple[ast.Expr, str]]
    aggregates: list[tuple[ast.FunctionCall, str]]

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class ProjectNode(PlanNode):
    """Computes output columns; hidden items carry sort keys."""

    child: PlanNode
    items: list[tuple[ast.Expr, str]]
    hidden: list[tuple[ast.Expr, str]] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class SortNode(PlanNode):
    """Sort by already-materialised output columns."""

    child: PlanNode
    keys: list[tuple[str, bool]]  # (column name, ascending)

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class DistinctNode(PlanNode):
    child: PlanNode

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class LimitNode(PlanNode):
    child: PlanNode
    limit: int | None
    offset: int | None

    def children(self) -> list[PlanNode]:
        return [self.child]

    @property
    def stop(self) -> int | None:
        """How many leading input rows the limit reads (None: all)."""
        return None if self.limit is None else (self.offset or 0) + self.limit


@dataclass
class UnionNode(PlanNode):
    """Concatenate child plans positionally; optional duplicate removal."""

    inputs: list[PlanNode]
    input_names: list[list[str]]
    distinct: bool

    def children(self) -> list[PlanNode]:
        return list(self.inputs)


@dataclass
class QueryPlan:
    """Root of a planned SELECT: the tree plus visible output names."""

    root: PlanNode
    output_names: list[str]


# --------------------------------------------------------------------------
# planner
# --------------------------------------------------------------------------


#: fallback cardinality when the catalog cannot answer (e.g. derived tables)
DEFAULT_ROW_ESTIMATE = 1000.0

#: rough textbook selectivities per conjunct shape
_RANGE_OPS = {"<", "<=", ">", ">="}


def _selectivity(conjunct: ast.Expr) -> float:
    """Static selectivity heuristic for one pushed-down conjunct."""
    if isinstance(conjunct, ast.BinaryOp):
        if conjunct.op == "=":
            return 0.15
        if conjunct.op in _RANGE_OPS:
            return 0.40
        if conjunct.op in ("!=", "<>"):
            return 0.85
        if conjunct.op == "LIKE":
            return 0.25
    if isinstance(conjunct, ast.Between):
        return 0.30
    if isinstance(conjunct, ast.InList):
        return min(0.15 * max(len(conjunct.items), 1), 0.5)
    if isinstance(conjunct, ast.IsNull):
        return 0.9 if conjunct.negated else 0.1
    return 0.5


class CatalogView:
    """The planner's minimal view of the catalog: columns and row counts."""

    def __init__(self, catalog: Any) -> None:
        self._catalog = catalog

    def columns_of(self, table: str) -> list[str]:
        if self._catalog is None or not self._catalog.has_table(table):
            raise TableNotFoundError(table)
        return [name.lower() for name in self._catalog.table(table).schema.column_names]

    def row_count_of(self, table: str) -> float:
        """Catalog cardinality for the static estimate; safe fallback."""
        if self._catalog is None or not self._catalog.has_table(table):
            return DEFAULT_ROW_ESTIMATE
        obj = self._catalog.table(table)
        partitions = getattr(obj, "partitions", None)
        if partitions is not None:
            # physical main+delta rows; dead versions inflate this a
            # little, which is acceptable for a planning estimate
            return float(sum(len(partition) for partition in partitions))
        try:
            return float(len(obj))
        except TypeError:  # a table object without __len__ (e.g. virtual)
            obs.count("sql.planner.rowcount_fallbacks")
            return DEFAULT_ROW_ESTIMATE


def plan_select(
    statement: "ast.SelectStatement | ast.UnionStatement",
    catalog: Any,
    feedback: "fb.CardinalityFeedback | None" = None,
) -> QueryPlan:
    """Plan a SELECT or UNION statement against the given catalog.

    With a ``feedback`` store the planner prefers observed cardinalities
    over its static estimates and may reorder inner-join chains.
    """
    if isinstance(statement, ast.UnionStatement):
        return _plan_union(statement, catalog, feedback)
    return _Planner(CatalogView(catalog), feedback).plan(statement)


def _plan_union(
    statement: ast.UnionStatement,
    catalog: Any,
    feedback: "fb.CardinalityFeedback | None" = None,
) -> QueryPlan:
    plans = [plan_select(select, catalog, feedback) for select in statement.selects]
    arity = len(plans[0].output_names)
    for plan in plans[1:]:
        if len(plan.output_names) != arity:
            raise PlanError(
                f"UNION branches have different column counts: "
                f"{arity} vs {len(plan.output_names)}"
            )
    # SQL semantics: plain UNION anywhere in the chain de-duplicates the
    # whole result; UNION ALL everywhere keeps duplicates.
    distinct = not all(statement.alls)
    output_names = plans[0].output_names
    tree: PlanNode = UnionNode(
        inputs=[plan.root for plan in plans],
        input_names=[plan.output_names for plan in plans],
        distinct=distinct,
    )
    sort_keys: list[tuple[str, bool]] = []
    for expr, ascending in statement.order_by:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            ordinal = expr.value
            if not 1 <= ordinal <= arity:
                raise PlanError(f"ORDER BY ordinal {ordinal} out of range")
            sort_keys.append((output_names[ordinal - 1], ascending))
        elif isinstance(expr, ast.ColumnRef) and expr.name in output_names:
            sort_keys.append((expr.name, ascending))
        else:
            raise PlanError(
                "ORDER BY on a UNION must reference an output column or ordinal"
            )
    if sort_keys:
        tree = SortNode(tree, sort_keys)
    if statement.limit is not None or statement.offset is not None:
        tree = LimitNode(tree, statement.limit, statement.offset)
    return QueryPlan(tree, output_names)


class _Planner:
    def __init__(
        self, catalog: CatalogView, feedback: "fb.CardinalityFeedback | None" = None
    ) -> None:
        self._catalog = catalog
        self._feedback = feedback
        self._counter = 0

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"__{prefix}{self._counter}"

    # -- source tree ---------------------------------------------------------

    def plan(self, statement: ast.SelectStatement) -> QueryPlan:
        if statement.from_table is None:
            return self._plan_projection_only(statement)

        statement = self._maybe_reorder_joins(statement)

        sources: dict[str, PlanNode] = {}
        source_order: list[str] = []
        root = self._plan_source(statement.from_table)
        sources[statement.from_table.alias] = root
        source_order.append(statement.from_table.alias)

        pending_joins: list[ast.JoinClause] = list(statement.joins)
        conjuncts = ast.split_conjuncts(statement.where)

        # 1. push single-source conjuncts down to their source — but not
        # into the nullable side of a LEFT JOIN: there a conjunct must see
        # the padded rows, so it stays above the joins
        remaining: list[ast.Expr] = []
        pushed: dict[str, list[ast.Expr]] = {alias: [] for alias in source_order}
        for clause in pending_joins:
            pushed[clause.table.alias] = []
        nullable = {clause.table.alias for clause in pending_joins if clause.kind == "left"}
        for conjunct in conjuncts:
            aliases = self._aliases_of(conjunct, statement)
            if len(aliases) == 1 and not aliases & nullable:
                pushed.setdefault(next(iter(aliases)), []).append(conjunct)
            else:
                remaining.append(conjunct)

        def finish_source(alias: str, node: PlanNode) -> PlanNode:
            predicate = ast.and_together(pushed.get(alias, []))
            if predicate is None:
                if isinstance(node, ScanNode):
                    self._annotate_scan(node)
                return node
            if isinstance(node, ScanNode):
                node.predicate = (
                    predicate
                    if node.predicate is None
                    else ast.BinaryOp("AND", node.predicate, predicate)
                )
                self._annotate_scan(node)
                return node
            return FilterNode(node, predicate)

        tree: PlanNode = finish_source(statement.from_table.alias, root)
        joined_aliases = {statement.from_table.alias}

        # 2. fold joins left-deep, harvesting equi conditions
        for clause in pending_joins:
            right = finish_source(clause.table.alias, self._plan_source(clause.table))
            equi: list[tuple[ast.Expr, ast.Expr]] = []
            residuals: list[ast.Expr] = []
            join_conjuncts = ast.split_conjuncts(clause.condition)
            kind = clause.kind
            if kind == "cross":
                # try to upgrade using WHERE conjuncts spanning both sides
                upgraded: list[ast.Expr] = []
                for conjunct in remaining:
                    aliases = self._aliases_of(conjunct, statement)
                    if aliases and aliases <= joined_aliases | {clause.table.alias} and clause.table.alias in aliases:
                        upgraded.append(conjunct)
                if upgraded:
                    kind = "inner"
                    join_conjuncts = upgraded
                    remaining = [c for c in remaining if c not in upgraded]
            for conjunct in join_conjuncts:
                pair = self._equi_pair(conjunct, joined_aliases, clause.table.alias, statement)
                if pair is not None:
                    equi.append(pair)
                else:
                    residuals.append(conjunct)
            tree = JoinNode(
                left=tree,
                right=right,
                kind=kind,
                equi=equi,
                residual=ast.and_together(residuals),
            )
            self._annotate_join(tree)
            joined_aliases.add(clause.table.alias)

        # 3. leftover WHERE conjuncts apply above the join tree
        leftover = ast.and_together(remaining)
        if leftover is not None:
            tree = FilterNode(tree, leftover)

        # 4. expand stars now that sources are known
        items = self._expand_items(statement)

        # 5. aggregation
        has_aggregates = bool(statement.group_by) or any(
            ast.contains_aggregate(item.expr) for item in items
        )
        if statement.having is not None and not has_aggregates:
            raise PlanError("HAVING without GROUP BY or aggregates")

        if has_aggregates:
            tree, rewrite = self._plan_aggregate(tree, statement, items)
            items = [
                ast.SelectItem(_rewrite(item.expr, rewrite), item.alias) for item in items
            ]
            having = _rewrite(statement.having, rewrite) if statement.having is not None else None
            if having is not None:
                tree = FilterNode(tree, having)
            order_exprs = [(_rewrite(e, rewrite), asc) for e, asc in statement.order_by]
        else:
            order_exprs = list(statement.order_by)

        # 6. projection with output naming
        named_items = self._name_items(items)
        project = ProjectNode(tree, named_items)
        output_names = [name for _, name in named_items]
        tree = project

        # 7. order by — resolve to output columns, adding hidden ones if needed
        sort_keys: list[tuple[str, bool]] = []
        for expr, ascending in order_exprs:
            name = self._resolve_order_key(expr, named_items)
            if name is None:
                name = self._fresh("sort")
                project.hidden.append((expr, name))
            sort_keys.append((name, ascending))

        if statement.distinct:
            tree = DistinctNode(tree)
        if sort_keys:
            tree = SortNode(tree, sort_keys)
        if statement.limit is not None or statement.offset is not None:
            tree = LimitNode(tree, statement.limit, statement.offset)
        _prune_scan_columns(tree)
        return QueryPlan(tree, output_names)

    # -- cardinality estimates & feedback-driven join order ------------------

    def _static_scan_estimate(self, table: str, conjuncts: list[ast.Expr]) -> float:
        estimate = self._catalog.row_count_of(table)
        for conjunct in conjuncts:
            estimate *= _selectivity(conjunct)
        return max(estimate, 1.0)

    def _annotate_scan(self, node: ScanNode) -> None:
        """Attach signature + cardinality estimate, preferring feedback."""
        if not node.table:
            return
        node.signature = fb.scan_signature(node.table, node.predicate)
        observed = (
            self._feedback.observed(node.signature) if self._feedback is not None else None
        )
        if observed is not None:
            node.estimated_rows = max(observed, 1.0)
        else:
            node.estimated_rows = self._static_scan_estimate(
                node.table, ast.split_conjuncts(node.predicate)
            )

    def _annotate_join(self, node: JoinNode) -> None:
        """Attach signature + estimate; the static rule is ``max(l, r)``
        for equi joins and ``l × r`` for pure cross products."""
        left_rows = getattr(node.left, "estimated_rows", None)
        right_rows = getattr(node.right, "estimated_rows", None)
        left_sig = getattr(node.left, "signature", None)
        right_sig = getattr(node.right, "signature", None)
        if left_sig is not None and right_sig is not None:
            node.signature = fb.join_signature(left_sig, right_sig, node.equi)
        left_rows = left_rows if left_rows is not None else DEFAULT_ROW_ESTIMATE
        right_rows = right_rows if right_rows is not None else DEFAULT_ROW_ESTIMATE
        if node.kind == "cross" and not node.equi:
            estimate = left_rows * right_rows
        else:
            estimate = max(left_rows, right_rows)
        if node.kind == "left":
            estimate = max(estimate, left_rows)
        for conjunct in ast.split_conjuncts(node.residual):
            estimate *= _selectivity(conjunct)
        estimate = max(estimate, 1.0)
        observed = (
            self._feedback.observed(node.signature)
            if self._feedback is not None and node.signature is not None
            else None
        )
        node.estimated_rows = max(observed, 1.0) if observed is not None else estimate

    def _maybe_reorder_joins(self, statement: ast.SelectStatement) -> ast.SelectStatement:
        """Feedback-driven greedy join reordering.

        Only fires when a feedback store is present, at least one base
        relation has an observed cardinality, and every join is inner or
        cross (outer joins are order-sensitive and never reordered).
        Relations are placed smallest-estimate-first, preferring ones
        connected to the already-placed set so equi predicates keep
        turning into hash joins. The reordered statement expresses every
        join as a cross clause with all conjuncts pooled in WHERE — the
        regular pushdown + cross→inner upgrade machinery then re-derives
        the equi joins for the new order.
        """
        feedback = self._feedback
        if feedback is None or statement.from_table is None or not statement.joins:
            return statement
        if any(clause.kind not in ("inner", "cross") for clause in statement.joins):
            return statement
        refs = [statement.from_table] + [clause.table for clause in statement.joins]
        if any(ref.subquery is not None for ref in refs):
            return statement
        if len({ref.alias for ref in refs}) != len(refs):
            return statement

        pool: list[ast.Expr] = list(ast.split_conjuncts(statement.where))
        for clause in statement.joins:
            pool.extend(ast.split_conjuncts(clause.condition))
        try:
            alias_sets = [
                (conjunct, self._aliases_of(conjunct, statement)) for conjunct in pool
            ]
        except PlanError:
            return statement  # regular planning will surface the error

        local: dict[str, list[ast.Expr]] = {ref.alias: [] for ref in refs}
        edges: dict[str, set[str]] = {ref.alias: set() for ref in refs}
        for conjunct, aliases in alias_sets:
            if len(aliases) == 1:
                alias = next(iter(aliases))
                if alias in local:
                    local[alias].append(conjunct)
            else:
                for a in aliases:
                    for b in aliases:
                        if a != b and a in edges and b in edges:
                            edges[a].add(b)

        estimates: dict[str, float] = {}
        informed = False
        for ref in refs:
            assert ref.name is not None
            signature = fb.scan_signature(ref.name, ast.and_together(local[ref.alias]))
            observed = feedback.observed(signature)
            if observed is not None:
                informed = True
                estimates[ref.alias] = max(observed, 1.0)
            else:
                estimates[ref.alias] = self._static_scan_estimate(
                    ref.name, local[ref.alias]
                )
        if not informed:
            return statement  # nothing observed yet: keep the written order

        position = {ref.alias: index for index, ref in enumerate(refs)}

        def rank(ref: ast.TableRef) -> tuple[float, int]:
            return (estimates[ref.alias], position[ref.alias])

        ordered = [min(refs, key=rank)]
        placed = {ordered[0].alias}
        rest = [ref for ref in refs if ref.alias not in placed]
        while rest:
            connected = [ref for ref in rest if edges[ref.alias] & placed]
            nxt = min(connected or rest, key=rank)
            ordered.append(nxt)
            placed.add(nxt.alias)
            rest = [ref for ref in rest if ref.alias != nxt.alias]

        if [ref.alias for ref in ordered] == [ref.alias for ref in refs]:
            return statement
        # hysteresis: only deviate from the written order when the new
        # driver is substantially smaller — near-ties would make repeated
        # executions flip-flop between orders for marginal gain
        if estimates[ordered[0].alias] * 2.0 > estimates[refs[0].alias]:
            return statement
        obs.count("sql.planner.reorders")
        return dataclass_replace(
            statement,
            from_table=ordered[0],
            joins=[
                ast.JoinClause(kind="cross", table=ref, condition=None)
                for ref in ordered[1:]
            ],
            where=ast.and_together(pool),
        )

    def _plan_projection_only(self, statement: ast.SelectStatement) -> QueryPlan:
        """SELECT without FROM: evaluate expressions over one virtual row."""
        items = [item for item in statement.items]
        if any(isinstance(item.expr, ast.Star) for item in items):
            raise PlanError("'*' requires a FROM clause")
        named = self._name_items(items)
        project = ProjectNode(ScanNode(table="", alias="", columns=[]), named)
        return QueryPlan(project, [name for _, name in named])

    def _plan_source(self, ref: ast.TableRef) -> PlanNode:
        if ref.subquery is not None:
            inner = self.plan(ref.subquery)
            return SubqueryScanNode(inner.root, ref.alias, inner.output_names)
        assert ref.name is not None
        columns = self._catalog.columns_of(ref.name)
        return ScanNode(table=ref.name, alias=ref.alias, columns=columns)

    # -- helpers --------------------------------------------------------------

    def _alias_columns(self, statement: ast.SelectStatement) -> dict[str, list[str]]:
        mapping: dict[str, list[str]] = {}
        refs = []
        if statement.from_table is not None:
            refs.append(statement.from_table)
        refs.extend(clause.table for clause in statement.joins)
        for ref in refs:
            if ref.subquery is not None:
                inner_names = self._subquery_output_names(ref.subquery)
                mapping[ref.alias] = inner_names
            else:
                mapping[ref.alias] = self._catalog.columns_of(ref.name or "")
        return mapping

    def _subquery_output_names(self, statement: ast.SelectStatement) -> list[str]:
        items = self._expand_items(statement)
        return [name for _, name in self._name_items(items)]

    def _aliases_of(self, expr: ast.Expr, statement: ast.SelectStatement) -> set[str]:
        """Which sources an expression references."""
        alias_columns = self._alias_columns(statement)
        aliases: set[str] = set()
        for ref in ast.collect_column_refs(expr):
            if ref.table is not None:
                aliases.add(ref.table)
            else:
                owners = [
                    alias for alias, cols in alias_columns.items() if ref.name in cols
                ]
                if len(owners) == 1:
                    aliases.add(owners[0])
                elif len(owners) > 1:
                    raise PlanError(f"ambiguous column {ref.name!r}: {owners}")
        return aliases

    def _equi_pair(
        self,
        conjunct: ast.Expr,
        left_aliases: set[str],
        right_alias: str,
        statement: ast.SelectStatement,
    ) -> tuple[ast.Expr, ast.Expr] | None:
        """Extract (left side, right side) of an equality across the join."""
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        a_aliases = self._aliases_of(conjunct.left, statement)
        b_aliases = self._aliases_of(conjunct.right, statement)
        if a_aliases and a_aliases <= left_aliases and b_aliases == {right_alias}:
            return conjunct.left, conjunct.right
        if b_aliases and b_aliases <= left_aliases and a_aliases == {right_alias}:
            return conjunct.right, conjunct.left
        return None

    def _expand_items(self, statement: ast.SelectStatement) -> list[ast.SelectItem]:
        alias_columns = self._alias_columns(statement)
        items: list[ast.SelectItem] = []
        for item in statement.items:
            if isinstance(item.expr, ast.Star):
                targets = (
                    [item.expr.table]
                    if item.expr.table is not None
                    else list(alias_columns)
                )
                for alias in targets:
                    if alias not in alias_columns:
                        raise PlanError(f"unknown alias {alias!r} in star expansion")
                    for column in alias_columns[alias]:
                        items.append(
                            ast.SelectItem(ast.ColumnRef(column, table=alias), column)
                        )
            else:
                items.append(item)
        return items

    def _name_items(self, items: list[ast.SelectItem]) -> list[tuple[ast.Expr, str]]:
        named: list[tuple[ast.Expr, str]] = []
        used: set[str] = set()
        for index, item in enumerate(items):
            if item.alias:
                name = item.alias.lower()
            elif isinstance(item.expr, ast.ColumnRef):
                name = item.expr.name
            elif isinstance(item.expr, ast.FunctionCall):
                name = item.expr.name.lower()
            else:
                name = f"c{index}"
            base = name
            suffix = 1
            while name in used:
                suffix += 1
                name = f"{base}_{suffix}"
            used.add(name)
            named.append((item.expr, name))
        return named

    def _plan_aggregate(
        self,
        tree: PlanNode,
        statement: ast.SelectStatement,
        items: list[ast.SelectItem],
    ) -> tuple[PlanNode, dict[str, ast.Expr]]:
        """Build the AggregateNode and the rewrite map for outer expressions."""
        rewrite: dict[str, ast.Expr] = {}
        group: list[tuple[ast.Expr, str]] = []
        for index, expr in enumerate(statement.group_by):
            name = None
            for item in items:
                if item.alias and str(item.expr) == str(expr):
                    name = item.alias.lower()
                    break
            if name is None:
                name = (
                    expr.name if isinstance(expr, ast.ColumnRef) else f"__g{index}"
                )
            group.append((expr, name))
            rewrite[str(expr)] = ast.ColumnRef(name)

        aggregates: list[tuple[ast.FunctionCall, str]] = []

        def harvest(expr: ast.Expr) -> None:
            if isinstance(expr, ast.FunctionCall) and expr.name in ast.AGGREGATE_FUNCTIONS:
                key = str(expr)
                if key not in rewrite:
                    name = f"__a{len(aggregates)}"
                    aggregates.append((expr, name))
                    rewrite[key] = ast.ColumnRef(name)
                return
            for child in expr.children():
                harvest(child)

        for item in items:
            harvest(item.expr)
        if statement.having is not None:
            harvest(statement.having)
        for expr, _asc in statement.order_by:
            harvest(expr)
        return AggregateNode(tree, group, aggregates), rewrite

    def _resolve_order_key(
        self, expr: ast.Expr, named_items: list[tuple[ast.Expr, str]]
    ) -> str | None:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            ordinal = expr.value
            if not 1 <= ordinal <= len(named_items):
                raise PlanError(f"ORDER BY ordinal {ordinal} out of range")
            return named_items[ordinal - 1][1]
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            for _item_expr, name in named_items:
                if name == expr.name:
                    return name
        key = str(expr)
        for item_expr, name in named_items:
            if str(item_expr) == key:
                return name
        return None


def _prune_scan_columns(root: PlanNode) -> None:
    """Narrow every base-table scan of one SELECT to the columns it needs.

    A scan keeps a column when any expression of the tree names it —
    qualified with the scan's alias, or unqualified (then every scan that
    has a column of that name keeps it, so an ambiguous reference stays
    ambiguous). ``SELECT *`` was expanded into one reference per column
    beforehand and therefore keeps them all. Derived tables are left
    alone: their own planning pass pruned them against their own scope.
    """
    scans: list[ScanNode] = []
    referenced: set[tuple[str | None, str]] = set()
    nodes: list[Any] = [root]  # plan nodes and expressions, walked as one stack
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.ColumnRef):
            referenced.add((node.table, node.name))
        elif isinstance(node, SubqueryScanNode):
            continue
        elif isinstance(node, PlanNode):
            if isinstance(node, ScanNode):
                scans.append(node)
            nodes.extend(_node_expressions(node))
        nodes.extend(node.children())
    for scan in scans:
        scan.columns = [
            column
            for column in scan.columns
            if (scan.alias, column) in referenced or (None, column) in referenced
        ]


def _node_expressions(node: PlanNode) -> list[ast.Expr]:
    """Every expression a plan node evaluates over its input."""
    if isinstance(node, ScanNode):
        return [node.predicate] if node.predicate is not None else []
    if isinstance(node, FilterNode):
        return [node.predicate]
    if isinstance(node, JoinNode):
        exprs = [side for pair in node.equi for side in pair]
        return exprs + ([node.residual] if node.residual is not None else [])
    if isinstance(node, AggregateNode):
        return [expr for expr, _name in node.group] + [call for call, _name in node.aggregates]
    if isinstance(node, ProjectNode):
        return [expr for expr, _name in node.items + node.hidden]
    return []


def _rewrite(expr: ast.Expr | None, mapping: dict[str, ast.Expr]) -> ast.Expr | None:
    """Replace sub-expressions (matched by their string form) per mapping."""
    if expr is None:
        return None
    replacement = mapping.get(str(expr))
    if replacement is not None:
        return replacement
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, _rewrite(expr.left, mapping), _rewrite(expr.right, mapping))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _rewrite(expr.operand, mapping))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(_rewrite(expr.operand, mapping), expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(
            _rewrite(expr.operand, mapping),
            tuple(_rewrite(item, mapping) for item in expr.items),
            expr.negated,
        )
    if isinstance(expr, ast.Between):
        return ast.Between(
            _rewrite(expr.operand, mapping),
            _rewrite(expr.low, mapping),
            _rewrite(expr.high, mapping),
            expr.negated,
        )
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(
            expr.name,
            tuple(_rewrite(arg, mapping) for arg in expr.args),
            expr.distinct,
        )
    if isinstance(expr, ast.CaseWhen):
        return ast.CaseWhen(
            tuple(
                (_rewrite(cond, mapping), _rewrite(result, mapping))
                for cond, result in expr.branches
            ),
            _rewrite(expr.otherwise, mapping),
        )
    return expr


def explain(plan: QueryPlan) -> str:
    """Readable plan tree for debugging and tests."""
    lines: list[str] = []

    def visit(node: PlanNode, depth: int) -> None:
        indent = "  " * depth
        if isinstance(node, ScanNode):
            extra = f" filter={node.predicate}" if node.predicate is not None else ""
            lines.append(f"{indent}Scan {node.table} as {node.alias}{extra}")
        elif isinstance(node, SubqueryScanNode):
            lines.append(f"{indent}SubqueryScan as {node.alias}")
        elif isinstance(node, FilterNode):
            lines.append(f"{indent}Filter {node.predicate}")
        elif isinstance(node, JoinNode):
            keys = ", ".join(f"{l}={r}" for l, r in node.equi)
            lines.append(f"{indent}Join[{node.kind}] {keys}")
        elif isinstance(node, AggregateNode):
            groups = ", ".join(name for _, name in node.group)
            aggs = ", ".join(str(call) for call, _ in node.aggregates)
            lines.append(f"{indent}Aggregate group=[{groups}] aggs=[{aggs}]")
        elif isinstance(node, ProjectNode):
            names = ", ".join(name for _, name in node.items)
            lines.append(f"{indent}Project [{names}]")
        elif isinstance(node, SortNode):
            keys = ", ".join(f"{name} {'ASC' if asc else 'DESC'}" for name, asc in node.keys)
            lines.append(f"{indent}Sort [{keys}]")
        elif isinstance(node, DistinctNode):
            lines.append(f"{indent}Distinct")
        elif isinstance(node, LimitNode):
            lines.append(f"{indent}Limit {node.limit} offset {node.offset}")
        else:
            lines.append(f"{indent}{type(node).__name__}")
        for child in node.children():
            visit(child, depth + 1)

    visit(plan.root, 0)
    return "\n".join(lines)
