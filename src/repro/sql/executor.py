"""The vectorised (column-at-a-time) execution engine.

**Paper mapping:** Section II.A / Figure 2 — the "vectorized engine for
OLAP and mixed workloads" at the heart of the HANA core. **Role in the
query path:** last stage of parse → plan → execute; it receives the
:class:`~repro.sql.planner.QueryPlan` produced by
:mod:`repro.sql.planner` and materialises the result batch the
:class:`~repro.core.database.Database` facade turns into a
:class:`~repro.core.result.QueryResult`.

Operators consume and produce whole :class:`Batch` objects; expression
evaluation is NumPy-vectorised. At the leaves, scans

* prune partitions with range-boundary analysis and the database's
  registered *semantic pruning hooks* (the aging mechanism of Section III),
* rewrite ``CONTAINS(column, 'terms')`` conjuncts into inverted-index
  probes when a text index exists (Section II.C),
* apply MVCC visibility and any pushed-down predicate per partition.

**The scan contract is codes first, values last** (the dictionary-encoded
scan of Section II.A). A scan reads only the columns the planner left in
``ScanNode.columns``. Per partition, :func:`filter_positions` — shared
with ``UPDATE``/``DELETE`` — turns each ``column <op> literal(s)`` conjunct
into a dictionary lookup plus an integer test on the main fragment's value
ids, so the predicate runs before anything is decoded; the delta fragment
and every other conjunct go through ``evaluate`` over the predicate's
columns only. Which positions that starts from is :func:`access_path`'s
choice, made once for scans and DML alike: all visible rows, or — for
``key = literal`` / ``key IN (literals)`` on a declared single-column
primary key — the few the key column's position indexes name.
:func:`_read_column` then decodes the surviving positions:
numbers and booleans to the arrays ``column_array`` would give, strings
and dates to a :class:`~repro.sql.expressions.Coded` column (codes plus
value table). Coded columns stay coded through filters, gathers, joins
and projections of bare column references; ``GROUP BY``, ``DISTINCT``,
``COUNT(DISTINCT)``, equi-join keys, ``MIN``/``MAX`` and ``ORDER BY``
work on integer stand-ins (:func:`repro.sql.kernels.match_keys`, :func:`~repro.sql.kernels.rank_table`) whose
only Python-level work is per *distinct* value. Values appear when an
expression is evaluated (``Batch.column``) or rows are produced
(``Batch.rows``). Result order without ``ORDER BY`` is defined: groups by
first appearance of their keys, join output in left-row order with
matches in right-row order, ``DISTINCT`` keeps first occurrences.

**One operator table:** :data:`OPERATORS` maps each plan-node type to
one function ``(node, input batches, context, top) → Batch``. The
interpreter (:func:`_dispatch_node`) runs a node's inputs and then its
operator; :mod:`repro.sql.compiler` generates a function that makes the
same calls in a fixed order. Two drivers, one set of operators.

**Observability:** every plan-node dispatch passes through
:func:`_execute_node`, which hands the node to ``context.profiler`` when
one is installed (``session.profile(sql)`` — see
:mod:`repro.obs.profiler`); row counters additionally feed
:mod:`repro.obs` when collectors are enabled. Both hooks are per-node
(never per-row) and no-ops by default.

**Adaptivity:** the same per-node boundary feeds
:func:`repro.sql.feedback.observe_actual` — actual row counts of signed
scans and joins go to the database's cardinality feedback store, and a
>10× estimate blow-out raises
:class:`~repro.sql.feedback.ReplanSignal` for mid-query
re-optimization. Completed scans are memoised on
``context.scan_cache`` — keyed by signature *plus* bound literal
values and column subset, so same-shape scans with different
constants never share a batch — and a re-planned attempt resumes
from them instead of re-reading (and re-charging) the data. See
``docs/OPTIMIZER.md``.
"""

from __future__ import annotations

import datetime
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.columnstore.column import MainColumn
from repro.columnstore.compression import NULL_VID
from repro.columnstore.dictionary import SortedDictionary
from repro.columnstore.partition import CompositePartitioning, RangePartitioning
from repro.columnstore.table import ColumnTable, TablePartition
from repro.core.types import TypeCode
from repro.errors import PlanError
from repro.sql import ast
from repro.sql import feedback as fb
from repro.sql.context import ExecutionContext
from repro.sql.expressions import (
    Batch,
    Coded,
    Column,
    as_float,
    concat_columns,
    evaluate,
)
from repro.sql.kernels import (
    as_coded,
    group_ids,
    grouped_count,
    grouped_extreme,
    grouped_sum,
    join_pairs,
    match_keys,
    nulls,
    rank_table,
    stable_argsort,
    unique_inverse,
)
from repro.sql.planner import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    QueryPlan,
    ScanNode,
    SortNode,
    SubqueryScanNode,
    UnionNode,
)


def execute(plan: QueryPlan, context: ExecutionContext) -> Batch:
    """Run a planned query; the result batch's keys are the output names."""
    return output(plan, _execute_node(plan.root, context))


def output(plan: QueryPlan, batch: Batch) -> Batch:
    """The root batch without its hidden sort columns."""
    return Batch({name: batch.columns[name] for name in plan.output_names}, len(batch))


def _execute_node(node: PlanNode, context: ExecutionContext, top: int | None = None) -> Batch:
    """Run one plan node, recording it when a profiler is installed.

    This boundary is also the adaptive loop's measurement point: signed
    nodes report their actual row count to the feedback store and may
    raise :class:`~repro.sql.feedback.ReplanSignal` on a >10× estimate
    blow-out (see :func:`repro.sql.feedback.observe_actual`). ``top``: the
    caller (a LIMIT) reads no more than this many leading rows; a sort
    then orders only the rows that can be among them.
    """
    profiler = context.profiler
    if profiler is None:
        batch = _dispatch_node(node, context, top)
        _observe(node, batch, context)
        return batch
    with profiler.operator(node) as operator:
        batch = _dispatch_node(node, context, top)
        operator.rows = len(batch)
        _observe(node, batch, context)
        return batch


def _observe(node: PlanNode, batch: Batch, context: ExecutionContext) -> None:
    """Feed the node's actual row count to the adaptive loop — unless the
    scan flagged the batch as exempt: a memo-served scan would
    double-record the count it already reported when first materialised
    (and could re-raise the very blow-out that triggered the re-plan),
    and a governor-truncated scan would record a degraded count as a true
    cardinality, biasing future estimates low."""
    if context.feedback_exempt:
        context.feedback_exempt = False
        return
    fb.observe_actual(node, len(batch), context)


def _dispatch_node(node: PlanNode, context: ExecutionContext, top: int | None = None) -> Batch:
    """Run the node's inputs, then its entry in :data:`OPERATORS`."""
    operator = OPERATORS.get(type(node))
    if operator is None:
        raise PlanError(f"vectorised engine cannot execute {type(node).__name__}")
    below = node.stop if type(node) is LimitNode else None
    inputs = [_execute_node(child, context, below) for child in node.children()]
    return operator(node, inputs, context, top)


# --------------------------------------------------------------------------
# operators: (node, input batches, context, top) -> batch
# --------------------------------------------------------------------------


def _subquery_scan(
    node: SubqueryScanNode, inputs: list[Batch], context: ExecutionContext, top: int | None
) -> Batch:
    (inner,) = inputs
    renamed = {f"{node.alias}.{name}": inner.columns[name] for name in node.columns}
    return Batch(renamed, len(inner))


def _filter(
    node: FilterNode, inputs: list[Batch], context: ExecutionContext, top: int | None
) -> Batch:
    (child,) = inputs
    return child.filter(np.asarray(evaluate(node.predicate, child, context), dtype=bool))


def _project(
    node: ProjectNode, inputs: list[Batch], context: ExecutionContext, top: int | None
) -> Batch:
    (child,) = inputs
    columns: dict[str, Column] = {}
    for expr, name in list(node.items) + list(node.hidden):
        columns[name] = _operand(expr, child, context)
    return Batch(columns, len(child))


def _sort(
    node: SortNode, inputs: list[Batch], context: ExecutionContext, top: int | None
) -> Batch:
    (child,) = inputs
    return child.take(_sort_order(child, node.keys, top))


def _limit(
    node: LimitNode, inputs: list[Batch], context: ExecutionContext, top: int | None
) -> Batch:
    (child,) = inputs
    stop = len(child) if node.stop is None else min(node.stop, len(child))
    return child.take(np.arange(node.offset or 0, stop))


def _union(
    node: UnionNode, inputs: list[Batch], context: ExecutionContext, top: int | None
) -> Batch:
    target_names = node.input_names[0]
    parts = [
        Batch(
            {target: batch.columns[source] for target, source in zip(target_names, names)},
            len(batch),
        )
        for batch, names in zip(inputs, node.input_names)
    ]
    merged = Batch.concat(parts)
    return _distinct(merged) if node.distinct else merged


# --------------------------------------------------------------------------
# scan
# --------------------------------------------------------------------------


def _execute_scan(
    node: ScanNode, inputs: list[Batch], context: ExecutionContext, top: int | None
) -> Batch:
    """Scan with per-query memoisation keyed by signature + bound values.

    The memo exists for mid-query re-optimization: when a
    :class:`~repro.sql.feedback.ReplanSignal` aborts an attempt, the
    re-planned attempt finds identical scans (same table, predicate,
    constants, and columns — possibly under a different alias) already
    materialised and resumes from them — no re-read, no double governor
    charge. The key must be *value*-inclusive: the literal-stripped
    signature alone would collide same-shape scans with different
    constants (a self-join's two sides) or different column needs, which
    is a wrong-results bug, not a cache miss. Truncated (governor-
    degraded) scans are never memoised.
    """
    if not node.table:  # FROM-less SELECT: one virtual row
        return Batch({}, 1)
    cache = context.scan_cache
    key = _scan_memo_key(node)
    if cache is None or key is None:
        return _execute_scan_uncached(node, context)
    cached = cache.get(key)
    if cached is not None:
        columns, length = cached
        context.bump("scans_reused")
        obs.count("sql.executor.scans_reused")
        context.feedback_exempt = True  # count was recorded when materialised
        return Batch(
            {f"{node.alias}.{name}": array for name, array in columns.items()}, length
        )
    batch = _execute_scan_uncached(node, context)
    if not context.feedback_exempt:  # a truncated batch is not the scan's output
        cache[key] = (
            {key_.split(".", 1)[1]: array for key_, array in batch.columns.items()},
            len(batch),
        )
    return batch


def _scan_memo_key(node: ScanNode) -> str | None:
    """Value-inclusive memo key: signature + bound literals + columns."""
    if node.signature is None:
        return None
    values = ";".join(
        repr(literal.value) for literal in _predicate_literals(node.predicate)
    )
    return f"{node.signature}|vals={values}|cols={','.join(sorted(node.columns))}"


def _predicate_literals(expr: ast.Expr | None) -> list[ast.Literal]:
    """Literal leaves of a predicate, in deterministic traversal order."""
    if expr is None:
        return []
    out: list[ast.Literal] = []

    def walk(node: ast.Expr) -> None:
        if isinstance(node, ast.Literal):
            out.append(node)
            return
        for child in node.children():
            walk(child)

    walk(expr)
    return out


def _execute_scan_uncached(node: ScanNode, context: ExecutionContext) -> Batch:
    database = context.database
    if database is None:
        raise PlanError("scan requires a database in the execution context")
    table = database.catalog.table(node.table)
    if not isinstance(table, ColumnTable):
        return _scan_rowstore(node, table, context)

    conjuncts = ast.split_conjuncts(node.predicate)
    ordinals = _prune_partitions(table, conjuncts, context)
    index_positions = _contains_probe(node, table, conjuncts, database)
    start_positions, conjuncts = access_path(table, conjuncts, node.alias, context)

    governor = context.governor
    parts: list[Batch] = []
    for ordinal in ordinals:
        if governor is not None and governor.should_stop:
            context.feedback_exempt = True  # remaining partitions dropped
            break
        partition = table.partitions[ordinal]
        positions = start_positions(partition)
        if index_positions is not None:
            allowed = index_positions.get(partition.name, set())
            if not allowed:
                continue
            hits = np.fromiter(allowed, dtype=np.int64, count=len(allowed))
            positions = positions[np.isin(positions, hits)]
        if governor is not None:
            # batch-granular yield point: truncate instead of overshooting
            # the soft row budget, then charge what survives
            remaining = governor.remaining_rows()
            if remaining is not None and len(positions) > remaining:
                positions = positions[:remaining]
                context.feedback_exempt = True  # degraded, not a true count
            governor.charge(
                rows=len(positions),
                bytes_=len(positions) * 8 * max(len(node.columns), 1),
            )
        if len(positions) == 0:
            continue
        context.bump("rows_scanned", len(positions))
        obs.count("sql.executor.rows_scanned", len(positions))
        positions = filter_positions(partition, positions, conjuncts, node.alias, context)
        columns = {
            f"{node.alias}.{name}": _read_column(partition, name, positions)
            for name in map(str.lower, node.columns)
        }
        parts.append(Batch(columns, len(positions)))
    if not parts:
        empty = {
            f"{node.alias}.{name.lower()}": np.empty(0, dtype=object)
            for name in node.columns
        }
        return Batch(empty, 0)
    return Batch.concat(parts)


def access_path(
    table: ColumnTable,
    conjuncts: list[ast.Expr],
    alias: str | None,
    context: ExecutionContext,
) -> tuple[Callable[[TablePartition], np.ndarray], list[ast.Expr]]:
    """Where a scan, UPDATE or DELETE of ``table`` starts: a function
    giving the (ascending) visible positions of a partition to look at,
    and the conjuncts :func:`filter_positions` still has to test there.

    A conjunct ``key = literal`` / ``key IN (literals)`` on the table's
    single-column primary key, its literals of the key's stored type
    (:func:`_code_test`'s rule), is answered by the key column's position
    indexes (:meth:`TablePartition.key_positions`) and is thereby spent.
    Every other statement starts from all visible rows, as ever. The
    choice reads the schema and the statement only; ``key_lookups`` in the
    context metrics counts the index probes next to ``rows_scanned``.
    """
    snapshot, own = context.snapshot_cid, context.own_tid
    key = table.schema.key_column
    if key is not None:
        for index, conjunct in enumerate(conjuncts):
            test = _code_test(conjunct, alias, table.partitions[0])
            if test is None or test[0] != key or test[1] not in ("=", "IN") or test[3]:
                continue
            literals = test[2]

            def by_key(partition: TablePartition) -> np.ndarray:
                context.bump("key_lookups", len(literals))
                obs.count("sql.executor.key_lookups", len(literals))
                return partition.key_positions(literals, snapshot, own)

            return by_key, conjuncts[:index] + conjuncts[index + 1 :]
    return (lambda partition: partition.visible_positions(snapshot, own)), conjuncts


#: the comparison that holds after swapping the operands
_FLIP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

_INTEGER_TYPES = (TypeCode.INTEGER, TypeCode.BIGINT)
_FLOAT_TYPES = (TypeCode.DOUBLE, TypeCode.DECIMAL)
#: types a scan hands on decoded; every other type leaves it as a Coded column
_ARRAY_TYPES = _INTEGER_TYPES + _FLOAT_TYPES + (TypeCode.BOOLEAN,)


def filter_positions(
    partition: TablePartition,
    positions: np.ndarray,
    conjuncts: list[ast.Expr],
    alias: str | None,
    context: ExecutionContext,
) -> np.ndarray:
    """The given (ascending) positions of one partition whose rows satisfy
    every conjunct — the one WHERE evaluation of scans, UPDATE and DELETE.

    *Codes first*: on the main fragment a ``column <op> literal(s)``
    conjunct is a dictionary lookup plus an integer test on value ids
    (:func:`_main_mask`), which narrows the positions before anything is
    decoded. The same conjuncts see the delta fragment's exact Python
    values. Whatever cannot be put that way is handed to
    :func:`~repro.sql.expressions.evaluate` over the surviving rows and
    the columns it references, nothing else. ``alias`` qualifies the
    column keys (``None``: bare names, as DML predicates use them).
    """
    if not conjuncts:
        return positions
    n_main = partition.n_main
    split = int(np.searchsorted(positions, n_main))
    main, delta = positions[:split], positions[split:]
    prefix = f"{alias}." if alias else ""

    on_codes: list[ast.Expr] = []
    code_columns: set[str] = set()
    residual: list[ast.Expr] = []
    for conjunct in conjuncts:
        test = _code_test(conjunct, alias, partition)
        mask = None if test is None else _main_mask(partition.main[test[0]], main, *test[1:])
        if mask is None:
            residual.append(conjunct)
        else:
            main = main[mask]
            on_codes.append(conjunct)
            code_columns.add(test[0])
    if on_codes and len(delta):
        exact = {
            prefix + name: _delta_rows(partition, name, delta, exact=True)
            for name in code_columns
        }
        mask = evaluate(ast.and_together(on_codes), Batch(exact, len(delta)), context)
        delta = delta[np.asarray(mask, dtype=bool)]
    positions = np.concatenate([main, delta])
    if residual and len(positions):
        predicate = ast.and_together(residual)
        names = {ref.name for ref in ast.collect_column_refs(predicate)}
        columns = {
            prefix + name: _read_column(partition, name, positions)
            for name in sorted(names & partition.main.keys())
        }
        mask = evaluate(predicate, Batch(columns, len(positions)), context)
        positions = positions[np.asarray(mask, dtype=bool)]
    return positions


def _code_test(
    conjunct: ast.Expr, alias: str | None, partition: TablePartition
) -> tuple[str, str, tuple[Any, ...], bool] | None:
    """``(column, op, literals, negated)`` when the conjunct compares one
    column of the partition with literals of its stored type, else None.

    Only literal types whose comparison with the stored values is the
    same on value ids as on decoded arrays qualify: ``VARCHAR = 5`` or
    ``INT = 12.0`` stay with ``evaluate`` (which answers them as ever).
    """
    negated = False
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in _FLIP:
        operand, other, op = conjunct.left, conjunct.right, conjunct.op
        if isinstance(operand, ast.Literal):
            operand, other, op = other, operand, _FLIP[op]
        literals: tuple[ast.Expr, ...] = (other,)
    elif isinstance(conjunct, ast.InList):
        operand, literals, op, negated = conjunct.operand, conjunct.items, "IN", conjunct.negated
    elif isinstance(conjunct, ast.Between):
        operand, literals = conjunct.operand, (conjunct.low, conjunct.high)
        op, negated = "BETWEEN", conjunct.negated
    else:
        return None
    if not isinstance(operand, ast.ColumnRef) or operand.table not in (None, alias):
        return None
    column = partition.main.get(operand.name)
    if column is None:
        return None
    values = []
    for literal in literals:
        if not isinstance(literal, ast.Literal) or not _fits(column.dtype.code, literal.value):
            return None
        values.append(literal.value)
    return operand.name, op, tuple(values), negated


def _fits(stored: TypeCode, value: Any) -> bool:
    """Is ``value`` a literal of the stored type — one that compares with
    the column's values exactly as with their value ids?"""
    kind = type(value)
    if stored in _INTEGER_TYPES:
        return kind is int
    if stored in _FLOAT_TYPES:  # float64 holds these ints exactly
        return kind is float or (kind is int and abs(value) <= 2**53)
    return kind is str and stored is TypeCode.VARCHAR


def _main_mask(
    column: MainColumn, positions: np.ndarray, op: str, literals: tuple[Any, ...], negated: bool
) -> np.ndarray | None:
    """``column <op> literals`` at main-fragment positions, on value ids.

    ``vid_of`` answers :data:`NULL_VID` for a literal the dictionary does
    not hold — the id the NULL rows carry — so an absent literal is
    skipped, never compared. Ranges need value order to be id order,
    which only a :class:`SortedDictionary` promises; for an append-order
    dictionary the answer is None and the caller compares values.
    """
    dictionary, encoded = column.dictionary, column.encoded
    if op in ("=", "<>", "IN"):
        hit = np.zeros(len(positions), dtype=bool)
        for literal in literals:
            vid = dictionary.vid_of(literal)
            if vid != NULL_VID:
                hit |= encoded.scan_eq(vid)[positions]
        if op != "<>" and not negated:
            return hit
        return ~hit & ~encoded.scan_eq(NULL_VID)[positions]
    if not isinstance(dictionary, SortedDictionary):
        return None  # append order: value ids say nothing about value order
    if op == "BETWEEN":
        low, high = dictionary.range_vids(*literals)
    elif op in ("<", "<="):
        low, high = dictionary.range_vids(high=literals[0], high_inclusive=op == "<=")
    else:
        low, high = dictionary.range_vids(low=literals[0], low_inclusive=op == ">=")
    vids = encoded.take(positions)
    inside = (vids >= low) & (vids < high)  # low >= 0 keeps NULL_VID out
    return ~inside & (vids != NULL_VID) if negated else inside


def _delta_rows(
    partition: TablePartition, name: str, positions: np.ndarray, exact: bool = False
) -> np.ndarray:
    """One column's delta-fragment rows at the given partition positions,
    and only those (counted on ``sql.executor.delta_values_read``).

    :meth:`DeltaColumn.array` at those rows — or, ``exact``, the stored
    Python values as an object array: an INTEGER delta holding a NULL is
    ``float64`` in the former, too coarse to compare beyond 2**53.
    """
    delta = partition.delta[name]
    local = positions - partition.n_main
    obs.count("sql.executor.delta_values_read", len(local))
    if exact:
        return np.asarray(delta.values_at(local), dtype=object)
    return delta.array(local)


def _read_column(partition: TablePartition, name: str, positions: np.ndarray) -> Column:
    """One column at the given (ascending) positions — *values last*.

    Numeric and boolean columns come back as ``column_array(name)[positions]``
    would (the dtype follows the whole fragments: an INTEGER column is
    ``float64`` once any of its rows is NULL) without decoding any other
    row — main or delta; every other type as a :class:`Coded` column over
    the main dictionary's decode table plus the delta rows read. The delta
    is read only where the positions reach into it — or, for a numeric
    column, as an empty slice when that sets the dtype (no main fragment,
    or a delta holding a NULL).
    """
    main = partition.main[name]
    split = int(np.searchsorted(positions, len(main)))
    coded = main.dtype.code not in _ARRAY_TYPES
    parts: list[Column] = []
    if len(main):
        vids = main.encoded.take(positions[:split])
        parts.append(Coded(vids, main.lookup()) if coded else main.lookup()[vids])
    delta = partition.delta[name]
    typed_by_delta = not coded and len(delta) and (not len(main) or delta.has_null())
    if split < len(positions) or typed_by_delta:
        values = _delta_rows(partition, name, positions[split:])
        parts.append(Coded.from_values(values) if coded else values)
    if not parts:
        return np.empty(0, dtype=object)
    return parts[0] if len(parts) == 1 else concat_columns(parts)


def _simple_filter_triples(
    conjuncts: list[ast.Expr],
) -> list[tuple[str, str, Any]]:
    """Conjuncts of the form column <op> literal, as pushdown triples."""
    triples = []
    for conjunct in conjuncts:
        if not isinstance(conjunct, ast.BinaryOp) or conjunct.op not in _FLIP:
            continue
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal):
            triples.append((left.name, conjunct.op, right.value))
        elif isinstance(right, ast.ColumnRef) and isinstance(left, ast.Literal):
            triples.append((right.name, _FLIP[conjunct.op], left.value))
    return triples


def _scan_rowstore(node: ScanNode, table: Any, context: ExecutionContext) -> Batch:
    """Scan a row table (or a federated virtual table) into one batch."""
    if getattr(table, "is_virtual", False) and node.predicate is not None:
        triples = _simple_filter_triples(ast.split_conjuncts(node.predicate))
        rows = table.scan_with_filters(triples)
    else:
        rows = table.scan(context.snapshot_cid, context.own_tid)
    governor = context.governor
    if governor is not None:
        remaining = governor.remaining_rows()
        if remaining is not None and len(rows) > remaining:
            rows = rows[:remaining]
            context.feedback_exempt = True  # degraded, not a true count
        governor.charge(
            rows=len(rows),
            bytes_=len(rows) * 8 * max(len(table.schema.column_names), 1),
        )
    names = [name.lower() for name in table.schema.column_names]
    columns: dict[str, np.ndarray] = {}
    for index, name in enumerate(names):
        values = [row[index] for row in rows]
        from repro.sql.functions import narrow_to_array

        columns[f"{node.alias}.{name}"] = narrow_to_array(values)
    batch = Batch(columns, len(rows))
    context.bump("rows_scanned", len(rows))
    obs.count("sql.executor.rows_scanned", len(rows))
    if node.predicate is not None:
        mask = np.asarray(evaluate(node.predicate, batch, context), dtype=bool)
        batch = batch.filter(mask)
    return batch


def _prune_partitions(
    table: ColumnTable, conjuncts: list[ast.Expr], context: ExecutionContext
) -> list[int]:
    """Range pruning plus the database's semantic (aging) pruning hooks."""
    ordinals = list(range(len(table.partitions)))
    spec = table.partitioning
    if isinstance(spec, (RangePartitioning, CompositePartitioning)):
        stored = table.schema.column(spec.column).dtype.code
        low, high = _column_bounds(conjuncts, spec.column, stored)
        if low is not None or high is not None:
            survivors = set(spec.prune(low, high))
            pruned = [o for o in ordinals if o in survivors]
            context.bump("partitions_pruned", len(ordinals) - len(pruned))
            obs.count("sql.executor.partitions_pruned", len(ordinals) - len(pruned), kind="range")
            ordinals = pruned
    database = context.database
    for hook in getattr(database, "pruning_hooks", []):
        kept = hook(table, conjuncts, context)
        if kept is not None:
            pruned = [o for o in ordinals if o in kept]
            context.bump("partitions_pruned", len(ordinals) - len(pruned))
            obs.count("sql.executor.partitions_pruned", len(ordinals) - len(pruned), kind="semantic")
            ordinals = pruned
    return ordinals


def _column_bounds(
    conjuncts: list[ast.Expr], column: str, stored: TypeCode
) -> tuple[Any, Any]:
    """Derive [low, high] bounds on ``column`` from simple conjuncts.

    Only literals of the column's stored type (:func:`_bounds_column`)
    bound it — the range boundaries are of that type, and ``id = '7'``
    must find no row, not compare ``'7'`` with an integer boundary.
    """
    low: Any = None
    high: Any = None

    def tighten(new_low: Any = None, new_high: Any = None) -> None:
        nonlocal low, high
        if new_low is not None and (low is None or new_low > low):
            low = new_low
        if new_high is not None and (high is None or new_high < high):
            high = new_high

    for conjunct in conjuncts:
        if isinstance(conjunct, ast.Between):
            bounds = (conjunct.low, conjunct.high)
            if (
                _is_column(conjunct.operand, column)
                and not conjunct.negated
                and all(
                    isinstance(b, ast.Literal) and _bounds_column(stored, b.value) for b in bounds
                )
            ):
                tighten(conjunct.low.value, conjunct.high.value)
        if not isinstance(conjunct, ast.BinaryOp):
            continue
        left, op, right = conjunct.left, conjunct.op, conjunct.right
        if isinstance(right, ast.Literal) and _is_column(left, column):
            value = right.value
        elif isinstance(left, ast.Literal) and _is_column(right, column):
            value = left.value
            op = _FLIP.get(op, op)
        else:
            continue
        if not _bounds_column(stored, value):
            continue
        if op == "=":
            tighten(value, value)
        elif op in ("<", "<="):
            tighten(new_high=value)
        elif op in (">", ">="):
            tighten(new_low=value)
    return low, high


#: stored types without value-id scans whose literals still compare with
#: the column's values (``datetime`` is a ``date`` subclass, hence ``is``)
_ORDERED_TYPES = {
    TypeCode.DATE: datetime.date,
    TypeCode.TIMESTAMP: datetime.datetime,
    TypeCode.BOOLEAN: bool,
}


def _bounds_column(stored: TypeCode, value: Any) -> bool:
    """Is ``value`` of the stored type, so it compares with the range
    boundaries: :func:`_fits`, or a date / timestamp / boolean literal of
    a column of that type."""
    return _fits(stored, value) or type(value) is _ORDERED_TYPES.get(stored)


def _is_column(expr: ast.Expr, column: str) -> bool:
    return isinstance(expr, ast.ColumnRef) and expr.name == column.lower()


def _contains_probe(
    node: ScanNode,
    table: ColumnTable,
    conjuncts: list[ast.Expr],
    database: Any,
) -> dict[str, set[int]] | None:
    """Resolve CONTAINS conjuncts against a registered inverted index.

    Returns allowed positions per partition name, or ``None`` when no
    indexed CONTAINS conjunct exists (the expression evaluator's fallback
    handles the predicate instead).
    """
    indexes = getattr(database, "text_indexes", {})
    result: dict[str, set[int]] | None = None
    for conjunct in conjuncts:
        if not (
            isinstance(conjunct, ast.FunctionCall)
            and conjunct.name == "CONTAINS"
            and len(conjunct.args) == 2
            and isinstance(conjunct.args[0], ast.ColumnRef)
            and isinstance(conjunct.args[1], ast.Literal)
        ):
            continue
        column = conjunct.args[0].name
        index = indexes.get((table.name, column))
        if index is None:
            continue
        hits = index.lookup_positions(str(conjunct.args[1].value))
        if result is None:
            result = hits
        else:
            result = {
                name: result.get(name, set()) & hits.get(name, set())
                for name in set(result) | set(hits)
            }
    return result


# --------------------------------------------------------------------------
# join
# --------------------------------------------------------------------------


def _operand(expr: ast.Expr, batch: Batch, context: ExecutionContext) -> Column:
    """An operator input: a bare column reference keeps its coded form,
    any other expression is evaluated to a plain array."""
    if isinstance(expr, ast.ColumnRef):
        return batch.columns[batch.resolve(expr.name, expr.table)]
    return np.asarray(evaluate(expr, batch, context))


def _join_keys(
    left: Batch, right: Batch, node: JoinNode, context: ExecutionContext
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One key array per side over all equi pairs, plus which rows can match."""
    left_key = np.zeros(len(left), dtype=np.int64)
    right_key = np.zeros(len(right), dtype=np.int64)
    left_ok = np.ones(len(left), dtype=bool)
    right_ok = np.ones(len(right), dtype=bool)
    for index, (left_expr, right_expr) in enumerate(node.equi):
        columns = [_operand(left_expr, left, context), _operand(right_expr, right, context)]
        (left_part, right_part), (left_null, right_null) = match_keys(columns)
        left_ok &= ~left_null
        right_ok &= ~right_null
        if index == 0:
            left_key, right_key = left_part, right_part
            continue
        # fold the next pair in: densify both, then number the combinations
        dense = [
            unique_inverse(np.concatenate(pair))[1]
            for pair in ((left_key, right_key), (left_part, right_part))
        ]
        combined = dense[0] * (int(dense[1].max(initial=0)) + 1) + dense[1]
        left_key, right_key = combined[: len(left)], combined[len(left) :]
    return left_key, left_ok, right_key, right_ok


def _execute_join(
    node: JoinNode, inputs: list[Batch], context: ExecutionContext, top: int | None
) -> Batch:
    """Sort-based equi join on integer keys.

    Output order is the hash join's: left rows in order, each with its
    matches in ascending right position, then (``LEFT``) the unmatched
    left rows. NULL keys never join. Without equi pairs every row matches
    every row: the cross product, which ``join_rows`` does not count. The
    residual ``ON`` conjuncts filter the matched pairs — of a ``LEFT``
    join before the unmatched left rows are found, so a left row that
    loses every match to them is padded, not dropped.
    """
    left, right = inputs
    left_index, right_index, counts = join_pairs(*_join_keys(left, right, node, context))

    columns = {**left.take(left_index).columns, **right.take(right_index).columns}
    matched = Batch(columns, len(left_index))
    if node.equi or node.kind != "cross":
        context.bump("join_rows", len(left_index))
        obs.count("sql.executor.join_rows", len(left_index))
    if node.residual is not None:
        keep = np.asarray(evaluate(node.residual, matched, context), dtype=bool)
        matched = matched.filter(keep)
        if node.kind == "left":
            counts = np.bincount(left_index[keep], minlength=len(left))

    if node.kind != "left" or counts.all():
        return matched

    pad_index = np.flatnonzero(counts == 0)
    pad_columns = left.take(pad_index).columns
    for key, array in right.columns.items():
        if isinstance(array, Coded):
            pad_columns[key] = Coded(np.full(len(pad_index), -1), array.values)
        elif array.dtype == object:
            pad_columns[key] = np.full(len(pad_index), None, dtype=object)
        else:
            pad_columns[key] = np.full(len(pad_index), np.nan)
    return Batch.concat([matched, Batch(pad_columns, len(pad_index))])


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------


def _distinct(batch: Batch) -> Batch:
    """First occurrence of every distinct row, in row order."""
    _ids, first_positions = group_ids(list(batch.columns.values()), len(batch))
    return batch.take(np.sort(first_positions))


def _execute_aggregate(
    node: AggregateNode, inputs: list[Batch], context: ExecutionContext, top: int | None
) -> Batch:
    (child,) = inputs
    length = len(child)

    group_columns = [_operand(expr, child, context) for expr, _name in node.group]
    ids, first_positions = group_ids(group_columns, length)
    group_count = len(first_positions) if node.group else 1  # global aggregate always yields one row

    columns: dict[str, Column] = {}
    for column, (_expr, name) in zip(group_columns, node.group):
        columns[name] = column[first_positions]
    for call, name in node.aggregates:
        columns[name] = _compute_aggregate(call, child, ids, group_count, context)
    return Batch(columns, group_count)


def _compute_aggregate(
    call: ast.FunctionCall,
    child: Batch,
    ids: np.ndarray,
    group_count: int,
    context: ExecutionContext,
) -> np.ndarray:
    name = call.name.upper()
    if name == "COUNT" and (not call.args or isinstance(call.args[0], ast.Star)):
        return grouped_count(ids, group_count)

    column = _operand(call.args[0], child, context)
    valid = ~nulls(column)

    if name == "COUNT":
        if call.distinct:
            (keys,), _ = match_keys([column])
            distinct, dense = unique_inverse(keys[valid])
            width = max(len(distinct), 1)
            pairs, _ = unique_inverse(ids[valid] * width + dense)  # one per (group, value)
            return grouped_count(pairs // width, group_count)
        return grouped_count(ids[valid], group_count)

    if name in ("SUM", "AVG", "STDDEV", "VAR", "MEDIAN"):
        values = column.decode() if isinstance(column, Coded) else column
        numeric = as_float(values)
        sums = grouped_sum(numeric, valid, ids, group_count)
        counts = grouped_count(ids[valid], group_count).astype(np.float64)
        if name == "SUM":
            sums[counts == 0] = np.nan
            return sums
        if name == "AVG":
            with np.errstate(invalid="ignore", divide="ignore"):
                return sums / counts
        if name in ("STDDEV", "VAR"):
            squares = grouped_sum(numeric * numeric, valid, ids, group_count)
            with np.errstate(invalid="ignore", divide="ignore"):
                variance = squares / counts - (sums / counts) ** 2
                variance = np.maximum(variance, 0.0)
            return np.sqrt(variance) if name == "STDDEV" else variance
        # MEDIAN: gather per group
        out = np.full(group_count, np.nan)
        for group in range(group_count):
            members = numeric[(ids == group) & valid]
            if len(members):
                out[group] = float(np.median(members))
        return out

    if name in ("MIN", "MAX"):
        out, present = grouped_extreme(name, column, valid, ids, group_count)
        if out.dtype == object or present.all():
            return out
        return np.where(present, out, np.nan)

    raise PlanError(f"unknown aggregate function {name}")


# --------------------------------------------------------------------------
# sort
# --------------------------------------------------------------------------


def _sort_values(array: np.ndarray, ascending: bool) -> np.ndarray:
    """A numeric sort key as the values an ascending stable argsort orders:
    NaN (NULL) last either way, a descending key negated."""
    values = array
    if array.dtype.kind == "f":
        values = np.where(np.isnan(array), np.inf if ascending else -np.inf, array)
    return values if ascending else -values.astype(np.float64)


def _sort_order(batch: Batch, keys: list[tuple[str, bool]], top: int | None = None) -> np.ndarray:
    """Stable multi-key argsort honouring per-key direction; NULLs last.

    With ``top``, only the first ``top`` entries have to be right: when the
    leading key is numeric, ``np.partition`` keeps the rows that sort no
    later than the ``top``-th value of that key (all ties included), and
    only those are sorted. Each pass orders two rows by their keys and
    their order before the pass, so those rows come out in the order the
    full sort gives them, and every row it ranks in the first ``top`` is
    among them.
    """
    order = np.arange(len(batch))
    name, ascending = keys[0]
    leading = batch.columns[name]
    if top is not None and 0 < top < len(batch) and leading.dtype.kind in "iuf":
        values = _sort_values(leading, ascending)
        order = np.flatnonzero(values <= np.partition(values, top - 1)[top - 1])
    for name, ascending in reversed(keys):
        array = batch.columns[name][order]
        if array.dtype == object:
            # order the distinct values once, then sort the rows by rank; a
            # descending key is the ascending order reversed ahead of the NULLs
            ranks, ordered = rank_table(as_coded(array))
            local = stable_argsort(ranks)
            if not ascending:
                filled = int(np.count_nonzero(ranks < len(ordered) - 1))
                local = np.concatenate([local[:filled][::-1], local[filled:]])
        else:
            local = np.argsort(_sort_values(array, ascending), kind="stable")
        order = order[local]
    return order


#: the operator table: one function per plan-node type, run by
#: :func:`_dispatch_node` here and by the functions :mod:`repro.sql.compiler`
#: generates
OPERATORS: dict[type, Callable[[Any, list[Batch], ExecutionContext, int | None], Batch]] = {
    ScanNode: _execute_scan,
    SubqueryScanNode: _subquery_scan,
    FilterNode: _filter,
    JoinNode: _execute_join,
    AggregateNode: _execute_aggregate,
    ProjectNode: _project,
    SortNode: _sort,
    DistinctNode: lambda node, inputs, context, top: _distinct(inputs[0]),
    LimitNode: _limit,
    UnionNode: _union,
}
