"""Tuple-at-a-time (Volcano-style) interpreted execution engine.

**Paper mapping:** Section IV.A — the baseline the paper's compilation
argument is made *against*; the SOE compiles queries to native code
precisely to eliminate this per-tuple interpretation overhead (citing
Dees & Sanders [11] and Neumann [12]). **Role in the query path:** an
alternative stage three — it executes the same
:class:`~repro.sql.planner.QueryPlan` as the default vectorised engine
(:mod:`repro.sql.executor`), one row at a time, and exists as the
benchmark E6 baseline rather than a production path.

This is the classical iterator model: every operator is a Python generator
pulling one row at a time from its child, and every expression is
interpreted by walking the AST per row.

Rows are dictionaries keyed by qualified column names (``alias.column``).

**Adaptivity:** streaming operators never know their final row count, so
the engine's one natural materialisation point — the build side of a
hash join in :func:`_iter_join` — doubles as its mid-query
re-optimization checkpoint: the materialised build cardinality is
reported to :func:`repro.sql.feedback.observe_actual`, which records it
in the feedback store and raises
:class:`~repro.sql.feedback.ReplanSignal` on a >10× estimate blow-out
(see ``docs/OPTIMIZER.md``).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Iterator

import numpy as np

from repro.columnstore.table import ColumnTable
from repro.errors import ExpressionError, PlanError, TypeMismatchError
from repro.sql import ast
from repro.sql import feedback as fb
from repro.sql.context import ExecutionContext
from repro.sql.expressions import python_values
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

Row = dict[str, Any]


# --------------------------------------------------------------------------
# per-row expression interpretation
# --------------------------------------------------------------------------


def eval_row(expr: ast.Expr, row: Row, context: ExecutionContext) -> Any:
    """Interpret one expression against one row (NULL-propagating)."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ColumnRef):
        return _resolve(row, expr)
    if isinstance(expr, ast.UnaryOp):
        complement = ast.negate(expr.operand) if expr.op == "NOT" else None
        if complement is not None:
            return bool(eval_row(complement, row, context))
        value = eval_row(expr.operand, row, context)
        if expr.op == "NOT":  # of a value: NOT NULL is NULL, not true
            return value is not None and not value
        return None if value is None else -value
    if isinstance(expr, ast.BinaryOp):
        return _eval_binary(expr, row, context)
    if isinstance(expr, ast.IsNull):
        value = eval_row(expr.operand, row, context)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, ast.InList):
        value = eval_row(expr.operand, row, context)
        if value is None:
            return False
        items = [eval_row(item, row, context) for item in expr.items]  # beside a NULL item, no match is UNKNOWN
        return (value not in items and None not in items) if expr.negated else value in items
    if isinstance(expr, ast.Between):
        value = eval_row(expr.operand, row, context)
        low = eval_row(expr.low, row, context)
        high = eval_row(expr.high, row, context)
        if value is None or low is None or high is None:
            return False
        inside = low <= value <= high
        return (not inside) if expr.negated else inside
    if isinstance(expr, ast.CaseWhen):
        for condition, result in expr.branches:
            if bool(eval_row(condition, row, context)):
                return eval_row(result, row, context)
        return eval_row(expr.otherwise, row, context) if expr.otherwise is not None else None
    if isinstance(expr, ast.FunctionCall):
        if context.functions is None:
            raise ExpressionError(f"no function registry for {expr.name}")
        args = [
            np.asarray([eval_row(arg, row, context)], dtype=object) for arg in expr.args
        ]
        return python_values(context.functions.call(expr.name, args, 1, context))[0]
    raise ExpressionError(f"cannot interpret {type(expr).__name__}")


def _resolve(row: Row, ref: ast.ColumnRef) -> Any:
    if ref.table is not None:
        return row[f"{ref.table}.{ref.name}"]
    if ref.name in row:
        return row[ref.name]
    matches = [key for key in row if key.endswith(f".{ref.name}")]
    if len(matches) == 1:
        return row[matches[0]]
    raise ExpressionError(f"cannot resolve column {ref.name!r} in row")


def _eval_binary(expr: ast.BinaryOp, row: Row, context: ExecutionContext) -> Any:
    op = expr.op
    if op == "AND":
        return bool(eval_row(expr.left, row, context)) and bool(
            eval_row(expr.right, row, context)
        )
    if op == "OR":
        return bool(eval_row(expr.left, row, context)) or bool(
            eval_row(expr.right, row, context)
        )
    left = eval_row(expr.left, row, context)
    right = eval_row(expr.right, row, context)
    if op == "||":
        return None if left is None or right is None else f"{left}{right}"
    if op in ("LIKE", "NOT LIKE"):
        if left is None or right is None:
            return False
        pattern = re.escape(str(right)).replace("%", ".*").replace("_", ".")
        return (re.match(f"^{pattern}$", str(left), re.DOTALL) is None) == (op == "NOT LIKE")
    if left is None or right is None:
        return False if op in ("=", "<>", "<", "<=", ">", ">=") else None
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return None if right == 0 else left / right
    if op == "%":
        return None if right == 0 else left % right
    raise ExpressionError(f"unknown operator {op!r}")


# --------------------------------------------------------------------------
# iterator operators
# --------------------------------------------------------------------------


def _iter_node(node: PlanNode, context: ExecutionContext) -> Iterator[Row]:
    if isinstance(node, ScanNode):
        yield from _iter_scan(node, context)
    elif isinstance(node, SubqueryScanNode):
        for row in _iter_node(node.plan, context):
            yield {f"{node.alias}.{key}": value for key, value in row.items()}
    elif isinstance(node, FilterNode):
        for row in _iter_node(node.child, context):
            if bool(eval_row(node.predicate, row, context)):
                yield row
    elif isinstance(node, JoinNode):
        yield from _iter_join(node, context)
    elif isinstance(node, AggregateNode):
        yield from _iter_aggregate(node, context)
    elif isinstance(node, ProjectNode):
        for row in _iter_node(node.child, context):
            out: Row = {}
            for expr, name in list(node.items) + list(node.hidden):
                out[name] = eval_row(expr, row, context)
            yield out
    elif isinstance(node, SortNode):
        rows = list(_iter_node(node.child, context))
        for name, ascending in reversed(node.keys):
            rows.sort(
                key=lambda r, n=name: (r[n] is None, r[n]),
                reverse=not ascending,
            )
        yield from rows
    elif isinstance(node, DistinctNode):
        seen: set[tuple] = set()
        for row in _iter_node(node.child, context):
            key = tuple(sorted(row.items(), key=lambda kv: kv[0]))
            if key not in seen:
                seen.add(key)
                yield row
    elif isinstance(node, LimitNode):
        start = node.offset or 0
        stop = start + node.limit if node.limit is not None else None
        for index, row in enumerate(_iter_node(node.child, context)):
            if index < start:
                continue
            if stop is not None and index >= stop:
                break
            yield row
    elif isinstance(node, UnionNode):
        target_names = node.input_names[0]
        seen: set[tuple] = set()
        for input_node, names in zip(node.inputs, node.input_names):
            for row in _iter_node(input_node, context):
                out = {target: row[source] for target, source in zip(target_names, names)}
                if node.distinct:
                    key = tuple(out[name] for name in target_names)
                    if key in seen:
                        continue
                    seen.add(key)
                yield out
    else:
        raise PlanError(f"volcano engine cannot execute {type(node).__name__}")


def _iter_scan(node: ScanNode, context: ExecutionContext) -> Iterator[Row]:
    if not node.table:
        yield {}
        return
    governor = context.governor
    table = context.database.catalog.table(node.table)
    if isinstance(table, ColumnTable):
        for partition in table.partitions:
            if governor is not None and governor.should_stop:
                return
            positions = partition.visible_positions(context.snapshot_cid, context.own_tid)
            columns = {
                name.lower(): partition.values_at(name, positions)
                for name in node.columns
            }
            for index in range(len(positions)):
                if governor is not None and governor.should_stop:
                    return
                row = {
                    f"{node.alias}.{name}": values[index]
                    for name, values in columns.items()
                }
                if node.predicate is None or bool(eval_row(node.predicate, row, context)):
                    yield row
    else:
        names = [name.lower() for name in table.schema.column_names]
        for values in table.scan(context.snapshot_cid, context.own_tid):
            if governor is not None and governor.should_stop:
                return
            row = {f"{node.alias}.{name}": value for name, value in zip(names, values)}
            if node.predicate is None or bool(eval_row(node.predicate, row, context)):
                yield row


def _iter_join(node: JoinNode, context: ExecutionContext) -> Iterator[Row]:
    right_rows = list(_iter_node(node.right, context))
    # the build side is fully materialised here — the volcano engine's
    # checkpoint for feedback recording and mid-query re-optimization.
    # A latched governor means the build may be truncated: a degraded
    # count must not be recorded as a true observed cardinality.
    governor = context.governor
    if governor is None or not governor.should_stop:
        fb.observe_actual(node.right, len(right_rows), context)
    if node.kind == "cross" and not node.equi:
        for left_row in _iter_node(node.left, context):
            for right_row in right_rows:
                merged = dict(left_row)
                merged.update(right_row)
                if node.residual is None or bool(eval_row(node.residual, merged, context)):
                    yield merged
        return
    build: dict[tuple, list[Row]] = {}
    for right_row in right_rows:
        key = tuple(eval_row(expr, right_row, context) for _l, expr in node.equi)
        if any(part is None for part in key):
            continue
        build.setdefault(key, []).append(right_row)
    right_keys = (
        list(right_rows[0].keys()) if right_rows else []
    )
    for left_row in _iter_node(node.left, context):
        key = tuple(eval_row(expr, left_row, context) for expr, _r in node.equi)
        matches = build.get(key, []) if not any(part is None for part in key) else []
        emitted = False
        for right_row in matches:
            merged = dict(left_row)
            merged.update(right_row)
            if node.residual is None or bool(eval_row(node.residual, merged, context)):
                yield merged
                emitted = True
        if node.kind == "left" and not emitted:
            merged = dict(left_row)
            for key_name in right_keys:
                merged[key_name] = None
            yield merged


_AGG_INIT: dict[str, Callable[[], Any]] = {
    "COUNT": lambda: 0,
    "SUM": lambda: None,
    "AVG": lambda: [0.0, 0],
    "MIN": lambda: None,
    "MAX": lambda: None,
}


def _iter_aggregate(node: AggregateNode, context: ExecutionContext) -> Iterator[Row]:
    groups: dict[tuple, list[Any]] = {}
    group_rows: dict[tuple, Row] = {}
    distinct_seen: dict[tuple[tuple, int], set] = {}
    saw_input = False
    for row in _iter_node(node.child, context):
        saw_input = True
        key = tuple(eval_row(expr, row, context) for expr, _name in node.group)
        state = groups.get(key)
        if state is None:
            state = [_AGG_INIT.get(call.name, lambda: None)() for call, _n in node.aggregates]
            groups[key] = state
            group_rows[key] = row
        for index, (call, _name) in enumerate(node.aggregates):
            _accumulate(state, index, call, key, row, context, distinct_seen)

    if not node.group and not saw_input:
        groups[()] = [
            _AGG_INIT.get(call.name, lambda: None)() for call, _n in node.aggregates
        ]
        group_rows[()] = {}

    for key, state in groups.items():
        out: Row = {}
        for (expr, name), value in zip(node.group, key):
            out[name] = value
        for index, (call, name) in enumerate(node.aggregates):
            out[name] = _finalise(state[index], call)
        yield out


def _accumulate(
    state: list[Any],
    index: int,
    call: ast.FunctionCall,
    key: tuple,
    row: Row,
    context: ExecutionContext,
    distinct_seen: dict[tuple[tuple, int], set],
) -> None:
    name = call.name
    if name == "COUNT" and (not call.args or isinstance(call.args[0], ast.Star)):
        state[index] += 1
        return
    value = eval_row(call.args[0], row, context)
    if value is None:
        return
    if call.distinct:
        seen = distinct_seen.setdefault((key, index), set())
        if value in seen:
            return
        seen.add(value)
    if name == "COUNT":
        state[index] += 1
    elif name == "SUM":
        state[index] = value if state[index] is None else state[index] + value
    elif name == "AVG":
        state[index][0] += value
        state[index][1] += 1
    elif name == "MIN":
        if state[index] is None or value < state[index]:
            state[index] = value
    elif name == "MAX":
        if state[index] is None or value > state[index]:
            state[index] = value
    else:
        raise PlanError(f"volcano engine: unsupported aggregate {name}")


def _finalise(state: Any, call: ast.FunctionCall) -> Any:
    if call.name == "AVG":
        total, count = state
        return total / count if count else None
    if call.name == "SUM" and type(state) is int and not -(2**63) <= state < 2**63:
        raise TypeMismatchError(f"BIGINT out of range: {state}")
    return state


def execute_volcano(plan: QueryPlan, context: ExecutionContext) -> list[list[Any]]:
    """Run a plan tuple-at-a-time; returns output rows.

    When the context carries a :class:`~repro.qos.governor.ResourceGovernor`,
    each yielded row is charged against the query budget — a latched soft
    limit stops the iteration (partial, ``degraded`` answer); a hard limit
    raises :class:`~repro.errors.BudgetExceededError` from ``charge()``.
    """
    governor = context.governor
    rows = []
    for row in _iter_node(plan.root, context):
        out = [row[name] for name in plan.output_names]
        if governor is not None:
            governor.charge(rows=1, bytes_=sum(_row_bytes(value) for value in out))
            if governor.should_stop:
                rows.append(out)
                break
        rows.append(out)
    return rows


def _row_bytes(value: Any) -> int:
    """Cheap per-value size estimate for byte budgets (not sys.getsizeof —
    deterministic across interpreter builds)."""
    if value is None:
        return 1
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    return 8
