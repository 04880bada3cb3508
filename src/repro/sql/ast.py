"""Abstract syntax tree for the SQL dialect.

Expression nodes are shared by the parser, the planner, all three execution
engines (vectorised, tuple-at-a-time, compiled), and the federation layer's
pushdown serialiser.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Sequence


# --------------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------------


class Expr:
    """Base expression node."""

    def children(self) -> Sequence["Expr"]:
        return ()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value (already coerced to its Python form)."""

    value: Any

    def __str__(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if self.value is None:
            return "NULL"
        return str(self.value)


def sql_literal(value: Any) -> str:
    """``value`` written as SQL literal text — how a statement built from
    values (a pushed-down remote filter, a proposed aging rule) spells it."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if hasattr(value, "isoformat"):
        return f"DATE '{value.isoformat()}'"
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A (possibly qualified) column reference."""

    name: str
    table: str | None = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` in a select list."""

    table: str | None = None

    def __str__(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic, comparison, logical, LIKE, or ``||`` concatenation."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """NOT or unary minus."""

    op: str
    operand: Expr

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.operand} IS {'NOT ' if self.negated else ''}NULL)"


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def children(self) -> Sequence[Expr]:
        return (self.operand, *self.items)

    def __str__(self) -> str:
        inner = ", ".join(str(item) for item in self.items)
        return f"({self.operand} {'NOT ' if self.negated else ''}IN ({inner}))"


@dataclass(frozen=True)
class Between(Expr):
    """``expr BETWEEN low AND high``."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def children(self) -> Sequence[Expr]:
        return (self.operand, self.low, self.high)

    def __str__(self) -> str:
        return f"({self.operand} BETWEEN {self.low} AND {self.high})"


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Scalar or aggregate function call."""

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False

    def children(self) -> Sequence[Expr]:
        return self.args

    def __str__(self) -> str:
        inner = ", ".join(str(arg) for arg in self.args)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.name}({prefix}{inner})"


@dataclass(frozen=True)
class CaseWhen(Expr):
    """Searched CASE expression."""

    branches: tuple[tuple[Expr, Expr], ...]
    otherwise: Expr | None = None

    def children(self) -> Sequence[Expr]:
        nodes: list[Expr] = []
        for condition, result in self.branches:
            nodes.append(condition)
            nodes.append(result)
        if self.otherwise is not None:
            nodes.append(self.otherwise)
        return nodes

    def __str__(self) -> str:
        parts = ["CASE"]
        for condition, result in self.branches:
            parts.append(f"WHEN {condition} THEN {result}")
        if self.otherwise is not None:
            parts.append(f"ELSE {self.otherwise}")
        parts.append("END")
        return " ".join(parts)


AGGREGATE_FUNCTIONS = {"COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV", "VAR", "MEDIAN"}


def contains_aggregate(expr: Expr) -> bool:
    """True when the expression tree contains an aggregate call."""
    if isinstance(expr, FunctionCall) and expr.name.upper() in AGGREGATE_FUNCTIONS:
        return True
    return any(contains_aggregate(child) for child in expr.children())


def collect(expr: Expr | None, kind: type) -> list[Any]:
    """All nodes of type ``kind`` in the tree (none in ``None``), in visit order."""
    found: list[Any] = []

    def visit(node: Expr) -> None:
        if isinstance(node, kind):
            found.append(node)
        for child in node.children():
            visit(child)

    if expr is not None:
        visit(expr)
    return found


def collect_column_refs(expr: Expr | None) -> list[ColumnRef]:
    """All :class:`ColumnRef` nodes in the tree, in visit order."""
    return collect(expr, ColumnRef)


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Split a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def and_together(conjuncts: Sequence[Expr]) -> Expr | None:
    """Rebuild one predicate from conjuncts (inverse of split)."""
    result: Expr | None = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinaryOp("AND", result, conjunct)
    return result


#: each predicate operator's complement: where one holds the other fails,
#: and a NULL operand fails both
_COMPLEMENT = {"=": "<>", "<>": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">", "LIKE": "NOT LIKE"}


def negate(expr: Expr) -> Expr | None:
    """``NOT expr`` as a predicate that holds where ``expr`` is FALSE and
    fails where it is TRUE or UNKNOWN (three-valued logic): a comparison,
    LIKE, IN, BETWEEN or IS NULL by its complement, AND and OR by De
    Morgan, ``NOT e`` by ``e``. None where ``expr`` is a value, not one of
    these, which NOT negates itself. Both engines evaluate NOT through it."""
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        return expr.operand
    if isinstance(expr, BinaryOp) and expr.op in ("AND", "OR"):
        left, right = (negate(side) or UnaryOp("NOT", side) for side in (expr.left, expr.right))
        return BinaryOp("OR" if expr.op == "AND" else "AND", left, right)
    if isinstance(expr, BinaryOp) and expr.op in _COMPLEMENT:
        return BinaryOp(_COMPLEMENT[expr.op], expr.left, expr.right)
    if isinstance(expr, (InList, Between, IsNull)):
        return replace(expr, negated=not expr.negated)
    return None


# --------------------------------------------------------------------------
# statements
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One select-list entry with its optional alias."""

    expr: Expr
    alias: str | None = None


@dataclass
class TableRef:
    """FROM-clause source: a base table or a derived table (sub-select)."""

    name: str | None
    alias: str
    subquery: "SelectStatement | None" = None


@dataclass
class JoinClause:
    """One JOIN against the accumulated left side."""

    kind: str  # "inner" | "left" | "cross"
    table: TableRef
    condition: Expr | None


@dataclass
class SelectStatement:
    """A full SELECT query."""

    items: list[SelectItem]
    from_table: TableRef | None
    joins: list[JoinClause] = field(default_factory=list)
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[tuple[Expr, bool]] = field(default_factory=list)  # (expr, ascending)
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False


@dataclass
class InsertStatement:
    table: str
    columns: list[str] | None
    rows: list[list[Expr]]
    select: SelectStatement | None = None


@dataclass
class UpdateStatement:
    table: str
    assignments: list[tuple[str, Expr]]
    where: Expr | None


@dataclass
class DeleteStatement:
    table: str
    where: Expr | None


@dataclass
class ColumnDef:
    name: str
    type_name: str
    length: int | None = None
    precision: int | None = None
    scale: int | None = None
    nullable: bool = True
    primary_key: bool = False
    default: Any = None


@dataclass
class CreateTableStatement:
    table: str
    columns: list[ColumnDef]
    primary_key: list[str] = field(default_factory=list)
    store: str = "column"  # "column" | "row"
    flexible: bool = False
    if_not_exists: bool = False
    partition_kind: str | None = None  # "hash" | "range"
    partition_columns: list[str] = field(default_factory=list)
    partition_count: int | None = None
    partition_boundaries: list[Any] = field(default_factory=list)


@dataclass
class DropTableStatement:
    table: str
    if_exists: bool = False


@dataclass
class MergeDeltaStatement:
    """``MERGE DELTA OF t`` — explicit delta merge trigger."""

    table: str


@dataclass
class UnionStatement:
    """A chain of SELECTs combined with UNION [ALL].

    ``alls[i]`` is True when the connector between ``selects[i]`` and
    ``selects[i+1]`` was UNION ALL. ORDER BY / LIMIT bind to the whole
    compound and reference output names or ordinals.
    """

    selects: list[SelectStatement]
    alls: list[bool]
    order_by: list[tuple[Expr, bool]] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None


@dataclass
class TransactionStatement:
    """BEGIN / COMMIT / ROLLBACK."""

    action: str  # "begin" | "commit" | "rollback"


Statement = (
    SelectStatement
    | UnionStatement
    | InsertStatement
    | UpdateStatement
    | DeleteStatement
    | CreateTableStatement
    | DropTableStatement
    | MergeDeltaStatement
    | TransactionStatement
)
