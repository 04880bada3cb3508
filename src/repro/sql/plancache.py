"""Plan cache: skip planning entirely for repeated query *shapes*.

**Paper mapping:** HANA's front door compiles a statement once and
reuses the plan for every later execution with different parameter
values; caching repeated traffic is the in-memory reuse argument of
*SAP HANA and its performance benefits* (PAPERS.md) and the stated
prerequisite for the front-door session layer (ROADMAP item 3).

**Key idea — the shape of the text.** ``Database.execute`` keys the
cache on :func:`repro.sql.lexer.shape`: the SQL text with every number
and string literal replaced by a typed placeholder, found by one regex
pass, so ``... WHERE amount > 100`` and ``... WHERE amount > 250`` share
one entry and a repeated statement is neither lexed nor parsed. An entry
holds the statement's parse as a :class:`Template` — which literal token
of the text feeds which :class:`~repro.sql.ast.Literal` leaf, and how
(a folded ``-3`` negates its token, ``DATE '…'`` parses it) — and its
plan: a query's or a write's, one kind of entry for both. Tokens the
planner consumes at plan time — ``LIMIT`` /
``OFFSET`` counts and ``ORDER BY 2`` ordinals — are *fixed*: each value
of them gets an entry of its own (:class:`PlanCache`), so a statement
never binds to a plan made for another LIMIT. That text key is the
request path's only statement identity: :func:`fingerprint`, a key
rendered from a parsed statement, and :func:`instantiate`, which binds an
entry to a parsed statement, are called from nowhere in ``repro``; they
stay because the benchmark harness's frozen workload definitions and
timing shims name them.

**Binding.** A cached plan references the cached statement's frozen
literal leaves by identity (the planner rebuilds interior expression
nodes but never literal leaves). On a hit the new values become a map
from those leaves to fresh literals (:meth:`Template.bind`), and
:func:`bind_plan` builds a *substitution copy* of the cached plan
(:func:`_substitute`): only the spine above each literal whose value
actually changed is rebuilt, and every untouched subtree — the entire
plan, when the constants happen to match — is shared with the cached
entry.
Sharing is safe because plans are read-only during execution; nothing is
ever mutated, so any number of executions of one shape may run
concurrently, each on its own bound copy. :class:`PlanCache` itself is
likewise thread-safe — lookups, inserts, invalidation, and the counters
are guarded by one lock.

**Invalidation** is two-tier, and drops an entry's *plan* but keeps its
parse (a parse depends on the text alone):

* *explicit* — ``invalidate_table()`` on DDL (CREATE/DROP) and on delta
  merge, since a merge changes partition layout and the cost picture;
* *feedback staleness* — a plan that records a join order snapshots the
  per-table :class:`~repro.sql.feedback.CardinalityFeedback` versions.
  When one moves, the next lookup asks its caller whether the join order
  still holds: if so the plan stays under a fresh snapshot, else it is
  re-planned. A plan with no order (one table's, a write's) snapshots
  nothing and never goes stale.

Hits, misses, evictions, staleness drops, and invalidations are all
counted through :mod:`repro.obs` (``sql.plancache.*``). Hits and misses
count query plans only; a reused parse — a write's included — counts on
``parse_hits``.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro import obs
from repro.sql import ast

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sql.feedback import CardinalityFeedback

#: default number of cached plans before LRU eviction
DEFAULT_CAPACITY = 128


# --------------------------------------------------------------------------
# the AST key (the benchmark harness's; the request path keys on the text)
# --------------------------------------------------------------------------


def _fp_expr(expr: ast.Expr) -> str:
    """Render an expression with literals as ``?`` (shape only)."""
    if isinstance(expr, ast.Literal):
        return "?"
    if isinstance(expr, ast.ColumnRef):
        return str(expr)
    if isinstance(expr, ast.Star):
        return str(expr)
    if isinstance(expr, ast.BinaryOp):
        return f"({_fp_expr(expr.left)} {expr.op} {_fp_expr(expr.right)})"
    if isinstance(expr, ast.UnaryOp):
        return f"({expr.op} {_fp_expr(expr.operand)})"
    if isinstance(expr, ast.IsNull):
        return f"({_fp_expr(expr.operand)} IS {'NOT ' if expr.negated else ''}NULL)"
    if isinstance(expr, ast.InList):
        items = ", ".join(_fp_expr(item) for item in expr.items)
        return f"({_fp_expr(expr.operand)} {'NOT ' if expr.negated else ''}IN ({items}))"
    if isinstance(expr, ast.Between):
        word = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (
            f"({_fp_expr(expr.operand)} {word} "
            f"{_fp_expr(expr.low)} AND {_fp_expr(expr.high)})"
        )
    if isinstance(expr, ast.FunctionCall):
        inner = ", ".join(_fp_expr(arg) for arg in expr.args)
        prefix = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({prefix}{inner})"
    if isinstance(expr, ast.CaseWhen):
        parts = ["CASE"]
        for condition, result in expr.branches:
            parts.append(f"WHEN {_fp_expr(condition)} THEN {_fp_expr(result)}")
        if expr.otherwise is not None:
            parts.append(f"ELSE {_fp_expr(expr.otherwise)}")
        parts.append("END")
        return " ".join(parts)
    return str(expr)


def _is_ordinal(expr: ast.Expr) -> bool:
    """ORDER BY position ordinals are consumed at plan time, so they are
    part of the query *shape* and are neither wildcarded nor patched.
    ``bool`` is a subclass of ``int`` but TRUE/FALSE are ordinary value
    literals, not positions — they stay patchable like any other."""
    return (
        isinstance(expr, ast.Literal)
        and isinstance(expr.value, int)
        and not isinstance(expr.value, bool)
    )


def _fp_order(order_by: list[tuple[ast.Expr, bool]]) -> str:
    keys = ", ".join(
        (str(expr.value) if _is_ordinal(expr) else _fp_expr(expr))
        + (" ASC" if ascending else " DESC")
        for expr, ascending in order_by
    )
    return f" ORDER BY {keys}" if keys else ""


def _fp_table_ref(ref: ast.TableRef) -> str:
    if ref.subquery is not None:
        return f"({fingerprint(ref.subquery)}) AS {ref.alias}"
    return f"{ref.name} AS {ref.alias}"


def _fp_select(statement: ast.SelectStatement) -> str:
    parts = ["SELECT"]
    if statement.distinct:
        parts.append("DISTINCT")
    parts.append(
        ", ".join(
            _fp_expr(item.expr) + (f" AS {item.alias}" if item.alias else "")
            for item in statement.items
        )
    )
    if statement.from_table is not None:
        parts.append(f"FROM {_fp_table_ref(statement.from_table)}")
    for clause in statement.joins:
        parts.append(f"{clause.kind.upper()} JOIN {_fp_table_ref(clause.table)}")
        if clause.condition is not None:
            parts.append(f"ON {_fp_expr(clause.condition)}")
    if statement.where is not None:
        parts.append(f"WHERE {_fp_expr(statement.where)}")
    if statement.group_by:
        parts.append(
            "GROUP BY " + ", ".join(_fp_expr(expr) for expr in statement.group_by)
        )
    if statement.having is not None:
        parts.append(f"HAVING {_fp_expr(statement.having)}")
    text = " ".join(parts) + _fp_order(statement.order_by)
    if statement.limit is not None:
        text += f" LIMIT {statement.limit}"
    if statement.offset is not None:
        text += f" OFFSET {statement.offset}"
    return text


def fingerprint(statement: ast.SelectStatement | ast.UnionStatement) -> str:
    """The normalized query-shape key: literals stripped, structure kept."""
    if isinstance(statement, ast.UnionStatement):
        pieces = [_fp_select(statement.selects[0])]
        for connector_all, select in zip(statement.alls, statement.selects[1:]):
            pieces.append("UNION ALL" if connector_all else "UNION")
            pieces.append(_fp_select(select))
        text = " ".join(pieces) + _fp_order(statement.order_by)
        if statement.limit is not None:
            text += f" LIMIT {statement.limit}"
        if statement.offset is not None:
            text += f" OFFSET {statement.offset}"
        return text
    return _fp_select(statement)


# --------------------------------------------------------------------------
# literal slots
# --------------------------------------------------------------------------


def collect_literals(statement: ast.Statement) -> list[ast.Literal]:
    """Every patchable literal leaf, in text order (ORDER BY ordinals
    excluded). DML statements have slots too: the values of an
    ``INSERT``, the assignments and ``WHERE`` of an ``UPDATE``/``DELETE``."""
    slots: list[ast.Literal] = []

    def expr(node: ast.Expr) -> None:
        slots.extend(ast.collect(node, ast.Literal))

    def order(order_by: list[tuple[ast.Expr, bool]]) -> None:
        for key, _ascending in order_by:
            if not _is_ordinal(key):
                expr(key)

    def select(stmt: ast.SelectStatement) -> None:
        for item in stmt.items:
            expr(item.expr)
        if stmt.from_table is not None and stmt.from_table.subquery is not None:
            select(stmt.from_table.subquery)
        for clause in stmt.joins:
            if clause.table.subquery is not None:
                select(clause.table.subquery)
            if clause.condition is not None:
                expr(clause.condition)
        if stmt.where is not None:
            expr(stmt.where)
        for key in stmt.group_by:
            expr(key)
        if stmt.having is not None:
            expr(stmt.having)
        order(stmt.order_by)

    if isinstance(statement, ast.UnionStatement):
        for stmt in statement.selects:
            select(stmt)
        order(statement.order_by)
    elif isinstance(statement, ast.SelectStatement):
        select(statement)
    elif isinstance(statement, ast.InsertStatement):
        for row in statement.rows:
            for value in row:
                expr(value)
        if statement.select is not None:
            select(statement.select)
    elif isinstance(statement, ast.UpdateStatement):
        for _column, value in statement.assignments:
            expr(value)
        if statement.where is not None:
            expr(statement.where)
    elif isinstance(statement, ast.DeleteStatement) and statement.where is not None:
        expr(statement.where)
    return slots


def plan_tables(root: Any) -> frozenset[str]:
    """Every base table a plan tree scans (duck-typed over plan nodes)."""
    tables: set[str] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        table = getattr(node, "table", None)
        if isinstance(table, str) and table:
            tables.add(table)
        stack.extend(node.children())
    return frozenset(tables)


#: a plan's slot spine: for each container on a path down to a slot
#: literal, the fields that lead there (attribute names of a dataclass,
#: indices of a list or tuple), keyed by the container's ``id``
Spine = dict[int, tuple[Any, ...]]


#: how a literal token's value becomes its leaf's value (``None``: as is)
Conversion = Callable[[Any], Any] | None


@dataclass(frozen=True)
class Template:
    """The parse behind one text shape key, ready to take new values.

    ``values`` below are a text's literal token values, in text order, as
    :func:`repro.sql.lexer.shape` returns them.
    """

    statement: Any  # the ast statement parsed from the first text of the shape
    #: (token index, leaf, conversion) for each token that feeds a slot
    slots: tuple[tuple[int, ast.Literal, Conversion], ...]
    #: (token index, value) for each token the planner consumes:
    #: LIMIT/OFFSET counts and ORDER BY ordinals
    fixed: tuple[tuple[int, Any], ...]

    @property
    def is_query(self) -> bool:
        return isinstance(self.statement, (ast.SelectStatement, ast.UnionStatement))

    def bind(self, values: Sequence[Any]) -> dict[int, ast.Literal]:
        """Fresh literals for the slots whose value changed, keyed by the
        ``id`` of the cached leaf they replace."""
        mapping: dict[int, ast.Literal] = {}
        for index, leaf, convert in self.slots:
            value = values[index] if convert is None else convert(values[index])
            if type(value) is not type(leaf.value) or value != leaf.value:
                mapping[id(leaf)] = ast.Literal(value)
        return mapping

    def statement_for(self, mapping: dict[int, ast.Literal]) -> Any:
        """The statement with ``mapping`` bound (the cached one when empty):
        what a hit's bound plan is the plan of."""
        if not mapping:
            return self.statement
        spine = slot_spine(self.statement, [leaf for _index, leaf, _convert in self.slots])
        return _substitute(self.statement, mapping, spine)


def record_template(
    statement: Any,
    slots: list[ast.Literal],
    sources: Sequence[tuple[ast.Literal | None, Any, Conversion]],
    values: Sequence[Any],
) -> Template | None:
    """The template of a statement just parsed from a text whose literal
    values are ``values``; ``sources`` is what the parser noted per literal
    token (``repro.sql.parser.Source``), ``slots`` the statement's
    :func:`collect_literals`. ``None`` when the parser's tokens and the
    shape pass's values do not line up one to one — such a text is never
    cached. A token whose leaf is a slot binds to it; every other token
    (a LIMIT count, an ORDER BY ordinal) is fixed."""
    if len(sources) != len(values):
        return None
    slot_ids = {id(slot) for slot in slots}
    bound: list[tuple[int, ast.Literal, Conversion]] = []
    fixed: list[tuple[int, Any]] = []
    for index, ((leaf, token_value, convert), value) in enumerate(zip(sources, values)):
        if type(token_value) is not type(value) or token_value != value:
            return None
        if leaf is not None and id(leaf) in slot_ids:
            bound.append((index, leaf, convert))
        else:
            fixed.append((index, value))
    return Template(statement, tuple(bound), tuple(fixed))


@dataclass
class PlanEntry:
    """One cached plan plus everything needed to reuse and invalidate it.

    An entry made from SQL text also carries the :class:`Template` it was
    parsed into; an entry whose plan a merge or a feedback drift dropped
    is only that (``plan`` None) until a hit plans it again.
    """

    plan: Any  # a planner PlanNode tree
    slots: list[ast.Literal]  # literal leaves the plan references, in order
    tables: frozenset[str]  # base tables the plan reads or writes
    #: feedback snapshot; ``None`` for a plan with no join order to re-check
    versions: dict[str, int] | None = None
    #: the containers between the plan root and each slot literal, with
    #: the fields on the way (:func:`slot_spine`); precomputed so
    #: :func:`bind_plan` rebuilds only this spine
    spine: Spine | None = None
    #: slot-value fingerprint recorded by ``plancheck.entry_seal`` at
    #: insert; a later mismatch proves the frozen entry was mutated
    seal: tuple | None = None
    #: the parse of the text this entry is keyed by, if it has one
    template: Template | None = None

    def __post_init__(self) -> None:
        if self.spine is None:
            self.spine = slot_spine(self.plan, self.slots)

    def without_plan(self) -> "PlanEntry | None":
        """What survives when the plan goes: the parse, if there is one."""
        if self.template is None:
            return None
        return PlanEntry(
            plan=None, slots=self.slots, tables=frozenset(), seal=self.seal,
            template=self.template,
        )


#: per-dataclass field-name cache for the substitution walk
#: (``None`` marks a non-dataclass type: an opaque leaf)
_FIELDS: dict[type, tuple[str, ...] | None] = {}


def _field_names(cls: type) -> tuple[str, ...] | None:
    names = _FIELDS.get(cls, False)
    if names is False:
        names = (
            tuple(f.name for f in dataclasses.fields(cls))
            if dataclasses.is_dataclass(cls)
            else None
        )
        _FIELDS[cls] = names
    return names


def slot_spine(root: Any, slots: list[ast.Literal]) -> Spine:
    """Every container on a path from ``root`` down to a slot literal, with
    the fields that lead there — the only objects :func:`_substitute` may
    need to rebuild, and the only fields it looks at. Computed once when a
    plan is cached; the ids stay valid because the cache entry keeps the
    whole object graph alive."""
    slot_ids = {id(slot) for slot in slots}
    spine: Spine = {}

    def walk(value: Any) -> bool:
        if isinstance(value, ast.Literal):
            return id(value) in slot_ids
        if value is None or isinstance(value, (str, int, float)):
            return False
        if isinstance(value, (list, tuple)):
            fields = [index for index, item in enumerate(value) if walk(item)]
        else:
            names = _field_names(type(value))
            if names is None:
                return False
            fields = [name for name in names if walk(getattr(value, name))]
        if fields:
            spine[id(value)] = tuple(fields)
        return bool(fields)

    walk(root)
    return spine


def _substitute(value: Any, mapping: dict[int, ast.Literal], spine: Spine) -> Any:
    """Structure-sharing substitution over a plan (or expression) tree.

    Rebuilds only the spine above each literal in ``mapping`` (keyed by
    the *cached* literal's ``id``), visiting only the spine's fields;
    every subtree off the precomputed ``spine`` is returned as-is and
    shared with the cached plan — safe because plans are read-only during
    execution.
    """
    if type(value) is ast.Literal:
        return mapping.get(id(value), value)
    fields = spine.get(id(value))
    if fields is None:
        return value
    if isinstance(value, (list, tuple)):
        items = list(value)
        changed = False
        for index in fields:
            items[index] = _substitute(value[index], mapping, spine)
            changed = changed or items[index] is not value[index]
        if not changed:
            return value
        return items if isinstance(value, list) else tuple(items)
    # any other spine member is a dataclass (see slot_spine), its fields
    # in its __dict__
    changes: dict[str, Any] = {}
    for name in fields:
        old = value.__dict__[name]
        new = _substitute(old, mapping, spine)
        if new is not old:
            changes[name] = new
    if not changes:
        return value
    # shallow clone without __init__/dataclasses.replace overhead — also
    # sidesteps frozen-dataclass __setattr__ for the AST expression nodes
    clone = object.__new__(type(value))
    clone.__dict__.update(value.__dict__, **changes)
    return clone


def bind_plan(entry: PlanEntry, mapping: dict[int, ast.Literal]) -> Any:
    """The cached plan with :meth:`Template.bind`'s ``mapping`` bound."""
    if not mapping:
        return entry.plan
    return _substitute(entry.plan, mapping, entry.spine or {})


def instantiate(
    entry: PlanEntry, statement: ast.SelectStatement | ast.UnionStatement
) -> Any | None:
    """A per-execution view of the cached plan, bound to ``statement``.

    Literal slots whose values differ from the cached ones are replaced
    by the new statement's literal leaves via :func:`_substitute`; when
    every constant matches, the cached plan is returned directly (it is
    read-only during execution, so sharing is safe — the cached entry is
    never mutated either way, and concurrent executions of the same
    shape never see each other's values). Returns ``None`` (treat as a
    miss) when the slot layouts disagree, which would mean two different
    shapes collided on one fingerprint.
    """
    fresh = collect_literals(statement)
    if len(fresh) != len(entry.slots):
        return None
    mapping = {
        id(slot): source
        for slot, source in zip(entry.slots, fresh)
        if type(slot.value) is not type(source.value) or slot.value != source.value
    }
    if not mapping:
        return entry.plan
    return _substitute(entry.plan, mapping, entry.spine or {})


# --------------------------------------------------------------------------
# the cache
# --------------------------------------------------------------------------


class PlanCache:
    """A bounded LRU of statement shapes and their compiled plans.

    Thread-safe: the entry map and the counters are guarded by one lock,
    so concurrent sessions on one database may look up, insert, and
    invalidate freely. Entries themselves are immutable after ``put`` —
    executions bind literals into private copies. The capacity bounds
    entries; ``len()``, ``in`` and ``stats()["size"]`` count the ones
    holding a plan, ``stats()["shapes"]`` all of them.

    A shape with fixed tokens (a LIMIT count, an ORDER BY ordinal) keeps
    one entry per value of them, keyed ``(key, fixed values)``: a pager
    stepping through OFFSETs hits on each page it has seen before. Which
    of a shape's tokens are fixed is the same for every text of the
    shape — the parse's structure follows the tokens, not their values —
    and is remembered per shape (``_layouts``, bounded like the entries;
    a forgotten layout only costs a miss).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[str | tuple[str, tuple], PlanEntry] = OrderedDict()
        self._layouts: OrderedDict[str, tuple[int, ...]] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.parse_hits = 0
        self.evictions = 0
        self.stale = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return self._planned()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry.plan is not None

    def _planned(self) -> int:
        return sum(1 for entry in self._entries.values() if entry.plan is not None)

    def _replace(self, key: str | tuple[str, tuple], entry: PlanEntry | None) -> None:
        if entry is None:
            del self._entries[key]
        else:
            self._entries[key] = entry

    def _variant(self, key: str, values: Sequence[Any] | None) -> str | tuple[str, tuple]:
        """Where the entry of ``key`` with these literal values is kept."""
        layout = self._layouts.get(key) if values is not None else None
        if layout is None:
            return key
        self._layouts.move_to_end(key)
        return key, tuple(values[index] for index in layout)

    def get(
        self,
        key: str,
        feedback: "CardinalityFeedback | None" = None,
        values: Sequence[Any] | None = None,
        keeps_plan: Callable[[PlanEntry], bool] | None = None,
    ) -> PlanEntry | None:
        """Look up a shape — with ``values`` (a text's literal values), the
        entry of their fixed-token variant.

        An entry whose feedback snapshot no longer matches loses its plan,
        unless ``keeps_plan(entry)``, asked outside the lock, keeps it under
        the fresh snapshot. A query entry counts a hit when it has a plan
        and a miss when it has none (returned: its parse is still good);
        any entry holding a parse counts a parse hit. An absent key counts a
        miss only without ``values``: a text's shape may be a write's, which
        hits and misses do not count, so that caller reports the miss
        (:meth:`miss`) once its parse shows a query.
        """
        with self._lock:
            variant = self._variant(key, values)
            entry = self._entries.get(variant)
            if entry is None:
                if values is None:
                    self._count_miss()
                return None
            versions = entry.versions
            if versions is not None and feedback is not None:
                versions = feedback.versions(entry.tables)
            if versions == entry.versions:
                self._entries.move_to_end(variant)
                if entry.template is not None:
                    self.parse_hits += 1
                    obs.count("sql.plancache.parse_hits")
                if entry.template is None or entry.template.is_query:
                    if entry.plan is None:
                        self._count_miss()
                    else:
                        self.hits += 1
                        obs.count("sql.plancache.hits")
                return entry
        kept = entry.plan is not None and keeps_plan is not None and keeps_plan(entry)
        with self._lock:
            if not kept:
                self.stale += 1
                obs.count("sql.plancache.stale")
            if self._entries.get(variant) is entry:  # not replaced meanwhile
                self._replace(
                    variant, dataclasses.replace(entry, versions=versions) if kept else entry.without_plan()
                )
        return self.get(key, None, values)  # counted as the entry now stands

    def miss(self) -> None:
        """Count a plan miss on a query text whose shape :meth:`get` did
        not find."""
        with self._lock:
            self._count_miss()

    def _count_miss(self) -> None:
        self.misses += 1
        obs.count("sql.plancache.misses")

    def put(self, key: str, entry: PlanEntry) -> None:
        """Cache ``entry`` under ``key`` — a text-keyed entry with fixed
        tokens under its variant of the shape (see the class docstring)."""
        with self._lock:
            fixed = entry.template.fixed if entry.template is not None else ()
            if fixed:
                self._layouts[key] = tuple(index for index, _value in fixed)
                self._layouts.move_to_end(key)
                if len(self._layouts) > self.capacity:
                    self._layouts.popitem(last=False)
                variant: str | tuple[str, tuple] = (key, tuple(value for _index, value in fixed))
            else:
                variant = key
            self._entries[variant] = entry
            self._entries.move_to_end(variant)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                obs.count("sql.plancache.evictions")

    def invalidate_table(self, table: str) -> int:
        """Drop the plan of every entry reading ``table`` (DDL / delta-merge
        hook); returns how many plans went."""
        with self._lock:
            victims = [
                (key, entry) for key, entry in self._entries.items() if table in entry.tables
            ]
            for key, entry in victims:
                self._replace(key, entry.without_plan())
            if victims:
                self.invalidations += len(victims)
                obs.count("sql.plancache.invalidations", len(victims))
            return len(victims)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._layouts.clear()

    def stats(self) -> dict[str, Any]:
        """Counters; ``hits``/``misses``/``hit_rate`` count query plans
        only, ``parse_hits`` every text whose parse was reused."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": self._planned(),
                "shapes": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "parse_hits": self.parse_hits,
                "evictions": self.evictions,
                "stale": self.stale,
                "invalidations": self.invalidations,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
            }
