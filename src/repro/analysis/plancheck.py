"""repro.analysis.plancheck — static verification of the QueryPlan IR.

PR 6 shipped two plan-level bugs (a frozen-plan mutation and a
scan-memo keying collision) that were caught by review, not tooling.
This module is the tooling: a verifier that walks any
:class:`~repro.sql.planner.QueryPlan` and proves the invariants every
consumer of the IR — the engines, the plan cache, the feedback loop, and
the upcoming compiled pipelines — silently relies on:

* **schema soundness** — every column an operator references is
  producible from its children (per the catalog at the leaves), and
  projections/aggregates emit exactly the names their parents consume.
  The model mirrors :meth:`repro.sql.expressions.Batch.resolve`: scans
  emit ``alias.column`` keys, projections rename to bare output names,
  an unqualified reference needs a bare hit or a *unique* suffix match.
* **estimate sanity** — every ``estimated_rows`` is finite and
  non-negative; ``LIMIT``/``OFFSET`` counts are non-negative; a
  Limit/Distinct node that carries its own estimate stays monotone
  (never claims more rows than its child).
* **cache safety** — a frozen :class:`~repro.sql.plancache.PlanEntry`
  aliases no mutable non-plan state, the literal tokens its template
  binds are its literal slots one to one and in order, every slot is
  actually reachable from the plan (an unreachable slot means a hit
  would silently keep a stale constant — wrong results, not a miss),
  and a hit's binding shares no container that sits on the frozen spine
  above a changed literal.
* **charge coverage** — every row-producing node type maps to a known
  governor charge point (:data:`CHARGE_POINTS`), so a new operator
  cannot slip past the QoS accounting unnoticed.

Wiring (same pattern as :mod:`repro.analysis.lockcheck` /
:mod:`repro.analysis.racecheck`):

* ``Database._cache_plan`` verifies every entry at plan-cache insert and
  refuses to cache a plan that fails (``sql.plancheck.rejected``);
* ``REPRO_PLANCHECK=1`` turns the soft reject into a hard
  :class:`PlanCheckError` and additionally verifies every freshly
  planned query and every cache-hit binding — the autouse fixture in
  ``tests/conftest.py`` runs the whole suite this way in CI;
* ``python -m tools.analyze --plan-corpus`` verifies the plan corpus of
  a seeded query generator (:mod:`repro.workloads.querygen`).
"""

from __future__ import annotations

import datetime
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import PlanError, TableNotFoundError
from repro.sql import ast
from repro.sql import plancache
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

__all__ = [
    "PlanCheckError",
    "PlanFinding",
    "CHARGE_POINTS",
    "verify_plan",
    "verify_entry",
    "verify_binding",
    "check_plan",
    "entry_seal",
    "enabled",
    "enabled_from_env",
    "is_installed",
    "install",
    "uninstall",
    "active",
]


class PlanCheckError(PlanError):
    """A plan (or cache entry) violates an IR invariant.

    Subclasses :class:`~repro.errors.PlanError`: a plan that fails
    verification is exactly a statement for which no valid plan exists,
    and callers that already catch planner errors keep working under
    ``REPRO_PLANCHECK=1``.
    """

    def __init__(self, findings: list["PlanFinding"]) -> None:
        self.findings = findings
        lines = "\n".join(f"  - {finding}" for finding in findings)
        super().__init__(f"plancheck: {len(findings)} violation(s)\n{lines}")


@dataclass(frozen=True)
class PlanFinding:
    """One invariant violation at one plan node."""

    check: str  # "schema" | "estimates" | "cache" | "charge"
    node: str  # plan-node type name ("" for entry-level findings)
    message: str

    def __str__(self) -> str:
        where = f" at {self.node}" if self.node else ""
        return f"[{self.check}]{where}: {self.message}"


# --------------------------------------------------------------------------
# enable/disable (lockcheck-style)
# --------------------------------------------------------------------------

_ENV_VAR = "REPRO_PLANCHECK"
_installed = False


def enabled_from_env() -> bool:
    """Did the environment (``REPRO_PLANCHECK=1``) request verification?"""
    return os.environ.get(_ENV_VAR, "") not in ("", "0")


def is_installed() -> bool:
    return _installed


def install() -> None:
    """Turn on strict per-query verification process-wide."""
    global _installed
    _installed = True


def uninstall() -> None:
    global _installed
    _installed = False


@contextmanager
def active() -> Iterator[None]:
    """Strict verification for the duration of the block (test fixture)."""
    install()
    try:
        yield
    finally:
        uninstall()


def enabled() -> bool:
    """Should the database hooks verify (installed or env-requested)?"""
    return _installed or enabled_from_env()


# --------------------------------------------------------------------------
# charge coverage registry
# --------------------------------------------------------------------------

#: Every row-producing plan-node type and where its output is charged to
#: the per-query :class:`~repro.qos.governor.ResourceGovernor`. A node
#: type missing from this registry fails verification: new operators must
#: document their charge point before they can appear in a plan.
CHARGE_POINTS: dict[str, str] = {
    "ScanNode": (
        "executor._execute_scan_uncached charges surviving positions per "
        "partition; volcano._iter_scan yields under a should_stop gate"
    ),
    "SubqueryScanNode": "pass-through rename; inner plan already charged",
    "FilterNode": "reduces charged input; never produces new rows",
    "JoinNode": (
        "joins recombine charged inputs; volcano charges each emitted row "
        "in execute_volcano's drive loop"
    ),
    "AggregateNode": "folds charged input; output rows bounded by input",
    "ProjectNode": "per-column rewrite of charged input; row count unchanged",
    "SortNode": "reorders charged input; row count unchanged",
    "DistinctNode": "drops duplicates from charged input",
    "LimitNode": "truncates charged input",
    "UnionNode": "concatenates charged inputs",
}


# --------------------------------------------------------------------------
# schema soundness
# --------------------------------------------------------------------------


def _resolve(name: str, table: str | None, available: set[str]) -> str | None:
    """Mirror Batch.resolve: exact qualified, bare, or unique suffix.
    Returns an error message, or None when the reference resolves."""
    name = name.lower()
    if table is not None:
        key = f"{table.lower()}.{name}"
        if key in available:
            return None
        return f"column {table}.{name} not producible (have {sorted(available)})"
    if name in available:
        return None
    matches = [key for key in available if key.endswith(f".{name}")]
    if len(matches) == 1:
        return None
    if not matches:
        return f"column {name} not producible (have {sorted(available)})"
    return f"ambiguous column {name}: {sorted(matches)}"


def _check_expr(
    expr: ast.Expr | None,
    available: set[str],
    node: PlanNode,
    what: str,
    findings: list[PlanFinding],
) -> None:
    if expr is None:
        return
    for ref in ast.collect_column_refs(expr):
        error = _resolve(ref.name, ref.table, available)
        if error is not None:
            findings.append(
                PlanFinding("schema", type(node).__name__, f"{what}: {error}")
            )


def _catalog_columns(catalog: Any, table: str) -> set[str] | None:
    """Lower-cased catalog columns of ``table``; None when unknown.
    Accepts both a raw Catalog and a planner CatalogView."""
    if catalog is None:
        return None
    if hasattr(catalog, "columns_of"):  # planner.CatalogView
        try:
            return set(catalog.columns_of(table))
        except TableNotFoundError:
            return None
    if not catalog.has_table(table):
        return None
    return {name.lower() for name in catalog.table(table).schema.column_names}


def _scan_outputs(node: ScanNode, catalog: Any, findings: list[PlanFinding]) -> set[str]:
    if not node.table:  # FROM-less SELECT: one virtual row, no columns
        return set()
    known = _catalog_columns(catalog, node.table)
    if known is not None:
        missing = [column for column in node.columns if column.lower() not in known]
        if missing:
            findings.append(
                PlanFinding(
                    "schema",
                    "ScanNode",
                    f"scan of {node.table} selects column(s) {missing} the "
                    f"catalog does not define (have {sorted(known)})",
                )
            )
    return {f"{node.alias.lower()}.{column.lower()}" for column in node.columns}


def _node_outputs(
    node: PlanNode, catalog: Any, findings: list[PlanFinding]
) -> set[str]:
    """Bottom-up schema walk: verify the node, return its output columns."""
    if isinstance(node, ScanNode):
        available = _scan_outputs(node, catalog, findings)
        _check_expr(node.predicate, available, node, "scan predicate", findings)
        return available
    if isinstance(node, SubqueryScanNode):
        inner = _node_outputs(node.plan, catalog, findings)
        for column in node.columns:
            if column not in inner:
                findings.append(
                    PlanFinding(
                        "schema",
                        "SubqueryScanNode",
                        f"derived table {node.alias} expects column {column!r} "
                        f"its subplan does not emit (emits {sorted(inner)})",
                    )
                )
        return {f"{node.alias}.{column}" for column in node.columns}
    if isinstance(node, FilterNode):
        available = _node_outputs(node.child, catalog, findings)
        _check_expr(node.predicate, available, node, "filter predicate", findings)
        return available
    if isinstance(node, JoinNode):
        left = _node_outputs(node.left, catalog, findings)
        right = _node_outputs(node.right, catalog, findings)
        overlap = left & right
        if overlap:
            findings.append(
                PlanFinding(
                    "schema",
                    "JoinNode",
                    f"join sides both emit {sorted(overlap)} — one side would "
                    "silently shadow the other in the merged batch",
                )
            )
        for left_expr, right_expr in node.equi:
            _check_expr(left_expr, left, node, "equi key (left side)", findings)
            _check_expr(right_expr, right, node, "equi key (right side)", findings)
        _check_expr(node.residual, left | right, node, "residual predicate", findings)
        return left | right
    if isinstance(node, AggregateNode):
        available = _node_outputs(node.child, catalog, findings)
        outputs: set[str] = set()
        for expr, name in node.group:
            _check_expr(expr, available, node, f"group key {name!r}", findings)
            outputs.add(name)
        for call, name in node.aggregates:
            _check_expr(call, available, node, f"aggregate {name!r}", findings)
            outputs.add(name)
        return outputs
    if isinstance(node, ProjectNode):
        available = _node_outputs(node.child, catalog, findings)
        outputs = set()
        for expr, name in list(node.items) + list(node.hidden):
            _check_expr(expr, available, node, f"projection {name!r}", findings)
            if name in outputs:
                findings.append(
                    PlanFinding(
                        "schema",
                        "ProjectNode",
                        f"duplicate output column {name!r} — the second "
                        "definition would silently win",
                    )
                )
            outputs.add(name)
        return outputs
    if isinstance(node, SortNode):
        available = _node_outputs(node.child, catalog, findings)
        for name, _ascending in node.keys:
            if name not in available:
                findings.append(
                    PlanFinding(
                        "schema",
                        "SortNode",
                        f"sort key {name!r} is not an output of the child "
                        f"(have {sorted(available)})",
                    )
                )
        return available
    if isinstance(node, (DistinctNode, LimitNode)):
        return _node_outputs(node.child, catalog, findings)
    if isinstance(node, UnionNode):
        if len(node.inputs) != len(node.input_names):
            findings.append(
                PlanFinding(
                    "schema",
                    "UnionNode",
                    f"{len(node.inputs)} inputs but {len(node.input_names)} "
                    "name lists",
                )
            )
        arities = {len(names) for names in node.input_names}
        if len(arities) > 1:
            findings.append(
                PlanFinding(
                    "schema",
                    "UnionNode",
                    f"branches disagree on arity: {sorted(arities)}",
                )
            )
        for index, (input_node, names) in enumerate(zip(node.inputs, node.input_names)):
            emitted = _node_outputs(input_node, catalog, findings)
            for name in names:
                if name not in emitted:
                    findings.append(
                        PlanFinding(
                            "schema",
                            "UnionNode",
                            f"branch {index} does not emit column {name!r} "
                            f"(emits {sorted(emitted)})",
                        )
                    )
        return set(node.input_names[0]) if node.input_names else set()
    # an unknown node type is reported by the charge-coverage pass; emit
    # nothing so parents fail loudly rather than on a guessed schema
    return set()


# --------------------------------------------------------------------------
# estimate sanity
# --------------------------------------------------------------------------


def _check_estimates(node: PlanNode, findings: list[PlanFinding]) -> None:
    estimate = getattr(node, "estimated_rows", None)
    if estimate is not None:
        if not isinstance(estimate, (int, float)) or isinstance(estimate, bool):
            findings.append(
                PlanFinding(
                    "estimates",
                    type(node).__name__,
                    f"estimated_rows is {type(estimate).__name__}, not a number",
                )
            )
        elif not math.isfinite(float(estimate)) or float(estimate) < 0:
            findings.append(
                PlanFinding(
                    "estimates",
                    type(node).__name__,
                    f"estimated_rows {estimate!r} is not finite and non-negative",
                )
            )
    if isinstance(node, LimitNode):
        for label, value in (("limit", node.limit), ("offset", node.offset)):
            if value is not None and (not isinstance(value, int) or value < 0):
                findings.append(
                    PlanFinding(
                        "estimates", "LimitNode", f"{label} {value!r} is negative or non-integer"
                    )
                )
    # monotonicity: a Limit/Distinct carrying its own estimate may never
    # claim more rows than its child (and a Limit no more than its limit)
    if isinstance(node, (LimitNode, DistinctNode)) and isinstance(estimate, (int, float)):
        child_estimate = getattr(node.child, "estimated_rows", None)
        if child_estimate is not None and float(estimate) > float(child_estimate):
            findings.append(
                PlanFinding(
                    "estimates",
                    type(node).__name__,
                    f"estimated_rows {estimate!r} exceeds the child's "
                    f"{child_estimate!r} — {type(node).__name__} can only shrink",
                )
            )
        if isinstance(node, LimitNode) and node.limit is not None and float(estimate) > float(node.limit):
            findings.append(
                PlanFinding(
                    "estimates",
                    "LimitNode",
                    f"estimated_rows {estimate!r} exceeds the LIMIT {node.limit}",
                )
            )
    for child in node.children():
        _check_estimates(child, findings)


# --------------------------------------------------------------------------
# charge coverage
# --------------------------------------------------------------------------


def _check_charges(node: PlanNode, findings: list[PlanFinding]) -> None:
    type_name = type(node).__name__
    if type_name not in CHARGE_POINTS:
        findings.append(
            PlanFinding(
                "charge",
                type_name,
                f"row-producing node type {type_name} has no registered "
                "governor charge point — add it to plancheck.CHARGE_POINTS "
                "with the engine location that charges its output",
            )
        )
    for child in node.children():
        _check_charges(child, findings)


# --------------------------------------------------------------------------
# cache safety
# --------------------------------------------------------------------------

#: object kinds a frozen plan may consist of; anything else is aliasing
#: (a ``DATE``/``TIMESTAMP`` literal's value is as immutable as a number)
_LEAF_TYPES = (str, int, float, bool, bytes, type(None), datetime.date)


def _iter_graph(value: Any) -> Iterator[Any]:
    """Every object reachable from a plan tree, dataclass-field-wise."""
    stack = [value]
    seen: set[int] = set()
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        yield current
        if isinstance(current, _LEAF_TYPES):
            continue
        if isinstance(current, (list, tuple)):
            stack.extend(current)
            continue
        names = plancache._field_names(type(current))
        if names is not None:
            stack.extend(getattr(current, name) for name in names)


def _reachable_ids(value: Any) -> set[int]:
    return {id(obj) for obj in _iter_graph(value)}


def _check_aliasing(graph: list[Any], findings: list[PlanFinding]) -> None:
    """A frozen plan must consist solely of plan nodes, AST expressions,
    containers, and scalars — anything else (a live batch, a table, an
    execution context) would be shared, mutable session state. ``graph``
    is every object of the plan (:func:`_iter_graph`)."""
    for obj in graph:
        if isinstance(obj, _LEAF_TYPES) or isinstance(obj, (list, tuple)):
            continue
        if plancache._field_names(type(obj)) is not None:
            continue  # a dataclass: plan node, QueryPlan, or AST expression
        findings.append(
            PlanFinding(
                "cache",
                type(obj).__name__,
                f"frozen plan aliases a mutable non-plan object of type "
                f"{type(obj).__name__} — cache entries must be pure IR",
            )
        )


def entry_seal(entry: Any) -> tuple:
    """Value fingerprint of an entry's literal slots. Recorded at insert;
    a later mismatch proves the frozen entry was mutated in place."""
    return tuple(
        (type(slot.value).__name__, repr(slot.value)) for slot in entry.slots
    )


def _is_keyword_constant(slot: ast.Literal) -> bool:
    """TRUE / FALSE / NULL: no literal token feeds them, the key text
    itself fixes their value."""
    return slot.value is None or isinstance(slot.value, bool)


def _check_token_slots(entry: Any, findings: list[PlanFinding]) -> None:
    """The tokens a text-keyed entry binds must be its slots one to one,
    in order — every slot but a keyword constant — or a hit would write
    a value into the wrong leaf, or keep a stale one."""
    index_of = {id(slot): index for index, slot in enumerate(entry.slots)}
    bound = [index_of.get(id(leaf)) for _token, leaf, _convert in entry.template.slots]
    expected = [
        index for index, slot in enumerate(entry.slots) if not _is_keyword_constant(slot)
    ]
    if bound != expected:
        findings.append(
            PlanFinding(
                "cache",
                "",
                f"entry has {len(expected)} literal slot(s) a token must feed but "
                f"its template binds {len(bound)} token(s) to slots {bound} — a hit "
                "would bind constants into the wrong positions",
            )
        )


def verify_entry(
    entry: Any,
    statement: "ast.SelectStatement | ast.UnionStatement | None" = None,
    catalog: Any = None,
) -> list[PlanFinding]:
    """Cache-safety verification of a :class:`~repro.sql.plancache.PlanEntry`
    (plus a full plan verification of the frozen plan itself, when the
    entry holds one — a DML entry is only a parse)."""
    findings: list[PlanFinding] = []
    if entry.plan is not None:
        findings = verify_plan(entry.plan, catalog)
        graph = list(_iter_graph(entry.plan))  # one walk for aliasing and reachability
        _check_aliasing(graph, findings)
    if getattr(entry, "template", None) is not None:
        _check_token_slots(entry, findings)
    if statement is not None:
        fresh = plancache.collect_literals(statement)
        if len(fresh) != len(entry.slots):
            findings.append(
                PlanFinding(
                    "cache",
                    "",
                    f"entry has {len(entry.slots)} slot(s) but the statement "
                    f"carries {len(fresh)} literal(s)",
                )
            )
    if entry.plan is None:
        return findings
    reachable = {id(obj) for obj in graph}
    for index, slot in enumerate(entry.slots):
        if id(slot) not in reachable:
            findings.append(
                PlanFinding(
                    "cache",
                    "",
                    f"slot {index} (value {slot.value!r}) is not reachable "
                    "from the frozen plan — a binding would silently keep "
                    "the cached constant instead of binding the new one",
                )
            )
    return findings


def verify_binding(
    entry: Any,
    bound: Any,
    statement: "ast.SelectStatement | ast.UnionStatement",
) -> list[PlanFinding]:
    """Verify one cache hit's binding: the bound plan — or, for a DML
    entry, the bound statement — against the frozen entry.

    Proves the frozen entry was not mutated (slot-value seal), that every
    changed literal was actually replaced in the bound copy, and that the
    bound copy shares no container sitting on the frozen spine above a
    changed literal (the PR 6 frozen-plan invariant).
    """
    frozen = entry.plan
    if frozen is None and getattr(entry, "template", None) is not None:
        frozen = entry.template.statement
    findings: list[PlanFinding] = []
    seal = getattr(entry, "seal", None)
    if seal is not None and entry_seal(entry) != seal:
        findings.append(
            PlanFinding(
                "cache",
                "",
                "frozen entry's literal slots changed since insert — the "
                "cached plan was mutated in place instead of copied",
            )
        )
    fresh = plancache.collect_literals(statement)
    if len(fresh) != len(entry.slots):
        findings.append(
            PlanFinding(
                "cache",
                "",
                f"binding arity mismatch: {len(entry.slots)} slot(s) vs "
                f"{len(fresh)} statement literal(s)",
            )
        )
        return findings
    changed = [
        (cached, source)
        for cached, source in zip(entry.slots, fresh)
        if type(cached.value) is not type(source.value) or cached.value != source.value
    ]
    if not changed:
        return findings
    if bound is frozen:
        findings.append(
            PlanFinding(
                "cache",
                "",
                "constants changed but the binding returned the frozen plan "
                "itself instead of a substitution copy",
            )
        )
        return findings
    bound_ids = _reachable_ids(bound)
    for cached, source in changed:
        if id(cached) in bound_ids:
            findings.append(
                PlanFinding(
                    "cache",
                    "",
                    f"stale literal {cached.value!r} still reachable from the "
                    f"bound plan — {source.value!r} was not bound",
                )
            )
    dirty_spine = plancache.slot_spine(frozen, [cached for cached, _ in changed])
    shared = bound_ids & set(dirty_spine)
    if shared:
        findings.append(
            PlanFinding(
                "cache",
                "",
                f"bound plan shares {len(shared)} container(s) that lie on "
                "the frozen spine above a changed literal — mutating session "
                "state would leak into the cached entry",
            )
        )
    return findings


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def verify_plan(plan: "QueryPlan | PlanNode", catalog: Any = None) -> list[PlanFinding]:
    """Walk a plan (or bare node tree) and return every invariant violation."""
    findings: list[PlanFinding] = []
    if isinstance(plan, QueryPlan):
        root = plan.root
        outputs = _node_outputs(root, catalog, findings)
        for name in plan.output_names:
            if name not in outputs:
                findings.append(
                    PlanFinding(
                        "schema",
                        "QueryPlan",
                        f"declared output {name!r} is not produced by the "
                        f"root (produces {sorted(outputs)})",
                    )
                )
    else:
        root = plan
        _node_outputs(root, catalog, findings)
    _check_estimates(root, findings)
    _check_charges(root, findings)
    return findings


def check_plan(plan: "QueryPlan | PlanNode", catalog: Any = None) -> None:
    """Raise :class:`PlanCheckError` when a plan violates any invariant."""
    findings = verify_plan(plan, catalog)
    if findings:
        raise PlanCheckError(findings)
