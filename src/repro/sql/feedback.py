"""Cardinality feedback: observed row counts close the optimizer loop.

**Paper mapping:** the web-scale ambition of the paper rests on the
engine choosing good plans under shifting, skewed workloads (§II.A's
planning layer); the HTAP-survey theme of *adaptive* HTAP engines
(PAPERS.md) is the modern form of the same requirement. **Role in the
query path:** the executors (:mod:`repro.sql.executor`,
:mod:`repro.sql.volcano`) report every scan's and join's *actual* output
row count here; the planner (:mod:`repro.sql.planner`) prefers these
observed cardinalities over its static estimates the next time the same
(table, normalized predicate signature) appears, and the plan cache
(:mod:`repro.sql.plancache`) treats a significant change of an observed
count as staleness, forcing a re-plan.

Three pieces live here:

* **Signatures** — :func:`scan_signature` / :func:`join_signature`
  normalize an operator to a workload-stable key: literals become ``?``,
  alias qualifiers are stripped, conjuncts are sorted. ``status = 'a'``
  and ``status = 'b'`` on the same table share one signature — feedback
  generalises across literal values, exactly like the plan cache's
  query-shape fingerprint.
* **The store** — :class:`CardinalityFeedback` keeps an exponentially
  weighted moving average of observed rows per signature, with a
  monotonically increasing *version* per table that only bumps on
  *significant* change (first observation, or drift beyond
  :data:`SIGNIFICANT_FACTOR`). Steady-state traffic therefore keeps
  cached plans hit-hot while real cardinality shifts invalidate them.
  ``save()``/``load()`` persist the store as JSON.
* **Mid-query re-optimization** — :func:`observe_actual` is the single
  check both engines call when an operator's actual row count is known.
  When the actual exceeds the planner's estimate by more than
  :data:`REPLAN_FACTOR` (and the execution context permits re-planning),
  it raises :class:`ReplanSignal` *after* recording the fresh count, so
  the catcher (``Database._run``) can re-plan the statement
  with the corrected cardinalities and resume — completed scans are
  memoised on ``context.scan_cache`` and are not re-read or re-charged.
"""

from __future__ import annotations

import json
import os
import re
import threading
from typing import TYPE_CHECKING, Any, Iterable

from repro import obs
from repro.sql import ast

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.profiler import OperatorProfile
    from repro.sql.context import ExecutionContext

#: actual/estimate ratio beyond which mid-query re-optimization triggers
REPLAN_FACTOR = 10.0

#: observed/previous ratio beyond which a table's feedback version bumps
#: (and dependent plan-cache entries go stale)
SIGNIFICANT_FACTOR = 2.0

#: EWMA weight of the newest observation
SMOOTHING = 0.5

_SCAN_TABLE = re.compile(r"scan:([A-Za-z_0-9]+)")


class ReplanSignal(Exception):
    """Internal control flow: an operator blew past its estimate.

    Raised from the engines' measurement points (never surfaced to
    callers of ``Database.execute``); ``Database._run``
    catches it, re-plans with the fresh feedback, and resumes.
    """

    def __init__(self, signature: str, estimated: float, actual: int) -> None:
        super().__init__(
            f"actual rows {actual} exceed estimate {estimated:.0f} "
            f"by more than {REPLAN_FACTOR:.0f}x for {signature}"
        )
        self.signature = signature
        self.estimated = estimated
        self.actual = actual


# --------------------------------------------------------------------------
# signatures
# --------------------------------------------------------------------------


def normalize_expr(expr: ast.Expr) -> str:
    """Literal-stripped, alias-stripped canonical form of an expression."""
    if isinstance(expr, ast.Literal):
        return "?"
    if isinstance(expr, ast.ColumnRef):
        return expr.name  # drop the alias qualifier: signatures are per table
    if isinstance(expr, ast.BinaryOp):
        return f"({normalize_expr(expr.left)} {expr.op} {normalize_expr(expr.right)})"
    if isinstance(expr, ast.UnaryOp):
        return f"({expr.op} {normalize_expr(expr.operand)})"
    if isinstance(expr, ast.IsNull):
        suffix = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({normalize_expr(expr.operand)} {suffix})"
    if isinstance(expr, ast.InList):
        items = ", ".join(normalize_expr(item) for item in expr.items)
        word = "NOT IN" if expr.negated else "IN"
        return f"({normalize_expr(expr.operand)} {word} ({items}))"
    if isinstance(expr, ast.Between):
        word = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (
            f"({normalize_expr(expr.operand)} {word} "
            f"{normalize_expr(expr.low)} AND {normalize_expr(expr.high)})"
        )
    if isinstance(expr, ast.FunctionCall):
        args = ", ".join(normalize_expr(arg) for arg in expr.args)
        distinct = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({distinct}{args})"
    if isinstance(expr, ast.CaseWhen):
        branches = " ".join(
            f"WHEN {normalize_expr(c)} THEN {normalize_expr(r)}"
            for c, r in expr.branches
        )
        otherwise = (
            f" ELSE {normalize_expr(expr.otherwise)}" if expr.otherwise is not None else ""
        )
        return f"CASE {branches}{otherwise} END"
    if isinstance(expr, ast.Star):
        return "*"
    return str(expr)


def predicate_signature(predicate: ast.Expr | None) -> str:
    """Order-insensitive signature of a conjunctive predicate."""
    conjuncts = ast.split_conjuncts(predicate)
    if not conjuncts:
        return ""
    return " AND ".join(sorted(normalize_expr(conjunct) for conjunct in conjuncts))


def scan_signature(table: str, predicate: ast.Expr | None) -> str:
    """The feedback key of a base-table scan: table + predicate shape."""
    return f"scan:{table}|{predicate_signature(predicate)}"


def join_signature(
    left_signature: str, right_signature: str, equi: Iterable[tuple[ast.Expr, ast.Expr]]
) -> str:
    """The feedback key of a hash join over two signed inputs."""
    keys = ",".join(
        sorted(f"{normalize_expr(l)}={normalize_expr(r)}" for l, r in equi)
    )
    return f"join:[{left_signature}]*[{right_signature}]|{keys}"


def tables_of_signature(signature: str) -> set[str]:
    """Every base table a (possibly nested join) signature touches."""
    return set(_SCAN_TABLE.findall(signature))


# --------------------------------------------------------------------------
# the store
# --------------------------------------------------------------------------


class CardinalityFeedback:
    """Observed row counts per signature, with per-table staleness versions.

    Thread-safe; one instance per :class:`~repro.core.database.Database`.
    """

    def __init__(self, smoothing: float = SMOOTHING) -> None:
        self.smoothing = smoothing
        self._observed: dict[str, float] = {}
        self._samples: dict[str, int] = {}
        self._versions: dict[str, int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._observed)

    # -- recording ----------------------------------------------------------

    def record(self, signature: str, rows: int | float) -> None:
        """Fold one observed row count into the EWMA for ``signature``.

        Bumps the involved tables' versions only when the observation is
        *significant* — the first sample for the signature, or a drift
        beyond :data:`SIGNIFICANT_FACTOR` — so steady-state traffic does
        not invalidate cached plans.
        """
        rows = float(max(rows, 0))
        with self._lock:
            old = self._observed.get(signature)
            new = rows if old is None else (
                (1.0 - self.smoothing) * old + self.smoothing * rows
            )
            self._observed[signature] = new
            self._samples[signature] = self._samples.get(signature, 0) + 1
            significant = old is None or not (
                1.0 / SIGNIFICANT_FACTOR <= (new + 1.0) / (old + 1.0) <= SIGNIFICANT_FACTOR
            )
            if significant:
                for table in tables_of_signature(signature):
                    self._versions[table] = self._versions.get(table, 0) + 1
        obs.count("sql.feedback.records")
        if significant:
            obs.count("sql.feedback.significant_changes")

    def harvest(self, root: "OperatorProfile") -> int:
        """Record every signed operator of a profile tree (the
        "profiler as feedback source" entry point — see
        ``session.profile``). Returns how many operators were recorded."""
        recorded = 0
        for node in root.walk():
            if node.signature is not None:
                self.record(node.signature, node.rows)
                recorded += 1
        return recorded

    # -- reading ------------------------------------------------------------

    def observed(self, signature: str) -> float | None:
        """The smoothed observed row count, or ``None`` when never seen."""
        with self._lock:
            return self._observed.get(signature)

    def samples(self, signature: str) -> int:
        with self._lock:
            return self._samples.get(signature, 0)

    def table_version(self, table: str) -> int:
        with self._lock:
            return self._versions.get(table, 0)

    def versions(self, tables: Iterable[str]) -> dict[str, int]:
        """Snapshot of the given tables' versions (plan-cache staleness key)."""
        with self._lock:
            return {table: self._versions.get(table, 0) for table in tables}

    # -- invalidation / persistence -----------------------------------------

    def forget_table(self, table: str) -> None:
        """Drop every signature touching ``table`` (DDL invalidation)."""
        with self._lock:
            stale = [
                signature
                for signature in self._observed
                if table in tables_of_signature(signature)
            ]
            for signature in stale:
                del self._observed[signature]
                self._samples.pop(signature, None)
            self._versions[table] = self._versions.get(table, 0) + 1

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "observed": dict(self._observed),
                "samples": dict(self._samples),
                "versions": dict(self._versions),
            }

    def save(self, path: str | os.PathLike[str]) -> None:
        """Persist the store as JSON (survives process restarts)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, sort_keys=True, indent=1)

    def load(self, path: str | os.PathLike[str]) -> None:
        """Merge a previously saved store into this one."""
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        with self._lock:
            self._observed.update(payload.get("observed", {}))
            for signature, count in payload.get("samples", {}).items():
                self._samples[signature] = self._samples.get(signature, 0) + int(count)
            for table, version in payload.get("versions", {}).items():
                self._versions[table] = max(self._versions.get(table, 0), int(version))


# --------------------------------------------------------------------------
# the engines' measurement point
# --------------------------------------------------------------------------


def observe_actual(node: Any, rows: int, context: "ExecutionContext") -> None:
    """Record an operator's actual row count; maybe trigger re-optimization.

    Called by both engines wherever an operator's complete output count
    is known (vectorised node boundaries, volcano join-build points).
    Recording happens *before* the :class:`ReplanSignal` is raised so the
    re-plan sees the fresh count. Re-planning is suppressed when the
    context forbids it (``replans_remaining`` exhausted) or when a
    resource governor has already latched degraded — a truncated answer
    must not be thrown away for a better plan it can no longer use.
    """
    signature = getattr(node, "signature", None)
    if signature is None:
        return
    feedback = context.feedback
    if feedback is not None:
        feedback.record(signature, rows)
    estimate = getattr(node, "estimated_rows", None)
    if estimate is None or context.replans_remaining <= 0:
        return
    governor = context.governor
    if governor is not None and governor.should_stop:
        return
    if rows > REPLAN_FACTOR * max(float(estimate), 1.0):
        obs.count("sql.reopt.triggered")
        raise ReplanSignal(signature, float(estimate), rows)
