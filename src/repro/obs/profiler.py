"""Per-operator query profiling: ``EXPLAIN``, but with measured numbers.

The vectorised executor (:mod:`repro.sql.executor`) consults
``context.profiler`` around every plan-node dispatch; when a
:class:`QueryProfiler` is installed it records each operator's wall time
and output row count, preserving the plan tree's shape. The result is a
:class:`Profile` — the plan tree annotated with rows and milliseconds per
node — surfaced as ``session.profile(sql)`` /
``database.profile(sql)``. This is the measurement substrate the
ROADMAP's "as fast as the hardware allows" goal is judged against: every
later optimisation PR can show *which operator* got faster.

When no profiler is installed the executor's guard is a single attribute
read and ``is None`` branch per plan node (not per row); benchmark E21
bounds the cost.

**Profiler as feedback source:** each :class:`OperatorProfile` also
captures the plan node's cardinality ``signature`` (when the planner
assigned one), so a finished profile tree can be replayed into the
optimizer's feedback store —
``database.feedback.harvest(profile.root)`` records every signed
operator's measured row count exactly as live execution would have. The
profiler thereby closes the adaptive loop from the observability side:
measure once with ``session.profile(sql)``, and subsequent plans of the
same query shapes use the observed cardinalities (see
``docs/OPTIMIZER.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.result import QueryResult
    from repro.sql.planner import PlanNode


@dataclass
class OperatorProfile:
    """One executed plan node: what it was, produced, and cost."""

    operator: str                 # plan-node class name, e.g. "JoinNode"
    label: str                    # human-readable operator description
    rows: int = 0                 # output row count
    wall_seconds: float = 0.0     # inclusive of children
    children: list["OperatorProfile"] = field(default_factory=list)
    #: the node's cardinality-feedback signature, when the planner signed
    #: it — lets ``CardinalityFeedback.harvest`` replay this profile
    signature: str | None = None

    @property
    def wall_ms(self) -> float:
        return self.wall_seconds * 1000.0

    @property
    def self_seconds(self) -> float:
        """Wall time minus the children's wall time (the operator's own work)."""
        return max(0.0, self.wall_seconds - sum(c.wall_seconds for c in self.children))

    def walk(self) -> Iterator["OperatorProfile"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> dict[str, Any]:
        return {
            "operator": self.operator,
            "label": self.label,
            "rows": self.rows,
            "wall_ms": round(self.wall_ms, 6),
            "self_ms": round(self.self_seconds * 1000.0, 6),
            "children": [child.as_dict() for child in self.children],
        }


class _OperatorFrame:
    """Context manager timing one node and linking it to its parent."""

    __slots__ = ("_profiler", "profile", "_started")

    def __init__(self, profiler: "QueryProfiler", profile: OperatorProfile) -> None:
        self._profiler = profiler
        self.profile = profile
        self._started = 0.0

    def __enter__(self) -> OperatorProfile:
        self._started = perf_counter()
        return self.profile

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.profile.wall_seconds = perf_counter() - self._started
        self._profiler._pop(self.profile)


class QueryProfiler:
    """Collects one :class:`OperatorProfile` tree during plan execution."""

    def __init__(self) -> None:
        self.roots: list[OperatorProfile] = []
        self._stack: list[OperatorProfile] = []

    def operator(self, node: "PlanNode") -> _OperatorFrame:
        from repro.sql.planner import describe  # the line planner.explain prints

        profile = OperatorProfile(
            type(node).__name__,
            describe(node),
            signature=getattr(node, "signature", None),
        )
        if self._stack:
            self._stack[-1].children.append(profile)
        else:
            self.roots.append(profile)
        self._stack.append(profile)
        return _OperatorFrame(self, profile)

    def _pop(self, profile: OperatorProfile) -> None:
        if self._stack and self._stack[-1] is profile:
            self._stack.pop()

    @property
    def root(self) -> OperatorProfile | None:
        return self.roots[0] if self.roots else None


@dataclass
class Profile:
    """The result of ``session.profile(sql)``: annotated plan + result."""

    sql: str
    root: OperatorProfile
    result: "QueryResult"
    #: execution-context counters (rows_scanned, partitions_pruned, ...)
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def rows(self) -> list[list[Any]]:
        return self.result.rows

    def nodes(self) -> list[OperatorProfile]:
        """All operator profiles, pre-order."""
        return list(self.root.walk())

    def node(self, operator: str) -> OperatorProfile:
        """The first profile of the given plan-node class name."""
        for profile in self.root.walk():
            if profile.operator == operator:
                return profile
        raise KeyError(f"no {operator!r} in this profile")

    def total_seconds(self) -> float:
        return self.root.wall_seconds

    def as_dict(self) -> dict[str, Any]:
        return {
            "sql": self.sql,
            "plan": self.root.as_dict(),
            "metrics": dict(self.metrics),
            "total_ms": round(self.root.wall_ms, 6),
        }

    def render(self) -> str:
        """Indented plan tree with rows and milliseconds per operator."""
        lines = [f"-- profile: {self.sql.strip()}"]

        def visit(profile: OperatorProfile, depth: int) -> None:
            lines.append(
                f"{'  ' * depth}{profile.label}"
                f"  rows={profile.rows} time={profile.wall_ms:.3f}ms"
                f" self={profile.self_seconds * 1000.0:.3f}ms"
            )
            for child in profile.children:
                visit(child, depth + 1)

        visit(self.root, 0)
        if self.metrics:
            counters = " ".join(f"{k}={v:g}" for k, v in sorted(self.metrics.items()))
            lines.append(f"-- counters: {counters}")
        return "\n".join(lines)
