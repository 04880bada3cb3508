"""Span tracing from outside the program, for the traced run only.

:class:`Tracer` replaces a fixed table of *public* callables — each at
the name its caller looks it up by — with a timing shim that records one
span per call: name, start, end, the enclosing shim's span as parent, and
the operation index as request id. Spans stay in memory until
:meth:`Tracer.write`; :meth:`Tracer.uninstall` puts every original back.
No per-row function is wrapped, so the shims cost a few microseconds per
layer boundary, not per tuple.

A layer's self time is its spans' duration minus the part covered by
their child spans (:func:`self_times`). Counts are taken from the
wrapped callables' arguments and return values — ``PlanCost``,
``MergeStats``, ``ExecutionContext.metrics`` — at the same boundary the
span is recorded at.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple

#: ``counter(counts, args, result)`` adds what one call did to ``counts``
Counter = Callable[[dict[str, float], tuple, Any], None]


class Target(NamedTuple):
    """One callable to wrap: ``owner`` is a dotted module or class path."""

    layer: str
    owner: str
    attr: str
    counter: Counter | None = None

    @property
    def span_name(self) -> str:
        return f"{self.layer}:{self.owner.rsplit('.', 1)[-1]}.{self.attr}"


def _count_execute_plan(counts: dict[str, float], args: tuple, result: Any) -> None:
    context = args[1]
    counts["sql.executor.rows_scanned"] += context.metrics.get("rows_scanned", 0.0)
    counts["sql.executor.rows_out"] += len(result)


def _count_batch_rows(counts: dict[str, float], args: tuple, result: Any) -> None:
    counts["core.result.rows_materialised"] += len(result)


def _count_verify_entry(counts: dict[str, float], args: tuple, result: Any) -> None:
    if result:  # a non-empty findings list: the plan is not cached
        counts["analysis.plancheck.rejected"] += 1


def _count_merge(counts: dict[str, float], args: tuple, result: Any) -> None:
    counts["columnstore.merge.rows_merged"] += result.rows_merged
    counts["columnstore.merge.ids_rewritten"] += result.ids_rewritten
    counts["columnstore.merge.busy_s"] += result.duration_seconds


def _count_commit(counts: dict[str, float], args: tuple, result: Any) -> None:
    counts["transaction.manager.commits"] += 1


def _count_plan(counts: dict[str, float], args: tuple, result: Any) -> None:
    cost = result[1]
    counts["soe.coordinator.plans"] += 1
    counts["soe.coordinator.tasks"] += cost.tasks
    counts["soe.coordinator.retries"] += cost.retries


def _count_transfer(counts: dict[str, float], args: tuple, result: Any) -> None:
    _cluster, source, target, payload_bytes = args
    if source != target:  # a same-node move is free and sends no message
        counts["soe.cluster.messages"] += 1
        counts["soe.cluster.bytes_shipped"] += payload_bytes
        counts["soe.cluster.sim_network_s"] += result


def _count_task(counts: dict[str, float], args: tuple, result: Any) -> None:
    counts["soe.query_service.tasks"] += 1


def _count_submit(counts: dict[str, float], args: tuple, result: Any) -> None:
    counts["soe.transaction_broker.transactions"] += 1


def _count_append(counts: dict[str, float], args: tuple, result: Any) -> None:
    counts["soe.shared_log.appends"] += 1


def _count_catch_up(counts: dict[str, float], args: tuple, result: Any) -> None:
    counts["soe.replication.entries_applied"] += result


_DB = "repro.core.database"
_SERVICES = "repro.soe.services"

#: the fixed shim table. Module-level names are patched in the namespace
#: of the module that *calls* them (``repro.core.database.parse``), so the
#: callee's own module and every other importer are untouched.
TARGETS: tuple[Target, ...] = (
    Target("core.database", f"{_DB}.Database", "execute"),
    Target("core.database", f"{_DB}.Database", "merge"),
    Target("sql.lexer", "repro.sql.parser", "tokenize"),
    Target("sql.parser", _DB, "parse"),
    Target("sql.plancache", "repro.sql.plancache", "fingerprint"),
    Target("sql.plancache", "repro.sql.plancache", "instantiate"),
    Target("sql.plancache", "repro.sql.plancache", "collect_literals"),
    Target("sql.plancache", "repro.sql.plancache", "plan_tables"),
    Target("sql.plancache", "repro.sql.plancache.PlanCache", "get"),
    Target("sql.plancache", "repro.sql.plancache.PlanCache", "put"),
    Target("sql.plancache", "repro.sql.plancache.PlanCache", "invalidate_table"),
    Target("sql.planner", _DB, "plan_select"),
    Target("analysis.plancheck", "repro.analysis.plancheck", "verify_entry", _count_verify_entry),
    Target("analysis.plancheck", "repro.analysis.plancheck", "verify_binding"),
    Target("analysis.plancheck", "repro.analysis.plancheck", "entry_seal"),
    Target("sql.executor", _DB, "execute_plan", _count_execute_plan),
    Target("sql.executor", _DB, "evaluate"),
    Target("core.result", "repro.sql.expressions.Batch", "rows", _count_batch_rows),
    Target("columnstore.table", "repro.columnstore.table.TablePartition", "column_array"),
    Target("columnstore.table", "repro.columnstore.table.TablePartition", "visible_positions"),
    Target("columnstore.table", "repro.columnstore.table.ColumnTable", "insert"),
    Target("columnstore.table", "repro.columnstore.table.ColumnTable", "update_at"),
    Target("columnstore.table", "repro.columnstore.table.ColumnTable", "delete_at"),
    Target("columnstore.merge", _DB, "merge_table", _count_merge),
    Target("transaction.manager", "repro.transaction.manager.TransactionManager", "commit", _count_commit),
    Target("soe.engine", "repro.soe.engine.SoeEngine", "aggregate"),
    Target("soe.engine", "repro.soe.engine.SoeEngine", "join"),
    Target("soe.engine", "repro.soe.engine.SoeEngine", "insert"),
    Target("soe.engine", "repro.soe.engine.SoeEngine", "catch_up_all"),
    Target("soe.coordinator", f"{_SERVICES}.coordinator.Coordinator", "run_aggregate", _count_plan),
    Target("soe.coordinator", f"{_SERVICES}.coordinator.Coordinator", "run_join", _count_plan),
    Target("soe.query_service", f"{_SERVICES}.query_service.QueryService", "execute", _count_task),
    Target("soe.cluster", "repro.soe.cluster.SimulatedCluster", "transfer", _count_transfer),
    Target("soe.transaction_broker", f"{_SERVICES}.transaction_broker.TransactionBroker", "submit", _count_submit),
    Target("soe.shared_log", f"{_SERVICES}.shared_log.SharedLog", "append", _count_append),
    Target("soe.replication", "repro.soe.replication.DataNode", "catch_up", _count_catch_up),
)

#: every layer a span can belong to, in request-path order
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(target.layer for target in TARGETS))

#: the layers a request enters through; their self time is what no
#: narrower layer accounts for
ENTRY_LAYERS = ("core.database", "soe.engine")


def resolve_owner(path: str) -> Any:
    """Import the module or class a dotted ``Target.owner`` names."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module_path, _, class_name = path.rpartition(".")
        return getattr(importlib.import_module(module_path), class_name)


class Span(NamedTuple):
    name: str
    parent: int  # index into the span list, -1 for a request's root span
    request: int
    start: float
    end: float


class Tracer:
    """Installs the shims, holds the spans and counts, restores the originals.

    Spans live in flat ``array`` columns, not in one object per span: a
    run records a few hundred thousand of them, and that many tracked
    objects would make every full garbage collection of the traced run
    slower than the untraced run's - overhead the shims did not cause.
    """

    def __init__(self) -> None:
        self.names = [target.span_name for target in TARGETS]
        self._name = array("i")
        self._parent = array("i")
        self._request = array("i")
        self._start = array("d")
        self._end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        #: set by the run loop before each operation
        self.request = -1
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    def _shim(self, name_id: int, function: Callable[..., Any], counter: Counter | None) -> Callable[..., Any]:
        names, parents, requests = self._name, self._parent, self._request
        starts, ends, stack, counts = self._start, self._end, self._stack, self.counts

        def shim(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        shim.__wrapped__ = function  # type: ignore[attr-defined]
        return shim

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for name_id, target in enumerate(TARGETS):
            owner = resolve_owner(target.owner)
            original = vars(owner)[target.attr]
            self._originals.append((owner, target.attr, original))
            setattr(owner, target.attr, self._shim(name_id, original, target.counter))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    def _rows(self) -> Iterator[tuple[int, int, int, float, float]]:
        return zip(self._name, self._parent, self._request, self._start, self._end)

    @property
    def spans(self) -> list[Span]:
        names = self.names
        return [Span(names[name_id], *rest) for name_id, *rest in self._rows()]

    def write(self, path: Path) -> None:
        """Dump the spans: a name table plus one compact row per span."""
        rows = [
            [name_id, parent, request, round(start, 7), round(end, 7)]
            for name_id, parent, request, start, end in self._rows()
        ]
        payload = {
            "columns": ["name", "parent", "request", "start_s", "end_s"],
            "names": self.names,
            "spans": rows,
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def self_times(spans: list[Span]) -> list[float]:
    """Self time per span: its duration minus its children's durations."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def summarise(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls and self seconds per span name and per layer."""
    by_name: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        for key in (span.name, span.name.split(":", 1)[0]):
            by_name[key]["calls"] += 1
            by_name[key]["self_s"] += own
    return dict(by_name)


def max_child_self_per_root(spans: list[Span], child_name: str) -> float:
    """Sum over requests of the largest self time among ``child_name``
    spans — what the tasks of each plan would cost if they ran in
    parallel, since a plan waits for its slowest task."""
    slowest: dict[int, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if span.name == child_name:
            slowest[span.request] = max(slowest[span.request], own)
    return sum(slowest.values())
