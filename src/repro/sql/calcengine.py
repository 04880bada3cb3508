"""The Calc Engine: data-flow graphs over relational and external operators.

Figure 2 places a *CalcEngine* beside the OLAP and Join engines; §II.B
explains why it exists: "Access to R is implemented as a special operator
into the internal data flow graph of the database engine allowing the
optimizer to embrace the call to the external system."

A :class:`CalcScenario` is a DAG of named nodes. Sources read tables or
SQL; inner nodes filter, project, join, union, aggregate, run custom
Python row functions, or invoke an external provider
(:mod:`repro.engines.ml.rops`). The scenario builds core plan nodes:
:meth:`CalcScenario.execute` runs the requested node's upstream graph as
one :mod:`repro.sql.planner` tree, each Python or external operator an
:class:`~repro.sql.planner.ExternalNode`, through
:func:`repro.sql.executor.execute`. :meth:`CalcScenario.optimize` is the
"embrace": a filter on a table source becomes that scan's predicate, so
*fewer rows ever reach the external operator*.

In a plan every column is keyed ``n<i>.<name>``, ``n<i>`` being the calc
node that named it, so the two sides of a join never collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

from repro import obs
from repro.analysis import plancheck
from repro.errors import ColumnNotFoundError, PlanError
from repro.sql import ast, executor, planner
from repro.sql.parser import parse

Relation = tuple[list[str], list[list[Any]]]
RowFunction = Callable[[dict[str, Any]], dict[str, Any] | None]
#: a calc node as a plan: the tree and its columns, as references to the
#: batch keys ``n<i>.<name>`` (``None``: an external function names them
#: when it runs)
Planned = tuple[planner.PlanNode, "list[ast.ColumnRef] | None"]

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
_AGGREGATES = ("count", "sum", "avg", "min", "max")


@dataclass
class CalcNode:
    """One operator in the scenario graph."""

    name: str
    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    inputs: list[str] = field(default_factory=list)


class CalcScenario:
    """A named data-flow graph executed against one database."""

    def __init__(self, name: str, database: Any) -> None:
        self.name = name
        self.database = database
        self._nodes: dict[str, CalcNode] = {}
        #: filters optimize() folded into their table source: name -> source
        self._folded: dict[str, str] = {}
        #: filled by execute(): rows flowing out of each node that ran
        self.node_output_rows: dict[str, int] = {}

    # -- graph construction -------------------------------------------------

    def _add(self, name: str, kind: str, params: dict[str, Any], inputs: Sequence[str] = ()) -> str:
        if name in self._nodes or name in self._folded:
            raise PlanError(f"calc node {name!r} already exists")
        inputs = [self._folded.get(input_name, input_name) for input_name in inputs]
        for input_name in inputs:
            if input_name not in self._nodes:
                raise PlanError(f"calc node {name!r} references unknown input {input_name!r}")
        self._nodes[name] = CalcNode(name, kind, params, inputs)
        return name

    def table_source(self, name: str, table: str, columns: list[str] | None = None) -> str:
        """Read a catalog table (optionally a column subset)."""
        columns = [c.lower() for c in columns] if columns else None
        return self._add(name, "table", {"table": table.lower(), "columns": columns, "filters": []})

    def sql_source(self, name: str, sql: str) -> str:
        """Read the result of an arbitrary SQL query."""
        return self._add(name, "sql", {"sql": sql})

    def filter(self, name: str, input_name: str, column: str, op: str, value: Any) -> str:
        """Simple predicate: column <op> literal (optimisable into sources)."""
        if op not in _COMPARISONS:
            raise PlanError(f"unsupported calc filter operator {op!r}")
        return self._add(name, "filter", {"column": column.lower(), "op": op, "value": value}, [input_name])

    def project(self, name: str, input_name: str, columns: list[str]) -> str:
        """Keep (and order) a column subset."""
        return self._add(name, "project", {"columns": [c.lower() for c in columns]}, [input_name])

    def python_operator(self, name: str, input_name: str, function: RowFunction) -> str:
        """A custom row-wise operator (returning None drops the row)."""
        return self._add(name, "python", {"function": function}, [input_name])

    def external_operator(
        self, name: str, input_name: str, provider: Any, function: str, **parameters: Any
    ) -> str:
        """Invoke an external analytics provider (the 'R' operator)."""
        params = {"provider": provider, "function": function, "parameters": parameters}
        return self._add(name, "external", params, [input_name])

    def join(self, name: str, left: str, right: str, left_key: str, right_key: str) -> str:
        """Inner equi join of two nodes."""
        keys = {"left_key": left_key.lower(), "right_key": right_key.lower()}
        return self._add(name, "join", keys, [left, right])

    def union(self, name: str, inputs: list[str]) -> str:
        """Positional UNION ALL of several nodes."""
        if len(inputs) < 2:
            raise PlanError("union needs at least two inputs")
        return self._add(name, "union", {}, list(inputs))

    def aggregate(
        self, name: str, input_name: str, group_by: list[str], aggregates: list[tuple[str, str | None]]
    ) -> str:
        """Group-by aggregation (count/sum/min/max/avg)."""
        params = {
            "group_by": [c.lower() for c in group_by],
            "aggregates": [(op, col.lower() if col else None) for op, col in aggregates],
        }
        return self._add(name, "aggregate", params, [input_name])

    # -- the optimiser's "embrace" ----------------------------------------------

    def optimize(self) -> int:
        """Fold each filter sitting on a table source that nothing else
        reads — a filter folded before counts, since its name still
        answers — into that source's scan predicate, which the scan then
        evaluates on dictionary codes like any pushed-down WHERE.

        Returns the number of filters folded. The rows they drop never
        leave the scan, so they never reach an external operator
        downstream. A folded filter's name resolves to its source.
        """
        folded = 0
        for node in [node for node in self._nodes.values() if node.kind == "filter"]:
            source = self._nodes[node.inputs[0]]
            readers = [other for other in self._nodes.values() if source.name in other.inputs]
            column = node.params["column"]
            if (
                source.kind != "table"
                or readers != [node]
                or source.name in self._folded.values()
                or column not in (source.params["columns"] or [column])
            ):
                continue
            source.params["filters"].append((column, node.params["op"], node.params["value"]))
            for other in self._nodes.values():
                other.inputs = [source.name if i == node.name else i for i in other.inputs]
            del self._nodes[node.name]
            self._folded[node.name] = source.name
            folded += 1
        return folded

    # -- execution -----------------------------------------------------------------

    def execute(self, output: str) -> Relation:
        """Run the named node's upstream graph as one core plan and return
        its relation."""
        name = self._folded.get(output, output)
        if name not in self._nodes:
            raise PlanError(f"unknown calc node {output!r}")
        planned: dict[str, Planned] = {}
        result: list[Relation] = []

        def deliver(keys: list[str], rows: list[list[Any]]) -> Relation:
            result.append(([key.partition(".")[2] for key in keys], rows))
            return [], []

        # the answer leaves the engine the way an external operator's input does
        root, refs = self._plan(name, planned)
        sink = planner.ExternalNode(root, _keys(refs), deliver)
        if plancheck.enabled():
            plancheck.check_plan(sink, self.database.catalog)
        context = self.database._context(None, None)
        context.profiler = obs.QueryProfiler()
        executor.execute(planner.QueryPlan(sink, []), context)
        rows = {}  # the profile mirrors the plan tree
        pending = [(sink, context.profiler.root)]
        while pending:
            node, profile = pending.pop()
            rows[id(node)] = profile.rows
            pending.extend(zip(node.children(), profile.children))
        for calc_name, (plan, _refs) in planned.items():
            self.node_output_rows[calc_name] = rows[id(plan)]
        for calc_name, source in self._folded.items():
            if source in planned:
                self.node_output_rows[calc_name] = self.node_output_rows[source]
        return result[0]

    def _plan(self, name: str, planned: dict[str, Planned]) -> Planned:
        """The calc node as plan nodes over its inputs' plans (each planned
        once, so a node feeding two others is one shared subtree)."""
        if name not in planned:
            node = self._nodes[name]
            inputs = [self._plan(input_name, planned) for input_name in node.inputs]
            planned[name] = self._plan_node(node, f"n{list(self._nodes).index(name)}", inputs)
        return planned[name]

    def _plan_node(self, node: CalcNode, qualifier: str, inputs: list[Planned]) -> Planned:
        params = node.params

        def named(names: list[str]) -> list[ast.ColumnRef]:
            return [ast.ColumnRef(name, qualifier) for name in names]

        if node.kind == "table":
            known = planner.CatalogView(self.database.catalog).columns_of(params["table"])
            columns = params["columns"] or known
            missing = [column for column in columns if column not in known]
            if missing:
                raise ColumnNotFoundError(params["table"], missing[0])
            conjuncts = [
                ast.BinaryOp(op, ast.ColumnRef(column, qualifier), ast.Literal(value))
                for column, op, value in params["filters"]
            ]
            scan = planner.ScanNode(params["table"], qualifier, list(columns), ast.and_together(conjuncts))
            return scan, named(columns)
        if node.kind == "sql":
            statement = parse(params["sql"])
            if not isinstance(statement, (ast.SelectStatement, ast.UnionStatement)):
                raise PlanError(f"calc SQL source {node.name!r} is not a query")
            plan = planner.plan_select(statement, self.database.catalog)
            return planner.SubqueryScanNode(plan.root, qualifier, plan.output_names), named(plan.output_names)
        if node.kind == "union":
            if any(refs is None for _plan, refs in inputs):
                raise PlanError(
                    f"calc union {node.name!r} needs its inputs' columns before they run; "
                    "a Python or external operator names its own only then"
                )
            if len({len(refs) for _plan, refs in inputs}) > 1:
                raise PlanError(f"calc union {node.name!r} has inputs of different widths")
            union = planner.UnionNode([plan for plan, _ in inputs], [_keys(refs) for _, refs in inputs], False)
            return union, inputs[0][1]
        if node.kind == "join":
            (left, left_refs), (right, right_refs) = inputs
            if left_refs is not None and right_refs is not None and not set(left_refs).isdisjoint(right_refs):
                # one node's columns on both sides: re-key the right side's
                renamed = [ast.ColumnRef(ref.name, f"{qualifier}_{i}") for i, ref in enumerate(right_refs)]
                right = planner.ProjectNode(right, list(zip(right_refs, _keys(renamed))))
                right_refs = renamed
            equi = [(_ref(left_refs, params["left_key"]), _ref(right_refs, params["right_key"]))]
            refs = None if left_refs is None or right_refs is None else left_refs + right_refs
            return planner.JoinNode(left, right, "inner", equi), refs
        ((child, refs),) = inputs
        if node.kind == "filter":
            predicate = ast.BinaryOp(params["op"], _ref(refs, params["column"]), ast.Literal(params["value"]))
            return planner.FilterNode(child, predicate), refs
        if node.kind == "project":
            out = named(params["columns"])
            return planner.ProjectNode(child, [(_ref(refs, r.name), str(r)) for r in out]), out
        if node.kind == "aggregate":
            aggregates = params["aggregates"]
            unknown = [op for op, _column in aggregates if op not in _AGGREGATES]
            if unknown:
                raise PlanError(f"unknown calc aggregate {unknown[0]!r}")
            group = named(params["group_by"])
            out = named([f"{op}_{column}" if column else op for op, column in aggregates])
            calls = [
                (ast.FunctionCall(op.upper(), (_ref(refs, column) if column else ast.Star(),)), str(ref))
                for (op, column), ref in zip(aggregates, out)
            ]
            plan = planner.AggregateNode(child, [(_ref(refs, r.name), str(r)) for r in group], calls)
            if group:  # groups in value order, NULLs last
                plan = planner.SortNode(plan, [(str(r), True) for r in group])
            return plan, group + out
        if node.kind == "python":
            run = _row_operator(params["function"])
        else:
            run = partial(params["provider"].operator(params["function"]), **params["parameters"])

        def function(keys: list[str], rows: list[list[Any]]) -> Relation:
            names, out_rows = run([key.partition(".")[2] for key in keys], rows)
            return _keys(named(names)), out_rows

        return planner.ExternalNode(child, _keys(refs), function), None


def _keys(refs: list[ast.ColumnRef] | None) -> list[str] | None:
    """The batch keys of qualified column references (``None`` stays)."""
    return None if refs is None else [str(ref) for ref in refs]


def _ref(refs: list[ast.ColumnRef] | None, column: str) -> ast.ColumnRef:
    """The first column named ``column`` of a relation — or, when an
    external function names the columns, the name, resolved when the plan
    runs."""
    if refs is None:
        return ast.ColumnRef(column)
    for ref in refs:
        if ref.name == column:
            return ref
    raise ColumnNotFoundError("<calc node>", column)


def _row_operator(function: RowFunction) -> Callable[[list[str], list[list[Any]]], Relation]:
    """A row function over a relation: each row goes in as a dict, the
    first dict returned names the output columns, ``None`` drops the row."""

    def run(columns: list[str], rows: list[list[Any]]) -> Relation:
        produced = [out for out in (function(dict(zip(columns, row))) for row in rows) if out is not None]
        out_columns = list(produced[0]) if produced else columns
        return out_columns, [[out[name] for name in out_columns] for out in produced]

    return run
