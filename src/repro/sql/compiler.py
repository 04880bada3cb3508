"""Query compilation: a plan becomes one generated, straight-line function.

The paper's SOE "compiles the SQL statement into C code and translates it
into an executable binary format" (Section IV.A, following Dees & Sanders
[11]; Neumann [12] compiles to LLVM). The Python substitute compiles a
plan into one generated Python function holding one call per plan node,
inputs first, into the vectorised engine's operator table
(:data:`repro.sql.executor.OPERATORS`), whose operators run NumPy kernels
over whole columns. No per-tuple interpretation, no per-operator dispatch:
what the interpreter decides per node at run time — which operator, which
inputs, what a LIMIT reads — is decided once here. The SQL semantics live
in the operators alone, so every plan compiles and the compiled engine
answers exactly as the vectorised one does. Benchmark E6 measures it
against the Volcano interpreter (:mod:`repro.sql.volcano`).

**Relation to the plan cache and the adaptive optimizer**
(``docs/OPTIMIZER.md``): the function takes the plan's nodes as an
argument instead of baking them into its source, so it serves every plan
of its shape — a cached plan re-bound to new literals by
:func:`repro.sql.plancache.bind_plan` runs through the same function. It
calls the operators directly, past the interpreter's per-node boundary,
so compiled execution neither records cardinality feedback nor triggers
mid-query re-optimization: it benefits from feedback gathered by the
interpreted engine, it is not a source of it.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import PlanError
from repro.sql.context import ExecutionContext
from repro.sql.executor import OPERATORS, output
from repro.sql.expressions import Batch
from repro.sql.planner import LimitNode, PlanNode, QueryPlan


def plan_nodes(root: PlanNode) -> list[PlanNode]:
    """Every node of a plan tree, each after its inputs."""
    nodes: list[PlanNode] = []

    def walk(node: PlanNode) -> None:
        for child in node.children():
            walk(child)
        nodes.append(node)

    walk(root)
    return nodes


class CompiledQuery:
    """A compiled plan: generated source plus a ready-to-call function."""

    def __init__(self, source: str, function: Callable[..., Batch], plan: QueryPlan) -> None:
        self.source = source
        self._function = function
        self.plan = plan
        self.shape = [type(node) for node in plan_nodes(plan.root)]

    def run(self, context: ExecutionContext, plan: QueryPlan | None = None) -> list[list[Any]]:
        """The rows of the compiled plan, or of another plan of its shape."""
        plan = plan or self.plan
        nodes = plan_nodes(plan.root)
        if [type(node) for node in nodes] != self.shape:
            raise PlanError("the plan's shape differs from the compiled one")
        return output(plan, self._function(context, nodes)).rows()


def compile_plan(plan: QueryPlan) -> CompiledQuery:
    """Generate and compile the Python function that runs ``plan``."""
    nodes = plan_nodes(plan.root)
    position = {id(node): index for index, node in enumerate(nodes)}
    tops = {
        id(node.child): f"nodes[{index}].stop"
        for index, node in enumerate(nodes)
        if isinstance(node, LimitNode)
    }
    lines = ["def _compiled(context, nodes):"]
    for index, node in enumerate(nodes):
        name = type(node).__name__.removesuffix("Node")
        inputs = ", ".join(f"b{position[id(child)]}" for child in node.children())
        top = tops.get(id(node), "None")
        lines.append(f"    b{index} = {name}(nodes[{index}], [{inputs}], context, {top})")
    lines.append(f"    return b{len(nodes) - 1}")
    source = "\n".join(lines)
    namespace = {kind.__name__.removesuffix("Node"): run for kind, run in OPERATORS.items()}
    exec(compile(source, "<compiled-query>", "exec"), namespace)  # noqa: S102
    return CompiledQuery(source, namespace["_compiled"], plan)
