"""Per-task code generation for the SOE query service (§IV.A).

"During runtime the engine compiles the SQL statement into C code and
translates it into an executable binary format" — the query services
receive tasks and compile them before execution. Here each
(filter, group-by | probe, aggregates) task shape is turned into one fused
Python loop, compiled once, and cached; subsequent tasks with the same
shape reuse the binary (the cache is what makes repeated partition
tasks cheap, mirroring the paper's compiled-plan reuse).

This is the only place in ``repro.soe`` where rows are filtered, probed
and accumulated; :func:`run_partial_aggregate` is the one node-side entry
point. A join is the same kernel with a probe — the group key comes from a
hash table looked up by a fact key column instead of from ``group_by``
columns — so the join strategies differ only in what is shipped to whom.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Sequence

from repro.soe.cluster import approx_values_bytes
from repro.soe.partitions import PrepackagedPartition
from repro.soe.tasks import AggregateSpec, Filter

#: group key tuple -> list of aggregate states
GroupStates = dict[tuple, list[Any]]
#: join key -> group keys of the matching build-side rows
HashTable = dict[Any, list[tuple]]

_KERNEL_CACHE: dict[tuple, Callable[..., GroupStates]] = {}

_OPS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: aggregate op -> (initial state, statement folding a non-NULL value {v}
#: into the state {s}, function merging two non-NULL states)
_STATES = {
    "count": ("0", "{s} += 1", operator.add),
    "sum": ("None", "{s} = {v} if {s} is None else {s} + {v}", operator.add),
    "avg": ("[0.0, 0]", "{s}[0] += {v}; {s}[1] += 1", lambda a, b: [a[0] + b[0], a[1] + b[1]]),
    "min": ("None", "if {s} is None or {v} < {s}: {s} = {v}", min),
    "max": ("None", "if {s} is None or {v} > {s}: {s} = {v}", max),
}


def compile_aggregate_kernel(
    columns: tuple[str, ...],
    filters: tuple[Filter, ...],
    group_by: tuple[str, ...],
    aggregates: tuple[AggregateSpec, ...],
    probe_key: str | None = None,
) -> Callable[..., GroupStates]:
    """Generate (or fetch) the fused partial-aggregation kernel.

    The kernel signature is ``kernel(*column_lists, _consts, _groups,
    _hash)``: it scans row-at-a-time over the supplied column lists,
    applies the filters inline (literals come from ``_consts``, so they are
    not part of the cache key), and accumulates into ``_groups``. With
    ``probe_key`` that column's value is looked up in ``_hash`` (NULL and
    unmatched keys drop the row) and the row accumulates once per matching
    group key instead of under its ``group_by`` columns.
    """
    signature = (
        columns,
        tuple((f.column, f.op) for f in filters),
        group_by,
        tuple((a.op, a.column) for a in aggregates),
        probe_key,
    )
    cached = _KERNEL_CACHE.get(signature)
    if cached is not None:
        return cached

    variable_of = {name: f"c_{index}" for index, name in enumerate(columns)}
    lines: list[str] = []
    arg_list = ", ".join(variable_of[name] for name in columns)
    lines.append(f"def _kernel({arg_list}, _consts, _groups, _hash=None):")
    lines.append("    _n = len(%s)" % variable_of[columns[0]])
    lines.append("    for _i in range(_n):")
    # bind needed columns
    needed = {probe_key} if probe_key is not None else set(group_by)
    needed.update(f.column for f in filters)
    needed.update(a.column for a in aggregates if a.column is not None)
    for name in columns:
        if name in needed:
            lines.append(f"        v_{variable_of[name]} = {variable_of[name]}[_i]")
    # inline filters
    for index, filter_spec in enumerate(filters):
        variable = f"v_{variable_of[filter_spec.column]}"
        op = _OPS[filter_spec.op]
        lines.append(
            f"        if {variable} is None or not ({variable} {op} _consts[{index}]):"
        )
        lines.append("            continue")
    # group key: probed from the hash table, or built from the row
    pad = "        "
    if probe_key is not None:
        lines.append(f"        _m = _hash.get(v_{variable_of[probe_key]})")
        lines.append("        if not _m:")
        lines.append("            continue")
        lines.append("        for _k in _m:")
        pad += "    "
    else:
        key = "".join(f"v_{variable_of[name]}, " for name in group_by)
        lines.append(f"        _k = ({key})")
    lines.append(f"{pad}_st = _groups.get(_k)")
    lines.append(f"{pad}if _st is None:")
    lines.append(f"{pad}    _st = [{', '.join(_STATES[a.op][0] for a in aggregates)}]")
    lines.append(f"{pad}    _groups[_k] = _st")
    # accumulate, skipping NULLs
    for index, aggregate in enumerate(aggregates):
        if aggregate.column is not None:
            value = f"v_{variable_of[aggregate.column]}"
            lines.append(f"{pad}if {value} is not None:")
            update = _STATES[aggregate.op][1].format(s=f"_st[{index}]", v=value)
            lines.append(f"{pad}    {update}")
        else:  # count(*)
            lines.append(f"{pad}_st[{index}] += 1")
    lines.append("    return _groups")
    source = "\n".join(lines)
    namespace: dict[str, Any] = {}
    exec(compile(source, "<soe-task-kernel>", "exec"), namespace)  # noqa: S102
    kernel = namespace["_kernel"]
    kernel.generated_source = source  # type: ignore[attr-defined]
    _KERNEL_CACHE[signature] = kernel
    return kernel


def run_partial_aggregate(
    partitions: list[PrepackagedPartition],
    filters: list[Filter],
    group_by: list[str],
    aggregates: list[AggregateSpec],
    probe: tuple[str | None, HashTable | None] = (None, None),
) -> GroupStates:
    """Compile the task kernel and run it over the partitions — the one
    node-side execution entry point of the SOE. ``probe`` is ``(fact key
    column, hash table)`` for a join task."""
    groups: GroupStates = {}
    if not partitions:
        return groups
    probe_key, hash_table = probe
    columns = tuple(partitions[0].columns)
    kernel = compile_aggregate_kernel(
        columns, tuple(filters), tuple(group_by), tuple(aggregates), probe_key
    )
    consts = [f.value for f in filters]
    for partition in partitions:
        column_lists = [partition.column_list(name) for name in columns]
        kernel(*column_lists, consts, groups, hash_table)
    return groups


def merge_group_states(
    parts: list[GroupStates], aggregates: Sequence[AggregateSpec]
) -> GroupStates:
    """Combine partial states from several nodes (the reduce step)."""
    merged: GroupStates = {}
    for part in parts:
        for key, states in part.items():
            target = merged.get(key)
            if target is None:
                merged[key] = [_clone(state) for state in states]
                continue
            for index, aggregate in enumerate(aggregates):
                target[index] = _combine(aggregate.op, target[index], states[index])
    return merged


def merge_hash_tables(parts: list[HashTable]) -> HashTable:
    """Union the build side's per-node hash tables (the broadcast gather)."""
    merged: HashTable = {}
    for part in parts:
        for key, group_keys in part.items():
            merged.setdefault(key, []).extend(group_keys)
    return merged


def _clone(state: Any) -> Any:
    return list(state) if isinstance(state, list) else state


def _combine(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return right if left is None else left
    return _STATES[op][2](left, right)


def finalize_groups(
    groups: GroupStates, aggregates: Sequence[AggregateSpec]
) -> list[list[Any]]:
    """States → output rows: group key columns then aggregate values."""
    rows: list[list[Any]] = []
    for key in sorted(groups, key=lambda k: tuple(map(repr, k))):
        states = groups[key]
        row = list(key)
        for aggregate, state in zip(aggregates, states):
            if aggregate.op == "avg":
                row.append(state[0] / state[1] if state[1] else None)
            else:
                row.append(state)
        rows.append(row)
    return rows


def estimate_states_bytes(groups: GroupStates) -> int:
    """Approximate shipped size of a partial-aggregate result."""
    total = 0
    for key, states in groups.items():
        total += approx_values_bytes(key) + 16 * len(states)
    return total
