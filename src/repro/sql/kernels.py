"""The operator kernels: matching, grouping, joining and grouped reduction
over arrays — one layer under both execution stacks.

:mod:`repro.sql.executor` calls these from its plan-node glue; the SOE
query services and coordinator (:mod:`repro.soe.services.query_service`,
:mod:`repro.soe.tasks`) run every task over their array partitions through
the same functions. Signatures know NumPy arrays and
:class:`~repro.sql.expressions.Coded` columns only. Work is done on integer
stand-ins, so the only Python-level work is per distinct value, and orders
are defined: groups by first appearance, join pairs in left-row order.

**Dense integer keys skip the comparison sort.** Dictionary codes, ranks
and most catalog keys are integers over a span no wider than the input
itself. When :func:`dense_span` finds that — ``max - min + 1`` at most the
input's length — a presence map (:func:`unique_inverse`), per-key counts
and one or two 16-bit radix passes (:func:`stable_order`) stand in for
``np.unique``, ``searchsorted`` and the ``int64`` argsort, at a cost
linear in the input. The budget is the input's length, so whether a kernel
takes the dense path depends on the data alone, and the output is the one
the sort would give, bit for bit; floats, object keys and wide spans keep
the sort. The two primitives live in :mod:`repro.util.arrays`, below the
storage layer, whose position index sorts its value ids with them too.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import TypeMismatchError
from repro.sql.expressions import Coded, Column, is_null_mask
from repro.util.arrays import dense_span, narrow_to_array, stable_argsort, stable_order, with_nulls


def nulls(column: Column) -> np.ndarray:
    return column.codes < 0 if isinstance(column, Coded) else is_null_mask(column)


def as_coded(column: Column) -> Coded:
    if isinstance(column, Coded):
        return column
    if column.dtype != object:
        missing = is_null_mask(column)
        column = column.astype(object)
        column[missing] = None
    return Coded.from_values(column)


def numbers(column: Column) -> np.ndarray:
    """A coded or object column of numbers as a numeric array, converted per
    table entry: ``int64`` when every value is an integer or a boolean, so
    sums stay exact, else ``float64``. NULL rows read 0 — the caller masks
    them."""
    coded = as_coded(column)
    table = narrow_to_array([0 if value is None else +value for value in coded.values.tolist()])
    if table.dtype == object:  # integers that neither int64 nor, beside floats, float64 holds
        table = table.astype(np.float64)
    return table[coded.codes]


def match_keys(columns: list[Column]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Numeric stand-ins for columns that are compared with each other.

    Returns ``(keys, nulls)``: across all given columns two rows hold equal
    values exactly when their keys are equal (NULL rows are flagged in
    ``nulls`` and carry an arbitrary key). Numbers stand for themselves;
    object and coded columns get one integer per distinct value — the only
    Python-level work, and it is per table entry, not per row.
    """
    if not any(column.dtype == object for column in columns):
        kind = np.float64 if any(c.dtype.kind == "f" for c in columns) else np.int64
        keys = [column.astype(kind, copy=False) for column in columns]
        return keys, [is_null_mask(key) for key in keys]
    seen: dict[Any, int] = {}
    keys, missing = [], []
    for coded in map(as_coded, columns):
        table = np.fromiter(
            (seen.setdefault(value, len(seen)) for value in coded.values.tolist()),
            dtype=np.int64,
            count=len(coded.values),
        )
        keys.append(table[coded.codes])
        missing.append(coded.codes < 0)
    return keys, missing


def rank_table(coded: Coded) -> tuple[np.ndarray, np.ndarray]:
    """``(ranks, ordered)``: each row's position in the ascending order of
    the column's distinct values (NULL ranks last), and those values with a
    trailing ``None`` so that ``ordered[ranks]`` is the column again."""
    table = coded.values.tolist()
    ordered = sorted(set(table) - {None})
    rank_of = {value: rank for rank, value in enumerate(ordered)}
    rank_of[None] = len(ordered)
    ranks = np.fromiter((rank_of[value] for value in table), dtype=np.int64, count=len(table))
    ordered.append(None)
    return ranks[coded.codes], np.fromiter(ordered, dtype=object, count=len(ordered))


def unique_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)``; dense keys are numbered
    through a presence map instead of a sort."""
    low, span = dense_span(keys, len(keys))
    if not span:
        return np.unique(keys, return_inverse=True)
    offsets = keys - low
    present = np.zeros(span, dtype=bool)
    present[offsets] = True
    number = np.cumsum(present) - 1
    return (np.flatnonzero(present) + low).astype(keys.dtype, copy=False), number[offsets]


def _first_rows(inverse: np.ndarray, count: int, length: int) -> np.ndarray:
    """The earliest row of each of ``count`` numbered values."""
    first = np.full(count, length)
    np.minimum.at(first, inverse, np.arange(length))
    return first


def group_ids(columns: list[Column], length: int) -> tuple[np.ndarray, np.ndarray]:
    """``(group_ids, first_positions)`` of the rows grouped by all columns.

    Groups are numbered by the first-appearance rank of their first key,
    then of their second, and so on; NULL is a group of its own.
    ``first_positions[g]`` is the earliest row of group ``g``. Without
    columns every row is in group 0.
    """
    ids = np.zeros(length, dtype=np.int64)
    first_positions = np.zeros(min(length, 1), dtype=np.int64)
    for column in columns:
        (keys,), _ = match_keys([column])  # NULL has one key: None's code, or NaN
        distinct, inverse = unique_inverse(keys)
        first = _first_rows(inverse, len(distinct), length)
        order = np.argsort(first)
        rank = np.empty(len(first), dtype=np.int64)
        rank[order] = np.arange(len(first))
        if len(first_positions) <= 1:  # nothing to refine yet: the ranks are the groups
            ids, first_positions = rank[inverse], first[order]
            continue
        codes, ids = unique_inverse(ids * len(first) + rank[inverse])
        first_positions = _first_rows(ids, len(codes), length)
    return ids, first_positions


def join_pairs(
    left_key: np.ndarray, left_ok: np.ndarray, right_key: np.ndarray, right_ok: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equi join on numeric keys: ``(left_index, right_index, counts)``.

    The pairs come in a hash join's order — left rows in order, each with
    its matches in ascending right position; ``counts[i]`` is the number
    of matches of left row ``i``. Rows whose ``ok`` flag is off (NULL keys)
    never join. The right rows are ordered by key; a left key finds its run
    by binary search, or — dense integer keys — by direct lookup in the
    per-key run starts.
    """
    candidates = np.flatnonzero(right_ok)
    build = right_key[candidates]
    low, span = (
        dense_span(build, len(left_key) + len(right_key))
        if left_key.dtype.kind in "iu"
        else (0, 0)
    )
    if span:
        offsets = build - low
        order = candidates[stable_order(offsets, span)]
        per_key = np.bincount(offsets, minlength=span)
        starts = np.cumsum(per_key) - per_key
        # range-check before subtracting: a key far outside would wrap
        inside = left_ok & (left_key >= low) & (left_key <= low + span - 1)
        probe = np.where(inside, left_key, low) - low
        first = starts[probe]
        counts = np.where(inside, per_key[probe], 0)
    else:
        order = candidates[np.argsort(build, kind="stable")]
        sorted_keys = right_key[order]
        first = np.searchsorted(sorted_keys, left_key, side="left")
        counts = np.where(left_ok, np.searchsorted(sorted_keys, left_key, side="right") - first, 0)
    left_index = np.repeat(np.arange(len(left_key)), counts)
    within_run = np.arange(len(left_index)) - np.repeat(np.cumsum(counts) - counts, counts)
    return left_index, order[np.repeat(first, counts) + within_run], counts


def grouped_count(group_ids: np.ndarray, group_count: int) -> np.ndarray:
    """Rows per group."""
    return np.bincount(group_ids, minlength=group_count).astype(np.int64)


def grouped_sum(
    values: np.ndarray, valid: np.ndarray, group_ids: np.ndarray, group_count: int
) -> np.ndarray:
    """Per-group sum of the valid rows, added up in row order: exact in
    ``int64`` for integer arrays — a total beyond it is refused, as integer
    arithmetic refuses — in ``float64`` otherwise."""
    if values.dtype.kind in "biu":
        ids, picked = group_ids[valid], values[valid]
        out = np.zeros(group_count, dtype=np.int64)
        np.add.at(out, ids, picked)
        if may_wrap(picked):  # a wrapped total is off by 2**64: recount exactly
            exact = np.zeros(group_count, dtype=object)
            np.add.at(exact, ids, picked.astype(object))
            for total in exact[(exact < -(2**63)) | (exact >= 2**63)]:
                raise TypeMismatchError(f"BIGINT out of range: {total}")
        return out
    sums = np.bincount(group_ids, weights=np.where(valid, values, 0.0), minlength=group_count)
    return sums.astype(np.float64, copy=False)  # a bincount of no rows comes back int64


def may_wrap(values: np.ndarray) -> bool:
    """Whether the largest magnitude of integers times their number reaches
    2**63, so that their ``int64`` sum could wrap."""
    if values.dtype.kind == "b" or not len(values):
        return False
    return max(int(values.max()), -int(values.min())) * len(values) >= 2**63


_EXTREME = {"min": np.minimum, "max": np.maximum}


def grouped_extreme(
    op: str, column: Column, valid: np.ndarray, group_ids: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per-group ``min``/``max`` of the valid rows, ``counts`` of them per
    group. Numbers and booleans are reduced in their own dtype (integers
    exact beyond 2**53); an object or coded column reduces the ranks of its
    values and hands back the values (``None`` where a group had no valid
    row). A group without one holds an arbitrary value."""
    ordered = None
    if column.dtype == object:
        column, ordered = rank_table(as_coded(column))
    if column.dtype.kind in "iu":
        low, high = np.iinfo(column.dtype).min, np.iinfo(column.dtype).max
    else:
        low, high = (False, True) if column.dtype.kind == "b" else (-np.inf, np.inf)
    out = np.full(len(counts), high if op == "min" else low, dtype=column.dtype)  # no row beats it
    _EXTREME[op].at(out, group_ids[valid], column[valid])
    return out if ordered is None else ordered[np.where(counts > 0, out, -1)]


def reduce_states(
    op: str, values: Column | None, counts: np.ndarray | None, group_ids: np.ndarray, group_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fold per-row aggregate states into one ``(value, count)`` per group.

    A state says ``count`` non-NULL inputs reduce to ``value`` under ``op``
    (count / sum / avg: their sum — an average is sum over count at the end;
    min / max: their extreme; a ``count`` state carries the count as its
    value). Counts and sums add up, a min of
    mins, a max of maxes — and a raw row is such a state, which ``counts``
    None says: one input, none where ``values`` is NULL (``values`` None is
    ``count(*)``). So the executor's aggregate, the SOE's partial aggregate
    over rows and the merge of partial states are this one reduction, and
    :func:`finalize` turns its states into answers.
    """
    if counts is not None:
        valid = counts > 0
        totals = grouped_sum(counts, valid, group_ids, group_count)
    elif values is None:
        totals = grouped_count(group_ids, group_count)
    else:
        valid = ~nulls(values)
        totals = grouped_count(group_ids[valid], group_count)
    if op == "count":
        return totals, totals
    if op in ("min", "max"):
        return grouped_extreme(op, values, valid, group_ids, totals), totals
    if values.dtype == object:
        values = numbers(values)
    if op == "avg" and values.dtype.kind in "iu" and may_wrap(values[valid]):
        values = values.astype(np.float64)  # an average is a float: its sum need not be exact
    return grouped_sum(values, valid, group_ids, group_count), totals


def finalize(op: str, values: Column, counts: np.ndarray) -> Column:
    """The answer per group of :func:`reduce_states`' states: ``avg`` is sum
    over count, ``count`` the count (0 for no non-NULL input), any other
    the value — NULL for no non-NULL input, which keeps integers exact."""
    if op == "avg":
        with np.errstate(invalid="ignore", divide="ignore"):
            return values / counts
    if op == "count" or 0 not in counts:
        return values
    out = with_nulls(values).copy()
    out[counts == 0] = np.nan if out.dtype.kind == "f" else None
    return out
