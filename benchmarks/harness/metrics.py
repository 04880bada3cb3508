"""Metric definitions and how each is computed from a run.

Two sets are defined here and nowhere else:

* the *result-file* set — the sixteen end-to-end metrics of the README
  table (per-class medians are ``null`` on a workload that does not run
  the class, never 0) plus the per-class diagnostics;
* the *gated* set — ``GATED_END_TO_END`` and ``PER_LAYER`` — which is what
  ``BENCHMARK.json`` declares and what the last stdout line carries. The
  builder's contract wants every gated metric to be a non-zero number on
  *every* workload, so it holds only workload-independent metrics; the
  per-class medians are gated through their geometric mean.
"""

from __future__ import annotations

import math
import resource
import statistics
from typing import Any, NamedTuple, Sequence

from benchmarks.harness import trace


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the old value by which the metric may worsen (end-to-end only)
    bound: float | None = None


#: latency class -> its end-to-end median (README table 1)
CLASS_P50 = {
    "point_read": "point_read_p50_ms",
    "insert": "insert_p50_ms",
    "update": "update_p50_ms",
    "agg_str": "agg_str_p50_ms",
    "agg_int": "agg_int_p50_ms",
    "join": "join_p50_ms",
    "wide_select": "wide_select_p50_ms",
    "adhoc": "adhoc_p50_ms",
    "soe_agg": "soe_agg_p50_ms",
    "soe_join_broadcast": "soe_join_broadcast_p50_ms",
    "soe_join_repartition": "soe_join_repartition_p50_ms",
    "soe_write_visible": "soe_write_visible_p50_ms",
}

#: classes whose median is a diagnostic, not an end-to-end metric
DIAGNOSTIC_P50 = {
    "join3": "core.database.join3_p50_ms",
    "topk": "core.database.topk_p50_ms",
    "delete": "core.database.delete_p50_ms",
    "merge": "core.database.merge_p50_ms",
    "soe_join_colocated": "soe.engine.join_colocated_p50_ms",
}

#: Bound of a wall-time metric. Ten runs of one commit in ten processes
#: differ by 3-6 % (distance between quartiles over median) on the shared
#: 2-core box the benchmark was defined on, whatever statistic is taken
#: within a run - the box drifts for longer than a run lasts; ten seeds
#: spread up to 7 %. The bound is three times that (the most the
#: benchmark contract allows), so that noise alone does not breach it.
WALL_TIME_BOUND = 0.25

END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_ops_s", "ops/s", "higher", WALL_TIME_BOUND),
    Metric("failed_share", "ratio", "lower", 0.0),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    *(Metric(name, "ms", "lower", WALL_TIME_BOUND) for name in CLASS_P50.values()),
    Metric("class_p50_geomean_ms", "ms", "lower", WALL_TIME_BOUND),
)

#: the end-to-end metrics every workload reports as a non-zero number
GATED_END_TO_END = (
    "setup_s",
    "throughput_ops_s",
    "class_p50_geomean_ms",
    "peak_rss_mb",
)

_EXTRAS: tuple[Metric, ...] = (
    Metric("sql.plancache.hit_rate", "ratio", "higher"),
    Metric("sql.plancache.evictions", "count", "lower"),
    Metric("sql.plancache.invalidations", "count", "lower"),
    Metric("analysis.plancheck.rejected", "count", "lower"),
    Metric("sql.executor.rows_scanned", "count", "lower"),
    Metric("sql.executor.rows_out", "count", "lower"),
    Metric("sql.executor.rows_scanned_per_row_out", "ratio", "lower"),
    Metric("core.result.rows_materialised", "count", "lower"),
    Metric("columnstore.table.column_array.calls", "count", "lower"),
    Metric("columnstore.table.column_array.self_s", "s", "lower"),
    Metric("columnstore.table.insert.self_s", "s", "lower"),
    Metric("columnstore.table.delta_rows_max", "count", "lower"),
    Metric("columnstore.table.bytes_per_user_byte", "ratio", "lower"),
    Metric("columnstore.merge.busy_s", "s", "lower"),
    Metric("columnstore.merge.rows_merged", "count", "lower"),
    Metric("columnstore.merge.ids_rewritten", "count", "lower"),
    Metric("columnstore.merge.max_stall_ms", "ms", "lower"),
    Metric("transaction.manager.commits", "count", "lower"),
    Metric("soe.coordinator.plans", "count", "lower"),
    Metric("soe.coordinator.tasks", "count", "lower"),
    Metric("soe.coordinator.retries", "count", "lower"),
    Metric("soe.query_service.tasks", "count", "lower"),
    Metric("soe.query_service.task_self_s", "s", "lower"),
    Metric("soe.query_service.task_self_max_per_plan_s", "s", "lower"),
    Metric("soe.cluster.messages", "count", "lower"),
    Metric("soe.cluster.bytes_shipped", "bytes", "lower"),
    Metric("soe.cluster.sim_network_s", "s", "lower"),
    Metric("soe.transaction_broker.transactions", "count", "lower"),
    Metric("soe.shared_log.appends", "count", "lower"),
    Metric("soe.replication.entries_applied", "count", "lower"),
    Metric("harness.trace_overhead_ratio", "ratio", "lower"),
    Metric("harness.attributed_share", "ratio", "higher"),
    Metric("harness.calibration_ms", "ms", "lower"),
)

PER_LAYER: tuple[Metric, ...] = (
    *(
        metric
        for layer in trace.LAYERS
        for metric in (
            Metric(f"{layer}.calls", "count", "lower"),
            Metric(f"{layer}.self_s", "s", "lower"),
        )
    ),
    *_EXTRAS,
)

#: per-layer counts that repeat exactly between two runs of one commit,
#: seed and length: everything that is not a wall-clock time
EXACT_COUNTS = tuple(
    metric.name
    for metric in PER_LAYER
    if metric.unit in ("count", "bytes")
    or metric.name in ("soe.cluster.sim_network_s", "sql.plancache.hit_rate")
)


def p95(samples: Sequence[float]) -> float | None:
    """The 95th percentile, reported only where at least ten samples lie
    beyond it (200 samples or more)."""
    if len(samples) < 200:
        return None
    ordered = sorted(samples)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def _entry(value: float | None, unit: str, n: int | None = None) -> dict[str, Any]:
    entry: dict[str, Any] = {"value": value, "unit": unit}
    if n is not None:
        entry["n"] = n
    return entry


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    latencies: dict[str, list[float]],
    classes: Sequence[str],
    attempted: int,
    failed: int,
    setup_seconds: Sequence[float],
) -> dict[str, dict[str, Any]]:
    """The sixteen end-to-end metrics plus the gated geometric mean."""
    operations = sum(len(samples) for samples in latencies.values())
    medians_ms = {
        cls: statistics.median(samples) * 1e3 for cls, samples in latencies.items()
    }
    # every operation at the median cost of its class: the shared box's
    # own stalls move a sum of latencies by a tenth between identical
    # runs, and class medians by half of that
    typical_busy = sum(len(latencies[cls]) * ms / 1e3 for cls, ms in medians_ms.items())
    out = {
        "setup_s": _entry(statistics.median(setup_seconds), "s", len(setup_seconds)),
        "throughput_ops_s": _entry(operations / typical_busy, "ops/s", operations),
        "failed_share": _entry(failed / attempted, "ratio", attempted),
        "peak_rss_mb": _entry(peak_rss_mb(), "MB"),
    }
    for cls, name in CLASS_P50.items():
        out[name] = _entry(medians_ms.get(cls), "ms", len(latencies.get(cls, ())))
    measured = [medians_ms[cls] for cls in classes if cls in medians_ms]
    out["class_p50_geomean_ms"] = _entry(
        statistics.geometric_mean(measured), "ms", len(measured)
    )
    return out


def diagnostics(latencies: dict[str, list[float]]) -> dict[str, dict[str, Any]]:
    """Ungated numbers: operations per second of summed latency (stalls
    of the box included), the medians that are not end-to-end metrics,
    and p95 wherever the class has the samples for it."""
    operations = sum(len(samples) for samples in latencies.values())
    busy = sum(sum(samples) for samples in latencies.values())
    out = {"harness.wall_throughput_ops_s": _entry(operations / busy, "ops/s", operations)}
    for cls, samples in latencies.items():
        layer = "soe.engine" if cls.startswith("soe_") else "core.database"
        if cls in DIAGNOSTIC_P50:
            out[DIAGNOSTIC_P50[cls]] = _entry(
                statistics.median(samples) * 1e3, "ms", len(samples)
            )
        tail = p95(samples)
        if tail is not None:
            out[f"{layer}.{cls}_p95_ms"] = _entry(tail * 1e3, "ms", len(samples))
    return out


def per_layer(
    spans: list[trace.Span],
    counts: dict[str, float],
    public_stats: dict[str, float],
    busy_traced: float,
    busy_untraced: float,
    merge_seconds: Sequence[float],
    calibration_ms: float,
) -> dict[str, dict[str, Any]]:
    """Every ``PER_LAYER`` metric; a layer the workload never enters
    reports 0 calls and 0 s, which is its measured value."""
    summary = trace.summarise(spans)
    values: dict[str, float] = {metric.name: 0.0 for metric in PER_LAYER}
    for layer in trace.LAYERS:
        for field in ("calls", "self_s"):
            values[f"{layer}.{field}"] = summary.get(layer, {}).get(field, 0.0)
    values.update(counts)
    values.update(public_stats)

    def span_field(layer: str, method: str, field: str) -> float:
        return summary.get(f"{layer}:{method}", {}).get(field, 0.0)

    values["columnstore.table.column_array.calls"] = span_field(
        "columnstore.table", "TablePartition.column_array", "calls"
    )
    values["columnstore.table.column_array.self_s"] = span_field(
        "columnstore.table", "TablePartition.column_array", "self_s"
    )
    values["columnstore.table.insert.self_s"] = span_field(
        "columnstore.table", "ColumnTable.insert", "self_s"
    )
    rows_out = values["sql.executor.rows_out"]
    values["sql.executor.rows_scanned_per_row_out"] = (
        values["sql.executor.rows_scanned"] / rows_out if rows_out else 0.0
    )
    values["columnstore.merge.max_stall_ms"] = max(merge_seconds, default=0.0) * 1e3
    task_span = "soe.query_service:QueryService.execute"
    values["soe.query_service.task_self_s"] = summary.get(task_span, {}).get("self_s", 0.0)
    values["soe.query_service.task_self_max_per_plan_s"] = trace.max_child_self_per_root(
        spans, task_span
    )
    entry_self = sum(values[f"{layer}.self_s"] for layer in trace.ENTRY_LAYERS)
    values["harness.attributed_share"] = 1.0 - entry_self / busy_traced
    values["harness.trace_overhead_ratio"] = busy_traced / busy_untraced
    values["harness.calibration_ms"] = calibration_ms
    return {metric.name: _entry(values[metric.name], metric.unit) for metric in PER_LAYER}
