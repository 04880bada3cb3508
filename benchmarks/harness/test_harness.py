"""Self-tests of the benchmark harness.

    python -m pytest benchmarks/harness -q

``test_smoke`` is the entry point a CI job would call: every workload at
1/50 of its operation count, traced and untraced, answer checks on.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path
from time import perf_counter

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.harness import metrics, report, runner, trace  # noqa: E402
from benchmarks.harness.__main__ import main  # noqa: E402
from benchmarks.harness.trace import Span  # noqa: E402
from benchmarks.harness.workloads import WORKLOADS, HtapMixed, same_rows  # noqa: E402


def test_self_time_is_duration_minus_children():
    spans = [
        Span("core.database:Database.execute", -1, 0, 0.0, 10.0),
        Span("sql.parser:database.parse", 0, 0, 1.0, 3.0),
        Span("sql.lexer:parser.tokenize", 1, 0, 1.5, 2.0),
        Span("sql.executor:database.execute_plan", 0, 0, 4.0, 9.0),
        Span("columnstore.table:TablePartition.column_array", 3, 0, 5.0, 6.0),
        Span("columnstore.table:TablePartition.column_array", 3, 0, 6.0, 8.0),
        Span("core.database:Database.execute", -1, 1, 20.0, 21.0),
    ]
    assert trace.self_times(spans) == [3.0, 1.5, 0.5, 2.0, 1.0, 2.0, 1.0]
    summary = trace.summarise(spans)
    assert summary["core.database"] == {"calls": 2, "self_s": 4.0}
    assert summary["columnstore.table"] == {"calls": 2, "self_s": 3.0}
    assert summary["sql.lexer:parser.tokenize"] == {"calls": 1, "self_s": 0.5}
    # self times of all spans add up to the time spent inside root spans
    assert sum(trace.self_times(spans)) == 11.0
    slowest = trace.max_child_self_per_root(
        spans, "columnstore.table:TablePartition.column_array"
    )
    assert slowest == 2.0


def test_install_uninstall_restores_every_attribute():
    before = [
        vars(trace.resolve_owner(target.owner))[target.attr] for target in trace.TARGETS
    ]
    tracer = trace.Tracer()
    with tracer:
        during = [
            vars(trace.resolve_owner(target.owner))[target.attr] for target in trace.TARGETS
        ]
    after = [
        vars(trace.resolve_owner(target.owner))[target.attr] for target in trace.TARGETS
    ]
    assert all(shim is not original for shim, original in zip(during, before))
    assert all(shim.__wrapped__ is original for shim, original in zip(during, before))
    assert all(restored is original for restored, original in zip(after, before))


class SmallHtap(HtapMixed):
    """The mixed workload on tables small enough for a unit test, with a
    merge threshold the 100-operation stream reaches."""

    customers_n, orders_n = 50, 2_000
    MERGE_THRESHOLD = 20


def _answers(traced: bool) -> tuple[runner.StreamOutcome, trace.Tracer]:
    workload = SmallHtap(seed=3)
    runner.set_up(workload)
    workload.prepare_checks()
    tracer = trace.Tracer()
    if traced:
        with tracer:
            outcome = runner.run_stream(workload, 100, tracer, keep_answers=True)
    else:
        outcome = runner.run_stream(workload, 100, keep_answers=True)
    runner.check_final_count(workload, outcome)
    return outcome, tracer


def test_traced_and_untraced_streams_return_identical_answers():
    plain, _ = _answers(traced=False)
    traced, tracer = _answers(traced=True)
    assert plain.failed == traced.failed == 0, plain.failures + traced.failures
    assert plain.attempted == traced.attempted == 101  # 100 operations + the final count
    assert plain.answers == traced.answers
    assert "merge" in traced.latencies
    # one root span per operation, none left open, no parent after its child
    spans = tracer.spans
    roots = [span for span in spans if span.parent == -1]
    assert [span.request for span in roots] == list(range(100))
    assert all(span.end >= span.start > 0 for span in spans)
    assert all(span.parent < index for index, span in enumerate(spans))


def test_contract_lines_carry_exactly_the_declared_metrics(tmp_path):
    result = runner.run_workload("soe_scaleout", seed=2, seconds=0.2, traced=False)
    line = json.loads(report.contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(metrics.GATED_END_TO_END)
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
    # a class the workload does not run is null in the result file, never 0
    assert result["end_to_end"]["point_read_p50_ms"]["value"] is None
    assert result["end_to_end"]["soe_agg_p50_ms"]["n"] > 0

    traced = runner.run_workload("soe_scaleout", seed=2, seconds=0.2, traced=True, trace_dir=tmp_path)
    line = json.loads(report.contract_line(traced))
    assert list(line["metrics"]) == [metric.name for metric in metrics.PER_LAYER]
    assert traced["per_layer"]["sql.parser.calls"]["value"] == 0  # repro.sql is bypassed
    assert traced["per_layer"]["soe.coordinator.plans"]["value"] > 0
    dumped = json.loads((tmp_path / "TRACE_soe_scaleout.json").read_text())
    assert len(dumped["spans"]) == sum(
        traced["per_layer"][f"{layer}.calls"]["value"] for layer in trace.LAYERS
    )


def test_smoke():
    start = perf_counter()
    assert main(["--smoke"]) == 0
    assert perf_counter() - start < 20.0


def test_benchmark_json_declares_what_the_harness_prints():
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [workload["name"] for workload in declared["workloads"]] == list(WORKLOADS)
    gated = {metric.name: metric for metric in metrics.END_TO_END}
    assert [entry["name"] for entry in declared["end_to_end"]] == list(metrics.GATED_END_TO_END)
    for entry in declared["end_to_end"]:
        metric = gated[entry["name"]]
        assert entry == {
            "name": metric.name, "unit": metric.unit, "better": metric.better, "bound": metric.bound
        }
        assert 0 < entry["bound"] <= 0.25
    assert declared["per_layer"] == [
        {"name": metric.name, "unit": metric.unit, "better": metric.better}
        for metric in metrics.PER_LAYER
    ]
    assert len(declared["per_layer"]) <= 128


def test_same_rows_ignores_order_and_float_noise():
    assert same_rows([[1, 2.0], [2, 3.0]], [[2, 3.0 + 1e-9], [1, 2.0]])
    assert not same_rows([[1, 2.0]], [[1, 2.1]])
    assert not same_rows([[1, 2.0]], [[1, 2.0], [1, 2.0]])
    assert not same_rows([[1, None]], [[1, 0.0]])


def _result(seed: int = 1) -> dict:
    return {
        "header": {"workload": "w", "git_commit": "abc", "seed": seed, "ops": 10},
        "failed": 0,
        "end_to_end": {
            "throughput_ops_s": {"value": 100.0, "unit": "ops/s"},
            "insert_p50_ms": {"value": 1.0, "unit": "ms"},
            "failed_share": {"value": 0.0, "unit": "ratio"},
            "join_p50_ms": {"value": None, "unit": "ms"},
        },
        "per_layer": {
            "sql.executor.rows_scanned": {"value": 500.0, "unit": "count"},
            "sql.executor.self_s": {"value": 0.5, "unit": "s"},
        },
    }


def test_compare_passes_within_bounds_and_fails_beyond():
    old, new = _result(), _result()
    new["end_to_end"]["insert_p50_ms"]["value"] = 1.24
    new["end_to_end"]["throughput_ops_s"]["value"] = 76.0
    new["per_layer"]["sql.executor.self_s"]["value"] = 0.9  # a time: never exact
    text, passed = report.compare(old, new)
    assert passed, text

    slower = copy.deepcopy(new)
    slower["end_to_end"]["insert_p50_ms"]["value"] = 1.26
    assert not report.compare(old, slower)[1]

    lower_throughput = copy.deepcopy(new)
    lower_throughput["end_to_end"]["throughput_ops_s"]["value"] = 74.0
    assert not report.compare(old, lower_throughput)[1]

    failing = copy.deepcopy(new)
    failing["end_to_end"]["failed_share"]["value"] = 0.001  # bound 0: any rise
    assert not report.compare(old, failing)[1]


def test_compare_wants_exact_counts_only_from_the_same_code_and_seed():
    old, new = _result(), _result()
    new["per_layer"]["sql.executor.rows_scanned"]["value"] = 499.0
    text, passed = report.compare(old, new)
    assert not passed and "BREACH (same code and seed)" in text
    other_seed = _result(seed=2)
    other_seed["per_layer"]["sql.executor.rows_scanned"]["value"] = 499.0
    assert report.compare(old, other_seed)[1]
