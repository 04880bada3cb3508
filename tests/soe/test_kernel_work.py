"""The SOE data path's work, as counts (the style of
``tests/sql/test_codes_first.py``): what a write costs the next query, what a
string filter costs, that both execution stacks run one set of kernels, and
that integer keys take its sort-free path without moving a shipped byte."""

import ast
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.soe
from repro.soe import partitions, tasks
from repro.soe.engine import SoeEngine
from repro.soe.partitions import PrepackagedPartition
from repro.soe.services import query_service
from repro.sql import executor, expressions, kernels
from repro.workloads.generators import ErpConfig, erp_customers, erp_orders


@pytest.fixture
def orders():
    soe = SoeEngine(node_count=2)
    soe.create_table("orders", ["id", "customer", "status", "note", "amount"], ["id"], partition_count=4)
    soe.load(
        "orders",
        [[i, i % 7, ["open", "closed", "held"][i % 3], f"note {i}", float(i)] for i in range(400)],
    )
    return soe


def _query(soe):
    return soe.aggregate(
        "orders",
        group_by=["customer"],
        aggregates=[("sum", "amount")],
        filters=[("status", "=", "open")],
    )


def test_a_write_costs_the_next_query_only_the_rows_written(orders, monkeypatch):
    encoded = Counter()
    original = PrepackagedPartition._append

    def spy(self, name, values):
        encoded[name] += len(values)
        return original(self, name, values)

    monkeypatch.setattr(PrepackagedPartition, "_append", spy)
    before, _cost = _query(orders)
    # the first query put the three columns it touches in array form, whole
    assert encoded == {"customer": 400, "status": 400, "amount": 400}

    encoded.clear()
    assert _query(orders)[0] == before
    assert not encoded  # nothing was written in between: nothing to convert

    orders.insert("orders", [[1000 + i, 3, "open", "fresh", 1.0] for i in range(10)])
    orders.catch_up_all()
    after, _cost = _query(orders)
    # ten rows per touched column, not the partition again — and the columns
    # no query reads ("id", "note") are never converted at all
    assert encoded == {"customer": 10, "status": 10, "amount": 10}
    assert sum(row[1] for row in after) == sum(row[1] for row in before) + 10.0


def test_a_string_equality_filter_is_one_dictionary_lookup_per_partition(orders, monkeypatch):
    _query(orders)  # array form first: this test is about the filter
    lookups = []

    class CountingDictionary(dict):
        def get(self, value, default=None):
            lookups.append(value)
            return super().get(value, default)

    def no_comparison(*_args):
        raise AssertionError("a value comparison ran for a string equality filter")

    for node in orders.data_nodes.values():
        for partition in node.store.partitions_of("orders"):
            partition._codes["status"] = CountingDictionary(partition._codes["status"])
    monkeypatch.setattr(partitions, "compare", no_comparison)
    monkeypatch.setattr(expressions, "_compare_object", no_comparison)
    rows, _cost = _query(orders)
    assert lookups == ["open"] * 4  # one per partition, none per row
    assert sum(row[1] for row in rows) == sum(float(i) for i in range(400) if i % 3 == 0)


def test_both_stacks_run_the_same_kernel_functions():
    shared = ["nulls", "match_keys", "group_ids", "join_pairs", "grouped_count", "grouped_sum",
              "grouped_extreme", "reduce_states"]
    soe_side: set[str] = set()
    for module in (executor, query_service, tasks):
        for name in shared:
            if hasattr(module, name):
                assert getattr(module, name) is getattr(kernels, name), (module.__name__, name)
                if module is not executor:
                    soe_side.add(name)
    for name in ("match_keys", "group_ids", "join_pairs", "grouped_sum", "reduce_states"):
        assert hasattr(executor, name), name
    assert {"match_keys", "group_ids", "join_pairs", "reduce_states"} <= soe_side
    # ... and neither keeps a private copy under the old names
    for name in ("_match_keys", "_group_ids", "_rank_table", "_grouped_extreme"):
        assert not hasattr(executor, name), name


def test_no_generated_code_and_no_row_loops_in_the_soe():
    root = Path(repro.soe.__file__).parent
    assert not (root / "codegen.py").exists()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("exec", "compile", "eval"), path
    service = ast.parse((root / "services" / "query_service.py").read_text())
    for node in ast.walk(service):
        if isinstance(node, (ast.For, ast.comprehension)):
            # loops over a task's sources, columns, filters or buckets are
            # fine; a loop over rows would iterate .rows() or zip(...) them
            text = ast.unparse(node.iter)
            assert ".rows()" not in text and "zip(" not in text, text


@pytest.fixture
def dense_calls(monkeypatch):
    """Record, per kernel, whether :func:`~repro.util.arrays.dense_span` let
    its keys take the dense path, and every ``np.searchsorted`` a kernel
    ran."""
    calls = Counter()
    dense_span = kernels.dense_span

    def spy_span(keys, budget):
        low, span = dense_span(keys, budget)
        calls[sys._getframe(1).f_code.co_name, "dense" if span else "sort"] += 1
        return low, span

    searchsorted = np.searchsorted

    def spy_search(*args, **kwargs):
        calls[sys._getframe(1).f_code.co_name, "searchsorted"] += 1
        return searchsorted(*args, **kwargs)

    monkeypatch.setattr(kernels, "dense_span", spy_span)
    monkeypatch.setattr(np, "searchsorted", spy_search)
    return calls


def test_integer_keys_take_the_dense_path_on_both_soe_tasks(dense_calls):
    """A colocated join and a grouped aggregate over integer keys match and
    group without a comparison sort: ``join_pairs`` looks every fact key up
    in per-key run starts, never by binary search, and every grouping —
    the workers' and the coordinator's merge — numbers keys through a
    presence map."""
    soe = SoeEngine(node_count=2)
    soe.create_table("orders", ["id", "customer", "amount"], ["customer"], partition_count=4)
    soe.create_table("customers", ["customer", "region"], ["customer"], partition_count=4)
    soe.load("orders", [[i, i % 7, float(i)] for i in range(400)])
    soe.load("customers", [[c, f"r{c % 3}"] for c in range(7)])
    rows, _cost = soe.join(
        "orders", "customers", "customer", "customer", "region", [("sum", "amount")],
        strategy="colocated",
    )
    assert sum(row[1] for row in rows) == sum(float(i) for i in range(400))
    assert dense_calls["join_pairs", "dense"] == 2  # one join task per node
    assert not dense_calls["join_pairs", "searchsorted"]

    dense_calls.clear()
    rows, _cost = soe.aggregate("orders", group_by=["customer"], aggregates=[("sum", "amount")])
    assert len(rows) == 7
    assert dense_calls["unique_inverse", "dense"] >= 3  # each node, then the merge
    assert not dense_calls["unique_inverse", "sort"]


#: ``(bytes_shipped, messages)`` per plan, as the sort-based kernels
#: shipped them: the dense path changes how a node matches and groups,
#: never what the coordinator plans or ships
E7_COSTS = {"broadcast": (3824, 12), "repartition": (355440, 16), "colocated": (304, 4)}
SCALEOUT_COSTS = {
    "aggregate": (24000, 4), "broadcast": (55608, 12), "repartition": (608, 4), "colocated": (608, 4),
}


def test_plans_ship_what_they_shipped_before():
    for strategy, (bytes_shipped, messages) in E7_COSTS.items():
        soe = SoeEngine(node_count=4)  # E7's landscape (benchmarks/bench_soe_scaleout.py)
        fact_key = "k" if strategy == "colocated" else "id"
        soe.create_table("fact", ["id", "k", "v"], [fact_key], partition_count=8)
        soe.create_table("dim", ["k", "grp"], ["k"], partition_count=8)
        soe.load("fact", [[i, i % 64, 1.0] for i in range(30_000)])
        soe.load("dim", [[i, f"g{i % 4}"] for i in range(64)])
        rows, cost = soe.join("fact", "dim", "k", "k", "grp", [("sum", "v")], strategy=strategy)
        assert rows == [[f"g{g}", 7500.0] for g in range(4)]
        assert (cost.bytes_shipped, cost.messages) == (bytes_shipped, messages), strategy

    # the soe_scaleout benchmark workload's landscape, seed 1
    config = ErpConfig(customers=1_000, orders=50_000, seed=1)
    soe = SoeEngine(node_count=4)
    soe.create_table(
        "orders", ["order_id", "customer_id", "status", "order_date", "amount", "currency"],
        ["customer_id"], partition_count=8,
    )
    soe.create_table("customers", ["customer_id", "name", "country", "city"], ["customer_id"],
                     partition_count=8)
    soe.load("orders", erp_orders(config))
    soe.load("customers", erp_customers(config))
    costs = {
        "aggregate": soe.aggregate(
            "orders", group_by=["customer_id"], aggregates=[("sum", "amount")],
            filters=[("status", "=", "open")],
        )[1]
    }
    for strategy in ("broadcast", "repartition", "colocated"):
        costs[strategy] = soe.join(
            "orders", "customers", "customer_id", "customer_id", "country", [("sum", "amount")],
            strategy=strategy,
        )[1]
    assert {name: (c.bytes_shipped, c.messages) for name, c in costs.items()} == SCALEOUT_COSTS
