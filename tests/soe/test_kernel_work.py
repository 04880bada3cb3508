"""The SOE data path's work, as counts (the style of
``tests/sql/test_codes_first.py``): what a write costs the next query, what a
string filter costs, and that both execution stacks run one set of kernels."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import repro.soe
from repro.soe import partitions, tasks
from repro.soe.engine import SoeEngine
from repro.soe.partitions import PrepackagedPartition
from repro.soe.services import query_service
from repro.sql import executor, expressions, kernels


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
    for name in ("match_keys", "group_ids", "join_pairs", "grouped_sum", "grouped_extreme"):
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
