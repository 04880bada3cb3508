"""Tests for Smart Data Access federation."""

import pytest

from repro.core.database import Database
from repro.errors import FederationError
from repro.federation.adapters import CsvAdapter, HanaAdapter, HiveAdapter, SoeAdapter
from repro.federation.sda import SmartDataAccess


@pytest.fixture
def remote():
    remote_db = Database(name="remote")
    remote_db.execute("CREATE TABLE inventory (sku VARCHAR, qty INT, plant VARCHAR)")
    remote_db.execute(
        "INSERT INTO inventory VALUES ('a', 5, 'p1'), ('b', 9, 'p1'), ('c', 2, 'p2')"
    )
    return remote_db


@pytest.fixture
def sda(remote):
    local = Database(name="local")
    access = SmartDataAccess(local)
    access.register_source(HanaAdapter("erp", remote))
    return access, local


def test_virtual_table_transparent_sql(sda):
    access, local = sda
    access.create_virtual_table("v_inventory", "erp", "inventory")
    result = local.query("SELECT COUNT(*) FROM v_inventory").scalar()
    assert result == 3


def test_virtual_table_join_with_local_table(sda):
    access, local = sda
    access.create_virtual_table("v_inventory", "erp", "inventory")
    local.execute("CREATE TABLE plants (plant VARCHAR, city VARCHAR)")
    local.execute("INSERT INTO plants VALUES ('p1', 'Berlin'), ('p2', 'Walldorf')")
    rows = local.query(
        "SELECT p.city, SUM(v.qty) AS q FROM v_inventory v "
        "JOIN plants p ON v.plant = p.plant GROUP BY p.city ORDER BY p.city"
    ).rows
    assert rows == [["Berlin", 14], ["Walldorf", 2]]


def test_filter_pushdown_ships_fewer_rows(sda):
    access, local = sda
    access.create_virtual_table("v_inventory", "erp", "inventory")
    local.query("SELECT sku FROM v_inventory WHERE plant = 'p2'")
    assert access.ledger.rows == 1  # only the qualifying row travelled


def test_aggregate_pushdown(sda):
    access, _local = sda
    rows = access.pushdown_aggregate(
        "erp", "inventory", ["plant"], [("count", None), ("sum", "qty")]
    )
    assert sorted(rows) == [["p1", 2, 14], ["p2", 1, 2]]
    assert access.ledger.rows == 2


def test_sql_pushdown(sda):
    access, _local = sda
    rows = access.pushdown_sql("erp", "SELECT MAX(qty) FROM inventory")
    assert rows == [[9]]


def test_source_registry_validation(sda, remote):
    access, _local = sda
    with pytest.raises(FederationError):
        access.register_source(HanaAdapter("erp", remote))
    with pytest.raises(FederationError):
        access.source("ghost")
    assert access.sources() == ["erp"]


def test_csv_adapter_scan_only(tmp_path):
    (tmp_path / "items.csv").write_text("1,widget\n2,gadget\n")
    local = Database()
    access = SmartDataAccess(local)
    access.register_source(
        CsvAdapter("files", tmp_path, {"items": [("id", "INT"), ("name", "VARCHAR")]})
    )
    access.create_virtual_table("v_items", "files", "items")
    assert local.query("SELECT name FROM v_items WHERE id = 2").rows == [["gadget"]]
    with pytest.raises(FederationError):
        access.pushdown_aggregate("files", "items", [], [("count", None)])


def test_hive_adapter(hdfs):
    from repro.hadoop.hive import HiveServer

    hdfs.write_file("/w/t.csv", ["1,x", "2,y"])
    hive = HiveServer(hdfs)
    hive.create_external_table("t", "/w/t.csv", [("id", "INT"), ("v", "VARCHAR")])
    local = Database()
    access = SmartDataAccess(local)
    access.register_source(HiveAdapter("hadoop", hive))
    access.create_virtual_table("v_t", "hadoop", "t")
    assert local.query("SELECT COUNT(*) FROM v_t").scalar() == 2
    assert access.pushdown_aggregate("hadoop", "t", [], [("count", None)]) == [[2]]


def test_soe_adapter(small_soe):
    local = Database()
    access = SmartDataAccess(local)
    access.register_source(SoeAdapter("soe", small_soe))
    rows = access.pushdown_aggregate(
        "soe", "readings", ["region"], [("count", None)]
    )
    assert sorted(rows) == [["r0", 200], ["r1", 200], ["r2", 200]]
    filtered = access.source("soe").scan("readings", [("sensor_id", "<", 2)])
    assert len(filtered) == 2


def test_hana_adapter_pushes_down_date_filters(remote):
    import datetime as dt

    remote.execute("CREATE TABLE events (id INT, d DATE)")
    remote.execute(
        "INSERT INTO events VALUES (1, DATE '2014-01-01'), (2, DATE '2015-06-01')"
    )
    adapter = HanaAdapter("erp2", remote)
    rows = adapter.scan("events", [("d", ">=", dt.date(2015, 1, 1))])
    assert rows == [[2, dt.date(2015, 6, 1)]]


def test_virtual_table_over_a_replicated_soe_table_counts_every_row():
    from repro.soe.engine import SoeEngine

    soe = SoeEngine(node_count=2, replication=2)
    soe.create_table("t", ["k", "v"], ["k"], partition_count=4)
    soe.load("t", [[1, "a"], [1, "a"], [2, "b"], [3, "c"]])
    [[count]], _cost = soe.aggregate("t", aggregates=[("count", None)])
    local = Database()
    access = SmartDataAccess(local)
    access.register_source(SoeAdapter("soe", soe))
    access.create_virtual_table("v_t", "soe", "t")
    assert local.query("SELECT COUNT(*) FROM v_t").scalar() == count == 4
    assert local.query("SELECT COUNT(*) FROM v_t WHERE v = 'a'").scalar() == 2
