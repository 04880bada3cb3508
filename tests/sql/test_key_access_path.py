"""The primary-key access path answers exactly as the scan does, and the
declared key is enforced.

**Differential.** Twin tables in one database receive the same statements:
``k`` declares ``id`` its PRIMARY KEY, so ``id = literal`` and
``id IN (literals)`` may start from the key column's position indexes;
``s`` declares no key, so every statement on it starts from all visible
rows — the code every statement ran before the index existed. Their
answers must be ``repr``-identical, and the tuple-at-a-time Volcano
interpreter (which never heard of the index) is the second judge of the
reads. The matrix is storage state × table layout × literal type; a
hypothesis run drives random statement sequences against a dict model on
top of it.

**Enforcement.** What ``ColumnTable.insert`` refuses, with which error,
and what a refused statement leaves behind.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore.partition import HashPartitioning, RangePartitioning
from repro.columnstore.table import TablePartition
from repro.core import types as dt
from repro.core.database import Database
from repro.core.schema import ColumnSpec, TableSchema
from repro.errors import DuplicateKeyError, ReproError, SchemaError, WriteConflictError
from repro.sql.parser import parse
from repro.sql.planner import plan_select
from repro.sql.volcano import execute_volcano

KEYS = range(60)
ABSENT = (-1, 60, 100, 5000)

LAYOUTS = {
    "single": {},
    "hash_on_nonkey": {"partitioning": lambda: HashPartitioning(["grp"], 3)},
    "range_on_key": {"partitioning": lambda: RangePartitioning("id", [20, 45])},
    "append_dictionaries": {"sorted_dictionaries": False},
}

STATES = (
    "delta",
    "merged",
    "merged_plus_delta",
    "dead_versions_in_main",
    "compacted",
    "rolled_back_writes",
    "own_uncommitted_writes",
    "snapshot_predates_commits",
)


def _row(key):
    return [key, key % 5, key * 1.5, None if key % 11 == 0 else f"n{key % 7}"]


def _create(database, name, keyed, layout):
    options = LAYOUTS[layout]
    schema = TableSchema(
        [
            ColumnSpec("id", dt.INTEGER),
            ColumnSpec("grp", dt.INTEGER),
            ColumnSpec("v", dt.DOUBLE),
            ColumnSpec("name", dt.VARCHAR),
        ],
        primary_key=("id",) if keyed else (),
    )
    partitioning = options.get("partitioning", lambda: None)()
    database.create_table(
        name, schema, partitioning=partitioning,
        sorted_dictionaries=options.get("sorted_dictionaries", True),
    )


def outcome(database, sql, txn=None):
    """What a statement did, in a form two tables' answers compare by."""
    try:
        result = database.execute(sql, txn=txn)
    # TypeError: range pruning compares an INT boundary with the literal '7' —
    # on either twin, as before the index
    except (ReproError, TypeError) as error:
        return ("raised", type(error).__name__)
    return ("rows", result.rows) if result.columns else ("count", result.rowcount)


def on_both(database, template, txn=None):
    """Run one statement on each twin; the outcomes must be ``repr``-identical."""
    keyed = outcome(database, template.format(t="k"), txn)
    scanned = outcome(database, template.format(t="s"), txn)
    assert repr(keyed) == repr(scanned), template
    return keyed


def build(state, layout):
    """A database holding the twins in ``state``; the transaction the
    statements under test must run in, if the state is about one."""
    database = Database()
    for name, keyed in (("k", True), ("s", False)):
        _create(database, name, keyed, layout)
    first = [_row(key) for key in KEYS if state == "delta" or key < 40]
    for name in ("k", "s"):
        txn = database.begin()
        database.table(name).insert_many(first, txn)
        database.commit(txn)
    if state == "delta":
        return database, None
    database.merge_all()
    for key in KEYS[40:]:
        values = ", ".join("NULL" if value is None else repr(value) for value in _row(key))
        on_both(database, f"INSERT INTO {{t}} VALUES ({values})")
    if state != "merged_plus_delta":
        database.merge_all()
    if state in ("merged", "merged_plus_delta"):
        if state == "merged_plus_delta":
            on_both(database, "UPDATE {t} SET v = v + 1 WHERE id = 7")
            on_both(database, "DELETE FROM {t} WHERE id = 8")
        return database, None
    if state in ("dead_versions_in_main", "compacted"):
        for _ in range(3):
            on_both(database, "UPDATE {t} SET v = v + 1 WHERE id = 7")
        on_both(database, "UPDATE {t} SET grp = grp + 1 WHERE id = 30")
        on_both(database, "DELETE FROM {t} WHERE id = 8")
        on_both(database, "DELETE FROM {t} WHERE id = 41")
        on_both(database, "INSERT INTO {t} VALUES (41, 1, 0.5, 'back')")
        for name in ("k", "s"):
            database.merge(name, compact=state == "compacted")
        return database, None
    if state == "rolled_back_writes":
        txn = database.begin()
        on_both(database, "INSERT INTO {t} VALUES (100, 0, 1.0, 'ghost')", txn)
        on_both(database, "INSERT INTO {t} VALUES (61, 1, 2.0, 'ghost')", txn)
        on_both(database, "UPDATE {t} SET v = -1.0 WHERE id = 7", txn)
        on_both(database, "DELETE FROM {t} WHERE id = 8", txn)
        database.rollback(txn)
        on_both(database, "INSERT INTO {t} VALUES (61, 1, 3.0, 'real')")
        return database, None
    txn = database.begin()
    if state == "own_uncommitted_writes":
        on_both(database, "INSERT INTO {t} VALUES (61, 1, 2.0, 'mine')", txn)
        on_both(database, "UPDATE {t} SET v = v + 1 WHERE id = 61", txn)
        on_both(database, "UPDATE {t} SET v = -1.0 WHERE id = 7", txn)
        on_both(database, "DELETE FROM {t} WHERE id = 8", txn)
        return database, txn
    assert state == "snapshot_predates_commits"
    on_both(database, "UPDATE {t} SET v = -1.0 WHERE id = 7")
    on_both(database, "DELETE FROM {t} WHERE id = 8")
    on_both(database, "INSERT INTO {t} VALUES (61, 1, 2.0, 'later')")
    return database, txn


@pytest.fixture
def seen(monkeypatch):
    """Which partitions statements started from: all visible rows
    (``scanned``) or the key index (``probed``)."""
    seen = {"scanned": [], "probed": []}
    for kind, name in (("scanned", "visible_positions"), ("probed", "key_positions")):
        original = getattr(TablePartition, name)

        def spy(self, *args, _original=original, _kind=kind):
            seen[_kind].append(self)
            return _original(self, *args)

        monkeypatch.setattr(TablePartition, name, spy)
    return seen


def assert_took(database, seen, path):
    """Every partition of ``k`` the last statements touched was entered by ``path``."""
    partitions = database.table("k").partitions
    other = "scanned" if path == "probed" else "probed"
    assert any(partition in partitions for partition in seen[path])
    assert not any(partition in partitions for partition in seen[other])
    seen["scanned"].clear()
    seen["probed"].clear()


def read_both(database, where, txn, seen):
    """One SELECT on each twin (identical) and through Volcano (equal)."""
    kind, rows = on_both(database, f"SELECT id, grp, v, name FROM {{t}} WHERE {where}", txn)
    assert kind == "rows"
    plan = plan_select(parse(f"SELECT id, grp, v, name FROM k WHERE {where}"), database.catalog)
    mark = len(seen["scanned"])
    oracle = execute_volcano(plan, database._context(txn, None))
    del seen["scanned"][mark:]  # the oracle's own scan of k is not under test
    assert sorted(rows, key=repr) == sorted(oracle, key=repr), where
    return rows


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("state", STATES)
def test_key_statements_agree_with_the_scan(state, layout, seen):
    database, txn = build(state, layout)
    every = list(KEYS) + [61] + list(ABSENT)
    seen["scanned"].clear()  # the build's own statements
    seen["probed"].clear()
    found = {}
    for key in every:
        rows = read_both(database, f"id = {key}", txn, seen)
        assert len(rows) <= 1
        found[key] = rows
    assert_took(database, seen, "probed")
    in_list = ", ".join(map(str, every[::3] + [7, 7, 8]))
    rows = read_both(database, f"id IN ({in_list})", txn, seen)
    assert sorted(row[0] for row in rows) == sorted(
        key for key in set(every[::3] + [7, 8]) if found[key]
    )
    read_both(database, f"id IN ({in_list}) AND grp < 3 AND v > 4.0", txn, seen)
    read_both(database, "7 = id AND name = 'n0'", txn, seen)
    assert_took(database, seen, "probed")

    # one visible version per key, whatever the snapshot
    for snapshot in range(database.txn_manager.last_committed_cid + 1):
        keys = [row[0] for row in database.table("k").scan_rows(snapshot, columns=["id"])]
        assert len(keys) == len(set(keys)), snapshot
    seen["scanned"].clear()

    for where in ("id = 7", "id = 8", "id = 61", "id = 5000", "id IN (3, 30, 41, 8, 5000)",
                  "id IN (10, 11) AND v > 15.5"):
        on_both(database, f"UPDATE {{t}} SET v = v * 2, grp = grp + 1 WHERE {where}", txn)
    assert_took(database, seen, "probed")
    for where in ("id = 9", "id = 8", "id = 100", "id IN (12, 61, 7, 5000)"):
        on_both(database, f"DELETE FROM {{t}} WHERE {where}", txn)
    assert_took(database, seen, "probed")
    for key in every:
        assert len(read_both(database, f"id = {key}", txn, seen)) <= 1
    on_both(database, "SELECT id, grp, v, name FROM {t} ORDER BY id", txn)
    on_both(database, "SELECT COUNT(*), SUM(v) FROM {t}", txn)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("state", ("merged_plus_delta", "dead_versions_in_main"))
@pytest.mark.parametrize("literal", ("7.0", "'7'", "NULL"))
def test_literals_of_another_type_stay_on_the_scan(state, layout, literal, seen):
    """``INT = 7.0``, ``INT = '7'`` and ``INT = NULL`` are not what value
    ids (or a dict of stored keys) can answer: they scan and answer as ever."""
    database, txn = build(state, layout)
    seen["scanned"].clear()
    seen["probed"].clear()
    kind, _ = on_both(database, f"SELECT id, v FROM {{t}} WHERE id = {literal}", txn)
    on_both(database, f"SELECT id, v FROM {{t}} WHERE id IN ({literal}, 9)", txn)
    if kind == "rows":
        profile = database.profile(f"SELECT id, v FROM k WHERE id = {literal}", txn)
        assert "key_lookups" not in profile.metrics
    on_both(database, f"UPDATE {{t}} SET v = v + 1 WHERE id = {literal}", txn)
    on_both(database, f"DELETE FROM {{t}} WHERE id IN ({literal}, 9)", txn)
    assert_took(database, seen, "scanned")
    on_both(database, "SELECT id, grp, v, name FROM {t} ORDER BY id", txn)


def test_statements_without_a_key_conjunct_or_without_a_key_scan(seen):
    database, _ = build("merged_plus_delta", "single")
    database.execute("CREATE TABLE pair (a INT, b INT, v INT, PRIMARY KEY (a, b))")
    database.execute("INSERT INTO pair VALUES (1, 1, 10), (1, 2, 20)")
    seen["scanned"].clear()
    seen["probed"].clear()
    for where in ("id <> 7", "id NOT IN (7, 8)", "id BETWEEN 7 AND 9", "id = 7 OR id = 9",
                  "id = grp", "id + 0 = 7", "grp = 2", "v = 10.5"):
        on_both(database, f"SELECT id FROM {{t}} WHERE {where}")
        assert_took(database, seen, "scanned")
    assert database.query("SELECT v FROM pair WHERE a = 1").rows == [[10], [20]]
    assert seen["probed"] == []


def test_profile_reports_the_access_path():
    database, _ = build("dead_versions_in_main", "hash_on_nonkey")
    by_key = database.profile("SELECT v FROM k WHERE id = 7")
    assert by_key.metrics["key_lookups"] == 3  # one probe per partition: grp does not route by id
    assert by_key.metrics["rows_scanned"] == 1  # four versions of key 7, one of them visible
    assert "key_lookups=3" in by_key.render()
    several = database.profile("SELECT v FROM k WHERE id IN (7, 8, 9)")
    assert several.metrics["key_lookups"] == 9
    assert several.metrics["rows_scanned"] == 2  # 8 is deleted
    scan = database.profile("SELECT v FROM k WHERE grp = 2")
    assert "key_lookups" not in scan.metrics
    assert scan.metrics["rows_scanned"] == 59
    pruned = build("merged", "range_on_key")[0].profile("SELECT v FROM k WHERE id = 7")
    assert pruned.metrics["key_lookups"] == 1 and pruned.metrics["partitions_pruned"] == 2


# -- random statement sequences against a dict model -------------------------------------

_key = st.integers(0, 7)
_statement = st.one_of(
    st.tuples(st.just("insert"), _key),
    st.tuples(st.just("update"), _key),
    st.tuples(st.just("move"), _key, _key),
    st.tuples(st.just("delete"), _key),
    st.tuples(st.sampled_from(("merge", "compact", "begin", "commit", "rollback"))),
)


@given(st.lists(_statement, max_size=40), st.sampled_from(sorted(LAYOUTS)))
@settings(max_examples=60, deadline=None)
def test_random_statements_keep_index_scan_and_model_in_step(statements, layout):
    database = Database()
    _create(database, "k", True, layout)
    _create(database, "s", False, layout)
    committed: dict[int, float] = {}
    model, txn = dict(committed), None
    for kind, *keys in statements:
        if kind == "merge" or (kind == "compact" and txn is None):
            for name in ("k", "s"):  # compaction assumes no open transaction holds a stamp
                database.merge(name, compact=kind == "compact")
        elif kind == "begin" and txn is None:
            txn = database.begin()
        elif kind in ("commit", "rollback") and txn is not None:
            getattr(database, kind)(txn)
            txn = None
            if kind == "rollback":
                model = dict(committed)
        elif kind == "insert":
            sql = f"INSERT INTO {{t}} VALUES ({keys[0]}, {keys[0] % 3}, 1.0, 'x')"
            if keys[0] in model:  # only the keyed twin can refuse
                assert outcome(database, sql.format(t="k"), txn) == ("raised", "DuplicateKeyError")
            else:
                assert on_both(database, sql, txn) == ("count", 1)
                model[keys[0]] = 1.0
        elif kind == "update":
            sql = f"UPDATE {{t}} SET v = v + 1 WHERE id = {keys[0]}"
            assert on_both(database, sql, txn) == ("count", int(keys[0] in model))
            if keys[0] in model:
                model[keys[0]] += 1
        elif kind == "move":
            source, target = keys
            sql = f"UPDATE {{t}} SET id = {target} WHERE id = {source}"
            if source in model and target in model and source != target:
                assert outcome(database, sql.format(t="k"), txn) == ("raised", "DuplicateKeyError")
            else:
                assert on_both(database, sql, txn) == ("count", int(source in model))
                if source in model:
                    model[target] = model.pop(source)
        elif kind == "delete":
            sql = f"DELETE FROM {{t}} WHERE id = {keys[0]}"
            assert on_both(database, sql, txn) == ("count", int(keys[0] in model))
            model.pop(keys[0], None)
        if txn is None:
            committed = dict(model)
        for key in range(8):
            want = [[key, model[key]]] if key in model else []
            assert on_both(database, f"SELECT id, v FROM {{t}} WHERE id = {key}", txn) == ("rows", want)
    everything = "SELECT id, v FROM {t} WHERE id IN (0, 1, 2, 3, 4, 5, 6, 7) ORDER BY id"
    assert on_both(database, everything, txn) == ("rows", [[key, model[key]] for key in sorted(model)])
    for snapshot in range(database.txn_manager.last_committed_cid + 1):
        keys = [row[0] for row in database.table("k").scan_rows(snapshot, columns=["id"])]
        assert len(keys) == len(set(keys))


# -- enforcement ------------------------------------------------------------------------------


@pytest.fixture
def accounts():
    database = Database()
    database.execute("CREATE TABLE accounts (id INT PRIMARY KEY, owner VARCHAR, balance DOUBLE)")
    database.execute("INSERT INTO accounts VALUES (1, 'ann', 10.0), (2, 'bob', 20.0)")
    database.merge("accounts")
    database.execute("INSERT INTO accounts VALUES (3, 'cy', 30.0)")
    return database


def _snapshot(database):
    return database.query("SELECT id, owner, balance FROM accounts ORDER BY id").rows


def test_duplicate_insert_is_refused_and_leaves_nothing_behind(accounts):
    table = accounts.table("accounts")
    before, delta_rows, aborts = _snapshot(accounts), table.delta_rows(), accounts.txn_manager.aborts
    for key in (1, 3):  # one in main, one in the delta
        with pytest.raises(DuplicateKeyError, match=f"id = {key}"):
            accounts.execute(f"INSERT INTO accounts VALUES ({key}, 'eve', 0.0)")
    # a multi-row INSERT is one auto-commit statement: its first row goes with the refused second
    with pytest.raises(DuplicateKeyError):
        accounts.execute("INSERT INTO accounts VALUES (9, 'new', 0.0), (2, 'eve', 0.0)")
    assert _snapshot(accounts) == before
    assert accounts.query("SELECT COUNT(*) FROM accounts WHERE id = 9").scalar() == 0
    assert accounts.txn_manager.aborts == aborts + 3  # each statement rolled its transaction back
    assert table.delta_rows() == delta_rows + 1  # row 9 of the refused statement, a tombstone now
    accounts.execute("INSERT INTO accounts VALUES (9, 'new', 0.0)")  # and no obstacle


def test_a_batch_is_checked_before_any_of_it_is_stored(accounts):
    table = accounts.table("accounts")
    delta_rows = table.delta_rows()
    txn = accounts.begin()
    with pytest.raises(DuplicateKeyError, match="more than once"):
        table.insert_many([[7, "a", 0.0], [8, "b", 0.0], [7, "c", 0.0]], txn)
    with pytest.raises(DuplicateKeyError, match="id = 2"):
        table.insert_many([[7, "a", 0.0], [2, "b", 0.0]], txn)
    assert table.delta_rows() == delta_rows and txn.is_read_only
    assert table.insert_many([[7, "a", 0.0], [8, "b", 0.0]], txn) == 2
    accounts.commit(txn)
    assert [row[0] for row in _snapshot(accounts)] == [1, 2, 3, 7, 8]


def test_a_deleted_key_can_be_inserted_again(accounts):
    accounts.execute("DELETE FROM accounts WHERE id = 1")
    accounts.execute("INSERT INTO accounts VALUES (1, 'ann again', 1.0)")
    accounts.merge("accounts")  # both versions of key 1 are in main now
    accounts.execute("DELETE FROM accounts WHERE id = 1")
    txn = accounts.begin()  # delete and re-insert in one transaction
    accounts.execute("INSERT INTO accounts VALUES (1, 'third', 3.0)", txn=txn)
    accounts.execute("DELETE FROM accounts WHERE id = 1", txn=txn)
    accounts.execute("INSERT INTO accounts VALUES (1, 'fourth', 4.0)", txn=txn)
    with pytest.raises(DuplicateKeyError):
        accounts.execute("INSERT INTO accounts VALUES (1, 'fifth', 5.0)", txn=txn)
    accounts.commit(txn)
    assert accounts.query("SELECT owner FROM accounts WHERE id = 1").rows == [["fourth"]]


def test_update_keeps_or_moves_the_key(accounts):
    assert accounts.execute("UPDATE accounts SET balance = balance + 1 WHERE id = 1").rowcount == 1
    assert accounts.execute("UPDATE accounts SET id = 1 WHERE id = 1").rowcount == 1
    assert accounts.execute("UPDATE accounts SET id = 5 WHERE id = 1").rowcount == 1  # onto a free key
    assert accounts.execute("UPDATE accounts SET id = 1 WHERE id = 5").rowcount == 1  # and back
    before = _snapshot(accounts)
    with pytest.raises(DuplicateKeyError, match="id = 2"):
        accounts.execute("UPDATE accounts SET id = 2 WHERE id = 1")
    assert _snapshot(accounts) == before == [[1, "ann", 11.0], [2, "bob", 20.0], [3, "cy", 30.0]]


def test_an_explicit_transaction_goes_on_after_a_refused_statement(accounts):
    txn = accounts.begin()
    accounts.execute("INSERT INTO accounts VALUES (4, 'dan', 40.0)", txn=txn)
    with pytest.raises(DuplicateKeyError):
        accounts.execute("INSERT INTO accounts VALUES (4, 'eve', 0.0)", txn=txn)
    with pytest.raises(DuplicateKeyError):  # checked before the old version is touched
        accounts.execute("UPDATE accounts SET id = 2 WHERE id = 1", txn=txn)
    assert txn.is_active
    accounts.execute("UPDATE accounts SET balance = 0.0 WHERE id = 1", txn=txn)
    accounts.commit(txn)
    assert _snapshot(accounts) == [
        [1, "ann", 0.0], [2, "bob", 20.0], [3, "cy", 30.0], [4, "dan", 40.0],
    ]


def test_two_open_transactions_inserting_one_key(accounts):
    first, second = accounts.begin(), accounts.begin()
    accounts.execute("INSERT INTO accounts VALUES (4, 'first', 1.0)", txn=first)
    with pytest.raises(WriteConflictError):
        accounts.execute("INSERT INTO accounts VALUES (4, 'second', 2.0)", txn=second)
    accounts.rollback(first)  # the obstacle goes away: the same statement now succeeds
    accounts.execute("INSERT INTO accounts VALUES (4, 'second', 2.0)", txn=second)
    third = accounts.begin()
    with pytest.raises(WriteConflictError):
        accounts.execute("INSERT INTO accounts VALUES (4, 'third', 3.0)", txn=third)
    accounts.commit(second)  # the obstacle stays: live and committed, though third cannot see it
    with pytest.raises(DuplicateKeyError):
        accounts.execute("INSERT INTO accounts VALUES (4, 'third', 3.0)", txn=third)
    assert accounts.query("SELECT owner FROM accounts WHERE id = 4").rows == [["second"]]


def test_inserting_a_key_another_open_transaction_is_deleting(accounts):
    deleter, inserter = accounts.begin(), accounts.begin()
    accounts.execute("DELETE FROM accounts WHERE id = 2", txn=deleter)
    with pytest.raises(WriteConflictError):
        accounts.execute("INSERT INTO accounts VALUES (2, 'new bob', 0.0)", txn=inserter)
    accounts.commit(deleter)
    # inserter's snapshot still shows the old bob: two versions of key 2 would be visible to it
    with pytest.raises(WriteConflictError):
        accounts.execute("INSERT INTO accounts VALUES (2, 'new bob', 0.0)", txn=inserter)
    accounts.rollback(inserter)
    accounts.execute("INSERT INTO accounts VALUES (2, 'new bob', 0.0)")  # a fresh snapshot settles it
    assert accounts.query("SELECT owner FROM accounts WHERE id = 2").rows == [["new bob"]]


def test_null_keys_are_refused_by_the_column_or_equal_nothing(accounts):
    # a column declared ``PRIMARY KEY`` inline is NOT NULL, as it always was
    with pytest.raises(SchemaError, match="NOT NULL"):
        accounts.execute("INSERT INTO accounts VALUES (NULL, 'nobody', 0.0)")
    # a key column that admits NULL (table-level constraint, schema built by hand)
    # holds as many as it is given: NULL equals nothing, so there is nothing to check
    accounts.execute("CREATE TABLE loose (id INT, owner VARCHAR, PRIMARY KEY (id))")
    accounts.execute("INSERT INTO loose VALUES (NULL, 'nobody'), (NULL, 'no one'), (7, 'seven')")
    accounts.merge("loose")
    accounts.execute("INSERT INTO loose VALUES (NULL, 'none')")
    assert accounts.query("SELECT COUNT(*) FROM loose WHERE id IS NULL").scalar() == 3
    assert accounts.query("SELECT owner FROM loose WHERE id = NULL").rows == []
    assert accounts.execute("UPDATE loose SET id = 8 WHERE owner = 'nobody'").rowcount == 1
    with pytest.raises(DuplicateKeyError):
        accounts.execute("UPDATE loose SET id = 8 WHERE owner = 'none'")
    with pytest.raises(DuplicateKeyError):
        accounts.execute("INSERT INTO loose VALUES (7, 'again')")


def test_composite_keys_and_row_tables_stay_declared_only():
    database = Database()
    database.execute("CREATE TABLE pair (a INT, b INT, PRIMARY KEY (a, b))")
    database.execute("CREATE ROW TABLE settings (name VARCHAR PRIMARY KEY, value VARCHAR)")
    for _ in range(2):
        database.execute("INSERT INTO pair VALUES (1, 1)")
        database.execute("INSERT INTO settings VALUES ('mode', 'x')")
    assert database.query("SELECT COUNT(*) FROM pair").scalar() == 2
    assert database.query("SELECT COUNT(*) FROM settings").scalar() == 2
