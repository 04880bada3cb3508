"""The five workloads: seeded data, fixed operation streams, answer checks.

Every workload drives the system only through public entry points
(``Database.execute``/``merge``, ``SoeEngine.aggregate``/``join``/
``insert``/``catch_up_all``) as one closed-loop client, and keeps a
plain-Python shadow of every table that the same operation stream
updates. Each answer is compared to the shadow (order-insensitive,
floats to 1e-6 relative); a wrong answer is a failed operation.

The operation stream of a workload is a pure function of ``--seed`` and
the operation count, so the parent commit and a change run the same
statements and counts repeat exactly. The count is ``ops_per_second x
--seconds`` with ``ops_per_second`` frozen below, tuned once so that the
timed stream takes about ``--seconds`` at the commit that added the
benchmark on 2 cores. A fixed count (rather than a deadline) keeps the
tables the same size on both sides of a comparison: a faster change that
ran *more* inserts in ten seconds would scan bigger tables and look
slower per statement.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from repro.columnstore.merge import MergeStats
from repro.core.database import Database
from repro.core.result import QueryResult
from repro.soe.cluster import approx_row_bytes
from repro.soe.engine import SoeEngine
from repro.sql import plancache
from repro.sql.context import ExecutionContext
from repro.sql.parser import parse
from repro.sql.planner import plan_select
from repro.sql.volcano import execute_volcano
from repro.workloads import querygen
from repro.workloads.generators import (
    ErpConfig,
    erp_customers,
    erp_invoices,
    erp_orders,
)

Row = Sequence[Any]

CUSTOMER_COLUMNS = ["customer_id", "name", "country", "city"]
ORDER_COLUMNS = ["order_id", "customer_id", "status", "order_date", "amount", "currency"]
#: positions in an order row
CUSTOMER, STATUS, AMOUNT = 1, 2, 4

CORE_DDL = (
    "CREATE TABLE customers (customer_id INT PRIMARY KEY, name VARCHAR, "
    "country VARCHAR, city VARCHAR)",
    "CREATE TABLE orders (order_id INT PRIMARY KEY, customer_id INT, status VARCHAR, "
    "order_date DATE, amount DOUBLE, currency VARCHAR)",
    "CREATE TABLE invoices (invoice_id INT PRIMARY KEY, order_id INT, paid VARCHAR, "
    "invoice_date DATE, amount DOUBLE)",
)

SQL = {
    "point_read": "SELECT amount FROM orders WHERE order_id = {0}",
    "insert": "INSERT INTO orders VALUES ({0}, {1}, '{2}', '{3}', {4!r}, '{5}')",
    "update": "UPDATE orders SET amount = amount + 1 WHERE order_id = {0}",
    "delete": "DELETE FROM orders WHERE order_id = {0}",
    "agg_str": (
        "SELECT customer_id, SUM(amount) FROM orders WHERE status = '{0}' "
        "GROUP BY customer_id"
    ),
    "agg_int": (
        "SELECT customer_id, SUM(amount) FROM orders WHERE order_id BETWEEN {0} AND {1} "
        "GROUP BY customer_id"
    ),
    "join": (
        "SELECT c.country, SUM(o.amount) FROM orders o JOIN customers c "
        "ON o.customer_id = c.customer_id WHERE o.status = '{0}' GROUP BY c.country"
    ),
    "join3": (
        "SELECT c.country, SUM(i.amount) FROM orders o JOIN customers c "
        "ON o.customer_id = c.customer_id JOIN invoices i ON i.order_id = o.order_id "
        "WHERE o.status = '{0}' GROUP BY c.country"
    ),
    "topk": (
        "SELECT order_id, amount FROM orders WHERE status = '{0}' "
        "ORDER BY amount DESC, order_id LIMIT 10"
    ),
    "wide_select": "SELECT * FROM orders WHERE amount > {0!r}",
}

STATUSES = ("open", "closed", "cancelled")
#: amount thresholds that keep ~18-22 % of the lognormal(4.5, 1) amounts
WIDE_THRESHOLDS = (195.0, 202.5, 210.0, 217.5, 225.0)


class Op(NamedTuple):
    """One operation of a stream."""

    cls: str  # the latency class the operation is timed under
    run: Callable[[], Any]  # the timed call into a public entry point
    check: Callable[[Any], bool]  # untimed: compare to the shadow, then update it


# --------------------------------------------------------------------------
# answer comparison
# --------------------------------------------------------------------------


def comparable(answer: Any) -> list[list[Any]]:
    """The rows of whatever a public entry point returned."""
    if isinstance(answer, QueryResult):
        return answer.rows if answer.columns else [[answer.rowcount]]
    if isinstance(answer, tuple):  # SoeEngine.aggregate/join: (rows, PlanCost)
        return answer[0]
    if isinstance(answer, MergeStats):
        return [[answer.rows_merged]]
    return [[answer]]


def _cell_key(value: Any) -> tuple:
    if value is None:
        return (0,)
    if isinstance(value, float):
        return (1, float(f"{value:.9g}"))
    if isinstance(value, (int, str)):
        return (1, value)
    return (1, str(value))  # dates


def row_key(row: Row) -> tuple:
    return tuple(_cell_key(value) for value in row)


def _same_cell(got: Any, want: Any) -> bool:
    if isinstance(got, float) or isinstance(want, float):
        if got is None or want is None:
            return False
        return math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-9)
    return got == want


def same_rows(got: Sequence[Row], want: Sequence[Row]) -> bool:
    """Order-insensitive row comparison, floats to 1e-6 relative."""
    if len(got) != len(want):
        return False
    for got_row, want_row in zip(sorted(got, key=row_key), sorted(want, key=row_key)):
        if len(got_row) != len(want_row):
            return False
        if not all(_same_cell(g, w) for g, w in zip(got_row, want_row)):
            return False
    return True


# --------------------------------------------------------------------------
# the shadow: plain-Python tables and the references computed from them
# --------------------------------------------------------------------------


class ErpShadow:
    """Dict-by-key copies of the ERP tables plus reference answers.

    ``version`` moves on every write; a reference is recomputed only when
    it was made for an older version, so a read-only workload computes
    each (template, literal) once and a mixed one after every change.
    """

    def __init__(
        self,
        customers: Sequence[Row],
        orders: Sequence[Row],
        invoices: Sequence[Row] = (),
    ) -> None:
        self.country = {row[0]: row[2] for row in customers}
        self.orders = {row[0]: list(row) for row in orders}
        self.invoice_amount = {row[1]: row[4] for row in invoices}
        #: live order keys, for uniform key choice in O(1)
        self.keys = list(self.orders)
        self.version = 0
        self._references: dict[tuple[str, Any], tuple[int, list[list[Any]]]] = {}

    # -- writes ---------------------------------------------------------------

    def insert(self, row: Row) -> None:
        self.orders[row[0]] = list(row)
        self.keys.append(row[0])
        self.version += 1

    def bump_amount(self, key: int) -> None:
        self.orders[key][AMOUNT] += 1
        self.version += 1

    def delete_at(self, index: int) -> None:
        """Remove the order whose key sits at ``keys[index]``."""
        key = self.keys[index]
        self.keys[index] = self.keys[-1]
        self.keys.pop()
        del self.orders[key]
        self.version += 1

    # -- references --------------------------------------------------------------

    def reference(self, template: str, literal: Any) -> list[list[Any]]:
        cached = self._references.get((template, literal))
        if cached is not None and cached[0] == self.version:
            return cached[1]
        rows = getattr(self, f"_ref_{template}")(literal)
        self._references[(template, literal)] = (self.version, rows)
        return rows

    def _sum_by(self, group: Callable[[list[Any]], Any], keep: Callable[[list[Any]], bool],
                value: Callable[[list[Any]], Any] = lambda order: order[AMOUNT]) -> list[list[Any]]:
        totals: dict[Any, float] = defaultdict(float)
        for order in self.orders.values():
            if keep(order):
                totals[group(order)] += value(order)
        return [[key, total] for key, total in totals.items()]

    def _ref_agg_str(self, status: str) -> list[list[Any]]:
        return self._sum_by(lambda o: o[CUSTOMER], lambda o: o[STATUS] == status)

    def _ref_agg_int(self, bounds: tuple[int, int]) -> list[list[Any]]:
        low, high = bounds
        return self._sum_by(lambda o: o[CUSTOMER], lambda o: low <= o[0] <= high)

    def _ref_join(self, status: str) -> list[list[Any]]:
        country = self.country
        return self._sum_by(lambda o: country[o[CUSTOMER]], lambda o: o[STATUS] == status)

    def _ref_join_all(self, _literal: None) -> list[list[Any]]:
        country = self.country
        return self._sum_by(lambda o: country[o[CUSTOMER]], lambda o: True)

    def _ref_join3(self, status: str) -> list[list[Any]]:
        country, invoice_amount = self.country, self.invoice_amount
        return self._sum_by(
            lambda o: country[o[CUSTOMER]],
            lambda o: o[STATUS] == status and o[0] in invoice_amount,
            lambda o: invoice_amount[o[0]],
        )

    def _ref_topk(self, status: str) -> list[list[Any]]:
        matching = [[o[0], o[AMOUNT]] for o in self.orders.values() if o[STATUS] == status]
        matching.sort(key=lambda pair: (-pair[1], pair[0]))
        return matching[:10]

    def _ref_wide_select(self, threshold: float) -> list[list[Any]]:
        return [order for order in self.orders.values() if order[AMOUNT] > threshold]


def _cycle(rng: random.Random, pool: Sequence[Any]) -> Iterator[Any]:
    """Endless seeded permutations of ``pool``: every member gets exactly
    its share of the draws, so neither the operation mix nor a class's
    latency mix depends on the seed — only the order does."""
    while True:
        yield from rng.sample(list(pool), len(pool))


# --------------------------------------------------------------------------
# core workloads (one Database, the ERP tables)
# --------------------------------------------------------------------------


def _load_and_merge(db: Database, tables: dict[str, Sequence[Row]]) -> None:
    """Bulk-load each table in one transaction, then merge every delta."""
    for table, rows in tables.items():
        txn = db.begin()
        db.table(table).insert_many(rows, txn)
        db.commit(txn)
    db.merge_all()


def _plancache_stats(db: Database) -> dict[str, float]:
    cache = db.plan_cache.stats()
    return {
        f"sql.plancache.{key}": cache[key] for key in ("hit_rate", "evictions", "invalidations")
    }


class Workload:
    """What the run loop needs from a workload; see the subclasses."""

    name = ""
    #: frozen: operations per ``--seconds`` second (module docstring)
    ops_per_second = 0.0
    #: the statement classes whose medians enter ``class_p50_geomean_ms``
    classes: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.db: Any = None
        self.soe: Any = None
        self.shadow: Any = None

    def op_count(self, seconds: float) -> int:
        return max(1, round(self.ops_per_second * seconds))

    def release(self) -> None:
        """Drop the previous set-up, so that two never coexist in memory."""
        self.db = self.soe = self.shadow = None

    def prepare_checks(self) -> None:
        """Build the references the stream's answers are compared to —
        harness work, done once after the last set-up and never timed."""
        raise NotImplementedError

    def public_stats(self) -> dict[str, float]:
        """Counts the program publishes itself (no shim needed)."""
        return {}


class CoreWorkload(Workload):
    """Shared set-up and operation builders of the three ERP core workloads."""

    customers_n, orders_n = 1_000, 50_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: largest delta the stream saw before a merge folded it away
        self.delta_rows_max = 0
        config = ErpConfig(customers=self.customers_n, orders=self.orders_n, seed=seed)
        self.customer_rows = erp_customers(config)
        self.order_rows = erp_orders(config)
        self.invoice_rows = erp_invoices(config, self.order_rows)

    # -- set-up ---------------------------------------------------------------------

    def setup(self) -> float:
        """Create, load, merge and warm up a fresh database; returns the
        seconds it took."""
        start = perf_counter()
        # data_dir=None: no redo fsync, so latencies are the program's
        # and not the sandbox disk's
        db = Database()
        for statement in CORE_DDL:
            db.execute(statement)
        _load_and_merge(
            db,
            {
                "customers": self.customer_rows,
                "orders": self.order_rows,
                "invoices": self.invoice_rows,
            },
        )
        self.db = db
        self.warm_up()
        return perf_counter() - start

    def prepare_checks(self) -> None:
        self.shadow = ErpShadow(self.customer_rows, self.order_rows, self.invoice_rows)

    def warm_up(self) -> None:
        """Run every statement shape once so plan-cache fills and lazy
        imports are not timed; the scratch row is removed again and the
        delta it left is merged away."""
        scratch = [-1, 0, "open", "2012-01-01", 1.0, "EUR"]
        for statement in (
            SQL["insert"].format(*scratch),
            SQL["point_read"].format(-1),
            SQL["update"].format(-1),
            SQL["delete"].format(-1),
            SQL["agg_str"].format("open"),
            SQL["agg_int"].format(0, self.orders_n // 5),
            SQL["join"].format("open"),
            SQL["join3"].format("cancelled"),
            SQL["topk"].format("open"),
            SQL["wide_select"].format(WIDE_THRESHOLDS[0]),
        ):
            self.db.execute(statement)
        self.db.merge("orders")

    def fresh_orders(self, count: int) -> Iterator[list[Any]]:
        """Rows for the stream's inserts, keyed above the loaded range."""
        config = ErpConfig(customers=self.customers_n, orders=count, seed=self.seed + 7)
        for offset, row in enumerate(erp_orders(config)):
            row[0] = self.orders_n + offset
            yield row

    # -- operation builders -----------------------------------------------------------

    def _statement(self, cls: str, sql: str, check: Callable[[QueryResult], bool]) -> Op:
        execute = self.db.execute
        return Op(cls, lambda: execute(sql), check)

    def point_read(self, key: int) -> Op:
        orders = self.shadow.orders
        return self._statement(
            "point_read",
            SQL["point_read"].format(key),
            lambda result: same_rows(result.rows, [[orders[key][AMOUNT]]]),
        )

    def insert(self, row: list[Any]) -> Op:
        def check(result: QueryResult) -> bool:
            self.shadow.insert(row)
            return result.rowcount == 1

        return self._statement("insert", SQL["insert"].format(*row), check)

    def update(self, key: int) -> Op:
        def check(result: QueryResult) -> bool:
            self.shadow.bump_amount(key)
            return result.rowcount == 1

        return self._statement("update", SQL["update"].format(key), check)

    def delete(self, index: int) -> Op:
        def check(result: QueryResult) -> bool:
            self.shadow.delete_at(index)
            return result.rowcount == 1

        return self._statement("delete", SQL["delete"].format(self.shadow.keys[index]), check)

    def query(self, template: str, literal: Any) -> Op:
        shadow = self.shadow
        arguments = literal if isinstance(literal, tuple) else (literal,)
        return self._statement(
            template,
            SQL[template].format(*arguments),
            lambda result: same_rows(result.rows, shadow.reference(template, literal)),
        )

    def agg_int(self, rng: random.Random) -> Op:
        """A fifth of the loaded key range, wherever it starts."""
        span = self.orders_n // 5
        low = rng.randrange(self.orders_n - span)
        return self.query("agg_int", (low, low + span - 1))

    def merge(self) -> Op:
        merge = self.db.merge
        return Op("merge", lambda: merge("orders"), lambda stats: stats.rows_merged > 0)

    def random_key(self, rng: random.Random) -> int:
        return self.shadow.keys[rng.randrange(len(self.shadow.keys))]

    # -- end of run --------------------------------------------------------------------------

    def final_check(self) -> bool:
        """Loaded + inserted - deleted rows must be what the table holds."""
        count = self.db.execute("SELECT COUNT(*) FROM orders").scalar()
        return count == len(self.shadow.orders)

    def public_stats(self) -> dict[str, float]:
        table = self.db.table("orders").statistics()
        user_bytes = sum(approx_row_bytes(order) for order in self.shadow.orders.values())
        return {
            **_plancache_stats(self.db),
            "columnstore.table.delta_rows_max": max(self.delta_rows_max, table["delta_rows"]),
            "columnstore.table.bytes_per_user_byte": table["memory_bytes"] / user_bytes,
        }


class OltpPoint(CoreWorkload):
    """70 % point read, 20 % insert, 10 % update by key; uniform keys."""

    name = "oltp_point"
    ops_per_second = 185.0
    classes = ("point_read", "insert", "update")

    MIX = ("point_read",) * 7 + ("insert",) * 2 + ("update",)

    def stream(self, count: int) -> Iterator[Op]:
        rng = random.Random(self.seed)
        fresh = self.fresh_orders(count)
        kinds = _cycle(rng, self.MIX)
        for _ in range(count):
            kind = next(kinds)
            if kind == "point_read":
                yield self.point_read(self.random_key(rng))
            elif kind == "insert":
                yield self.insert(next(fresh))
            else:
                yield self.update(self.random_key(rng))


class OlapScan(CoreWorkload):
    """Read-only analytics cycling six query classes, literals varied."""

    name = "olap_scan"
    ops_per_second = 19.0
    classes = ("agg_str", "agg_int", "join", "join3", "topk", "wide_select")

    def stream(self, count: int) -> Iterator[Op]:
        rng = random.Random(self.seed)
        literals = {
            "agg_str": _cycle(rng, STATUSES),
            "join": _cycle(rng, STATUSES),
            "join3": _cycle(rng, ("open", "cancelled")),  # 'closed' is 70 % of the rows
            "topk": _cycle(rng, STATUSES),
            "wide_select": _cycle(rng, WIDE_THRESHOLDS),
        }
        for index in range(count):
            template = self.classes[index % len(self.classes)]
            if template == "agg_int":
                yield self.agg_int(rng)
            else:
                yield self.query(template, next(literals[template]))


class HtapMixed(CoreWorkload):
    """Writes, point reads and analytics over main plus a growing delta,
    with a delta merge whenever the delta reaches ``MERGE_THRESHOLD``."""

    name = "htap_mixed"
    ops_per_second = 200.0
    classes = ("insert", "update", "delete", "point_read", "agg_str", "agg_int", "join")
    #: delta rows that trigger ``Database.merge("orders")``; sized so a
    #: ten-second run sees several merge cycles
    MERGE_THRESHOLD = 400
    #: 40 % insert, 15 % update, 5 % delete, 35 % point read, 5 % analytics
    MIX = (
        ("insert",) * 8 + ("update",) * 3 + ("delete",) + ("point_read",) * 7 + ("analytics",)
    )

    def stream(self, count: int) -> Iterator[Op]:
        rng = random.Random(self.seed)
        fresh = self.fresh_orders(count)
        kinds = _cycle(rng, self.MIX)
        statuses = {"agg_str": _cycle(rng, STATUSES), "join": _cycle(rng, STATUSES)}
        analytics = _cycle(rng, ("agg_str", "agg_int", "join"))
        orders = self.db.table("orders")
        produced = 0
        while produced < count:
            kind = next(kinds)
            if kind == "insert":
                yield self.insert(next(fresh))
            elif kind == "update":
                yield self.update(self.random_key(rng))
            elif kind == "delete":
                yield self.delete(rng.randrange(len(self.shadow.keys)))
            elif kind == "point_read":
                yield self.point_read(self.random_key(rng))
            else:
                template = next(analytics)
                if template == "agg_int":
                    yield self.agg_int(rng)
                else:
                    yield self.query(template, next(statuses[template]))
            produced += 1
            if produced < count and orders.delta_rows() >= self.MERGE_THRESHOLD:
                self.delta_rows_max = max(self.delta_rows_max, orders.delta_rows())
                yield self.merge()
                produced += 1


# --------------------------------------------------------------------------
# adhoc_frontend (one Database, querygen's tables, 400 distinct shapes)
# --------------------------------------------------------------------------

_LIMIT_TAIL = re.compile(r" LIMIT (\d+)(?: OFFSET (\d+))?$")


class AdhocFrontend(Workload):
    """400 distinct query shapes against a 128-entry plan cache over tiny
    tables: the working set is 3x the cache, so every statement is lexed,
    parsed, planned, verified and cached afresh."""

    name = "adhoc_frontend"
    ops_per_second = 1950.0
    classes = ("adhoc",)
    shapes = 400
    CORPUS_SEED = 0
    customers_n, orders_n = 10, 40

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        config = ErpConfig(customers=self.customers_n, orders=self.orders_n, seed=seed)
        orders = erp_orders(config)
        self.tables = {
            "customers": erp_customers(config),
            "orders": [[o[0], o[1], o[2], o[4], o[5]] for o in orders],
            "invoices": [[i[0], i[1], i[2], i[4]] for i in erp_invoices(config, orders)],
        }
        #: distinct shapes in generation order; ``prepare_checks`` keeps the
        #: first ``shapes`` of them that the oracle can answer. The shapes
        #: are the same for every seed (how much work 400 random shapes are
        #: varies by a tenth between corpora); the seed picks the constants.
        self.candidates: list[str] = []
        seen: set[str] = set()
        for sql in querygen.generate_queries(self.shapes * 2, seed=self.CORPUS_SEED):
            sql = querygen.perturb_literals(sql, seed=seed)
            shape = plancache.fingerprint(parse(sql))
            if shape not in seen:
                seen.add(shape)
                self.candidates.append(sql)
        self.queries: list[str] = []
        #: sql -> (rows of the query without its LIMIT, limit, offset)
        self.references: dict[str, tuple[list[list[Any]], int | None, int]] = {}

    def setup(self) -> float:
        start = perf_counter()
        db = Database()
        for statement in querygen.ddl():
            db.execute(statement)
        _load_and_merge(db, self.tables)
        # warm-up: lazy imports and the feedback store; the plan cache
        # cannot be warmed, the shapes evict each other
        for sql in self.candidates[: self.shapes]:
            db.execute(sql)
        self.db = db
        return perf_counter() - start

    def prepare_checks(self) -> None:
        self.references = {}
        for sql in self.candidates:
            try:
                self.references[sql] = self._oracle(sql)
            except KeyError:
                # Volcano cannot pad a LEFT JOIN whose nullable side lost
                # every row to a pushed-down filter (~3 % of the shapes);
                # a statement without an independent reference is left out
                continue
            if len(self.references) == self.shapes:
                break
        self.queries = list(self.references)

    def _oracle(self, sql: str) -> tuple[list[list[Any]], int | None, int]:
        """Reference rows from the tuple-at-a-time Volcano interpreter — a
        second executor that shares no operator code with the vectorised
        one. LIMIT without a total order may return any qualifying rows,
        so the reference is the query *without* its LIMIT."""
        limit, offset = None, 0
        match = _LIMIT_TAIL.search(sql)
        if match:
            sql = sql[: match.start()]
            limit, offset = int(match.group(1)), int(match.group(2) or 0)
        context = ExecutionContext(
            database=self.db,
            snapshot_cid=self.db.txn_manager.last_committed_cid,
            functions=self.db.functions,
        )
        rows = execute_volcano(plan_select(parse(sql), self.db.catalog), context)
        return rows, limit, offset

    def _check(self, sql: str, result: QueryResult) -> bool:
        full, limit, offset = self.references[sql]
        if limit is None:
            return same_rows(result.rows, full)
        if len(result.rows) != max(0, min(limit, len(full) - offset)):
            return False
        available = Counter(row_key(row) for row in full)
        taken = Counter(row_key(row) for row in result.rows)
        return all(available[key] >= count for key, count in taken.items())

    def stream(self, count: int) -> Iterator[Op]:
        execute = self.db.execute
        for index in range(count):
            sql = self.queries[index % len(self.queries)]
            yield Op(
                "adhoc",
                lambda sql=sql: execute(sql),
                lambda result, sql=sql: self._check(sql, result),
            )

    def final_check(self) -> bool:
        count = self.db.execute("SELECT COUNT(*) FROM orders").scalar()
        return count == self.orders_n

    def public_stats(self) -> dict[str, float]:
        return _plancache_stats(self.db)


# --------------------------------------------------------------------------
# soe_scaleout (one SoeEngine; repro.sql is not on this path)
# --------------------------------------------------------------------------


class SoeScaleout(Workload):
    """Rounds of {5 write-visible, aggregate, broadcast join, repartition
    join, colocated join} on a 4-node landscape."""

    name = "soe_scaleout"
    ops_per_second = 52.0
    classes = (
        "soe_agg",
        "soe_join_broadcast",
        "soe_join_repartition",
        "soe_join_colocated",
        "soe_write_visible",
    )
    customers_n, orders_n = 1_000, 50_000
    nodes, partitions = 4, 8
    WRITES_PER_ROUND, BATCH_ROWS = 5, 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        config = ErpConfig(customers=self.customers_n, orders=self.orders_n, seed=seed)
        self.customer_rows = erp_customers(config)
        self.order_rows = erp_orders(config)

    def setup(self) -> float:
        start = perf_counter()
        soe = SoeEngine(node_count=self.nodes)
        key = ["customer_id"]  # co-partitioned, so the colocated join is legal
        soe.create_table("orders", ORDER_COLUMNS, key, partition_count=self.partitions)
        soe.create_table("customers", CUSTOMER_COLUMNS, key, partition_count=self.partitions)
        soe.load("orders", self.order_rows)
        soe.load("customers", self.customer_rows)
        self.soe = soe
        self._aggregate("open")()  # warm-up: compiles the aggregate kernel
        for strategy in ("broadcast", "repartition", "colocated"):
            self._join(strategy)()
        return perf_counter() - start

    def prepare_checks(self) -> None:
        self.shadow = ErpShadow(self.customer_rows, self.order_rows)

    def _aggregate(self, status: str) -> Callable[[], Any]:
        soe = self.soe
        return lambda: soe.aggregate(
            "orders",
            group_by=["customer_id"],
            aggregates=[("sum", "amount")],
            filters=[("status", "=", status)],
        )

    def _join(self, strategy: str) -> Callable[[], Any]:
        soe = self.soe
        return lambda: soe.join(
            "orders", "customers", "customer_id", "customer_id", "country",
            [("sum", "amount")], strategy=strategy,
        )

    def _write_visible(self, rows: list[list[Any]]) -> Op:
        soe = self.soe

        def run() -> int:
            soe.insert("orders", rows)
            return soe.catch_up_all()

        def check(applied: int) -> bool:
            for row in rows:
                self.shadow.insert(row)
            # one transaction applied on every node; that the rows are
            # readable is checked by the aggregates and joins that follow
            return applied == self.nodes

        return Op("soe_write_visible", run, check)

    def stream(self, count: int) -> Iterator[Op]:
        rng = random.Random(self.seed)
        statuses = _cycle(rng, STATUSES)
        config = ErpConfig(
            customers=self.customers_n, orders=count * self.BATCH_ROWS, seed=self.seed + 7
        )
        fresh = erp_orders(config)
        shadow = self.shadow
        round_size = self.WRITES_PER_ROUND + 4
        for index in range(count):
            slot = index % round_size
            if slot < self.WRITES_PER_ROUND:
                rows = fresh[index * self.BATCH_ROWS : (index + 1) * self.BATCH_ROWS]
                for row in rows:
                    row[0] += self.orders_n
                yield self._write_visible(rows)
            elif slot == self.WRITES_PER_ROUND:
                status = next(statuses)
                yield Op(
                    "soe_agg",
                    self._aggregate(status),
                    lambda answer, status=status: same_rows(
                        answer[0], shadow.reference("agg_str", status)
                    ),
                )
            else:
                strategy = ("broadcast", "repartition", "colocated")[slot - self.WRITES_PER_ROUND - 1]
                yield Op(
                    f"soe_join_{strategy}",
                    self._join(strategy),
                    lambda answer: same_rows(answer[0], shadow.reference("join_all", None)),
                )

    def final_check(self) -> bool:
        rows, _cost = self.soe.aggregate("orders", aggregates=[("count", None)])
        return rows == [[len(self.shadow.orders)]]


WORKLOADS = {
    cls.name: cls for cls in (OltpPoint, OlapScan, HtapMixed, AdhocFrontend, SoeScaleout)
}
