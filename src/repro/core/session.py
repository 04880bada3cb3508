"""Sessions: connection-like objects with explicit transaction control."""

from __future__ import annotations

import re
from typing import Any, Mapping

from repro.core.database import Database
from repro.core.result import QueryResult
from repro.errors import InvalidTransactionStateError
from repro.sql import ast
from repro.sql.parser import parse
from repro.transaction.manager import Transaction

#: BEGIN / COMMIT / ROLLBACK, after any whitespace and comments
_TRANSACTION_CONTROL = re.compile(
    r"(?:\s+|--[^\n]*|/\*.*?\*/)*(?:BEGIN|COMMIT|ROLLBACK)\b", re.IGNORECASE | re.DOTALL
)


class Session:
    """One client session against a :class:`Database`.

    Supports both API-level transaction control (:meth:`begin`,
    :meth:`commit`, :meth:`rollback`) and the SQL statements ``BEGIN`` /
    ``COMMIT`` / ``ROLLBACK``. Without an open transaction, statements
    auto-commit. Usable as a context manager (commits on clean exit,
    rolls back on exception).
    """

    def __init__(self, database: Database, parameters: Mapping[str, Any] | None = None) -> None:
        self.database = database
        self.parameters: dict[str, Any] = dict(parameters or {})
        self._txn: Transaction | None = None

    # -- transaction control ------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None and self._txn.is_active

    def begin(self) -> Transaction:
        if self.in_transaction:
            raise InvalidTransactionStateError("transaction already open")
        self._txn = self.database.begin()
        return self._txn

    def commit(self) -> None:
        if not self.in_transaction:
            raise InvalidTransactionStateError("no open transaction")
        assert self._txn is not None
        self.database.commit(self._txn)
        self._txn = None

    def rollback(self) -> None:
        if not self.in_transaction:
            raise InvalidTransactionStateError("no open transaction")
        assert self._txn is not None
        self.database.rollback(self._txn)
        self._txn = None

    # -- execution -------------------------------------------------------------

    def execute(self, sql: str, parameters: Mapping[str, Any] | None = None) -> QueryResult:
        """Execute one SQL statement within the session's transaction.

        Transaction control is the session's own; every other statement
        goes through :meth:`Database.execute` and so its plan cache.
        """
        if _TRANSACTION_CONTROL.match(sql):
            statement = parse(sql)
            assert isinstance(statement, ast.TransactionStatement)
            if statement.action == "begin":
                self.begin()
            elif statement.action == "commit":
                self.commit()
            else:
                self.rollback()
            return QueryResult([], [], rowcount=0)
        merged = dict(self.parameters)
        if parameters:
            merged.update(parameters)
        return self.database.execute(sql, self._txn, merged or None)

    def query(self, sql: str, **parameters: Any) -> QueryResult:
        """Convenience SELECT wrapper."""
        return self.execute(sql, parameters or None)

    def profile(self, sql: str, **parameters: Any) -> Any:
        """Execute a SELECT with per-operator profiling.

        Returns a :class:`repro.obs.Profile` whose plan tree carries
        rows and wall-time per operator (``profile.render()`` prints it);
        runs inside the session's open transaction, if any.
        """
        merged = dict(self.parameters)
        merged.update(parameters)
        return self.database.profile(sql, self._txn, merged or None)

    # -- context manager -----------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self.in_transaction:
            if exc_type is None:
                self.commit()
            else:
                self.rollback()
