"""The catalog: one namespace for every engine's objects.

The paper's thesis is "one central repository for business objects" across
all engines (Section V). Accordingly this catalog holds not only relational
tables (column or row store) but also registered graph views, hierarchy
views, text indexes, virtual (federated) tables, and the business-semantics
annotations the engines share.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import DuplicateObjectError, TableNotFoundError


class Catalog:
    """Case-insensitive name → object registry with per-kind views."""

    def __init__(self) -> None:
        self._tables: dict[str, Any] = {}
        self._views: dict[str, Any] = {}          # graph / hierarchy views
        self._semantics: dict[str, dict[str, Any]] = {}  # business annotations

    # -- tables -------------------------------------------------------------

    def register_table(self, table: Any) -> None:
        key = table.name.lower()
        if key in self._tables:
            raise DuplicateObjectError(f"table already exists: {table.name!r}")
        self._tables[key] = table

    def replace_table(self, table: Any) -> None:
        """Register-or-replace (used by recovery and data movement)."""
        self._tables[table.name.lower()] = table

    def drop_table(self, name: str) -> None:
        if self._tables.pop(name.lower(), None) is None:
            raise TableNotFoundError(name)
        self._semantics.pop(name.lower(), None)

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table(self, name: str) -> Any:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise TableNotFoundError(name) from None

    def tables(self) -> Iterator[Any]:
        return iter(self._tables.values())

    # -- engine views -----------------------------------------------------------

    def register_view(self, name: str, view: Any) -> None:
        key = name.lower()
        if key in self._views:
            raise DuplicateObjectError(f"view already exists: {name!r}")
        self._views[key] = view

    def view(self, name: str) -> Any:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise TableNotFoundError(name) from None

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    # -- business semantics --------------------------------------------------------

    def annotate(self, table: str, key: str, value: Any) -> None:
        """Attach application knowledge to a table (aging rules, key-
        generation hints, index configuration — Section III)."""
        self._semantics.setdefault(table.lower(), {})[key] = value

    def annotation(self, table: str, key: str, default: Any = None) -> Any:
        return self._semantics.get(table.lower(), {}).get(key, default)

    def annotations(self, table: str) -> dict[str, Any]:
        return dict(self._semantics.get(table.lower(), {}))
