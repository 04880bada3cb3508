"""Table schemas: column specifications, keys, and row validation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.core.types import DataType
from repro.errors import ColumnNotFoundError, SchemaError


@dataclass(frozen=True)
class ColumnSpec:
    """Declaration of one column: name, type, and constraints."""

    name: str
    dtype: DataType
    nullable: bool = True
    default: Any = None

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` for this column, applying NULL rules.

        A value its type coerces to NULL (a float NaN in DOUBLE) follows
        the NULL rules too."""
        if value is not None:
            value = self.dtype.coerce(value)
            if value is not None:
                return value
        if self.default is not None:
            return self.dtype.coerce(self.default)
        if not self.nullable:
            raise SchemaError(f"column {self.name!r} is NOT NULL")
        return None

    def coerce_many(self, values: list[Any]) -> list[Any]:
        """:meth:`coerce` over a column of values (see
        :meth:`DataType.coerce_many`)."""
        ruled = self.default is not None or not self.nullable
        if ruled and None in values:
            return [self.coerce(value) for value in values]
        coerced = self.dtype.coerce_many(values)
        if ruled and None in coerced:  # a value the type took for NULL
            return [self.coerce(value) for value in values]
        return coerced


@dataclass
class TableSchema:
    """An ordered collection of :class:`ColumnSpec` plus key metadata.

    ``primary_key`` lists the columns forming the primary key (possibly
    empty). ``metadata`` is a free-form dict the higher layers use to attach
    application knowledge — aging rules (Section III), key-generation hints
    for the delta merge, text-index configuration, and so on. Storing such
    knowledge *in the table metadata* is exactly the paper's "listening to
    the application" mechanism.
    """

    columns: list[ColumnSpec]
    primary_key: tuple[str, ...] = ()
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for spec in self.columns:
            lowered = spec.name.lower()
            if lowered in seen:
                raise SchemaError(f"duplicate column name: {spec.name!r}")
            seen.add(lowered)
        for key_col in self.primary_key:
            if key_col.lower() not in seen:
                raise SchemaError(f"primary key column {key_col!r} not in schema")
        self._index = {
            spec.name.lower(): position for position, spec in enumerate(self.columns)
        }

    # -- lookup -----------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        """Declared column names, in order."""
        return [spec.name for spec in self.columns]

    def has_column(self, name: str) -> bool:
        """Case-insensitive membership test."""
        return name.lower() in self._index

    def position(self, name: str) -> int:
        """Ordinal position of ``name`` (case-insensitive)."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise ColumnNotFoundError("<schema>", name) from None

    def column(self, name: str) -> ColumnSpec:
        """The :class:`ColumnSpec` for ``name`` (case-insensitive)."""
        return self.columns[self.position(name)]

    @property
    def key_column(self) -> str | None:
        """Lower-cased name of the single-column primary key, else ``None``.

        The column store indexes and enforces exactly this case; composite
        keys stay declared only.
        """
        key = self.primary_key
        return key[0].lower() if len(key) == 1 else None

    # -- mutation (flexible tables) ----------------------------------------

    def add_column(self, spec: ColumnSpec) -> None:
        """Append a column; used by flexible tables (Section II.H)."""
        if self.has_column(spec.name):
            raise SchemaError(f"duplicate column name: {spec.name!r}")
        self.columns.append(spec)
        self._index[spec.name.lower()] = len(self.columns) - 1

    # -- row handling -------------------------------------------------------

    def coerce_row(self, row: Sequence[Any] | Mapping[str, Any]) -> list[Any]:
        """Validate and coerce one row to schema order.

        Accepts either a positional sequence matching the column order or a
        mapping from column name to value (missing names become NULL or the
        column default).
        """
        values = self._positional(row)
        return [spec.coerce(value) for spec, value in zip(self.columns, values)]

    def coerce_columns(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> list[list[Any]]:
        """Validate and coerce a batch of rows, returned column-major: one
        list per schema column.

        The batch is transposed once and each column coerced by
        :meth:`ColumnSpec.coerce_many`. The values are those of
        :meth:`coerce_row`; with several bad values in a batch, the error
        reported is the first bad value of the first bad *column*.
        """
        rows = list(rows)
        if len(rows) == 1:  # one row: a pass per value beats a pass per column
            return [[value] for value in self.coerce_row(rows[0])]
        if not set(map(type, rows)) <= {list, tuple}:
            rows = [self._positional(row) for row in rows]
        width = len(self.columns)
        wrong = set(map(len, rows)) - {width}
        if wrong:
            raise SchemaError(f"row has {min(wrong)} values, schema has {width} columns")
        columns = list(map(list, zip(*rows))) if rows else [[] for _ in self.columns]
        return [spec.coerce_many(values) for spec, values in zip(self.columns, columns)]

    def _positional(self, row: Sequence[Any] | Mapping[str, Any]) -> list[Any]:
        """``row`` as a list in schema order (the shape checks of
        :meth:`coerce_row`)."""
        if isinstance(row, Mapping):
            unknown = [name for name in row if not self.has_column(name)]
            if unknown:
                raise SchemaError(f"unknown columns in row: {unknown}")
            return [row.get(spec.name, row.get(spec.name.lower())) for spec in self.columns]
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row has {len(row)} values, schema has {len(self.columns)} columns"
            )
        return list(row)

    def key_of(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """Extract the primary-key tuple from a schema-ordered row."""
        return tuple(row[self.position(name)] for name in self.primary_key)


def schema(*specs: tuple[str, DataType] | ColumnSpec, primary_key: Iterable[str] = ()) -> TableSchema:
    """Convenience constructor.

    >>> from repro.core import types
    >>> sch = schema(("id", types.INTEGER), ("name", types.VARCHAR), primary_key=["id"])
    >>> sch.column_names
    ['id', 'name']
    """
    columns = [
        spec if isinstance(spec, ColumnSpec) else ColumnSpec(spec[0], spec[1])
        for spec in specs
    ]
    return TableSchema(columns, primary_key=tuple(primary_key))
