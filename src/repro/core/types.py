"""SQL data types of the repro engine.

The column store is typed: every column declares a :class:`DataType` which
controls coercion on insert, the NumPy dtype used for encoded vectors, and
which specialised engine (geo, time series, document) interprets the values.

Types mirror the paper's Section II: the classical relational types plus the
"more semantics to the data" types — ``GEOMETRY`` (Section II.F), ``DOCUMENT``
(Section II.H JSON documents), and ``TIMESERIES`` (Section II.F).
"""

from __future__ import annotations

import datetime as _dt
import enum
import json
import math
from typing import Any

from repro.errors import TypeMismatchError


class TypeCode(enum.Enum):
    """Wire-level codes for the supported SQL types."""

    INTEGER = "INTEGER"
    BIGINT = "BIGINT"
    DOUBLE = "DOUBLE"
    DECIMAL = "DECIMAL"
    VARCHAR = "VARCHAR"
    BOOLEAN = "BOOLEAN"
    DATE = "DATE"
    TIMESTAMP = "TIMESTAMP"
    GEOMETRY = "GEOMETRY"
    DOCUMENT = "DOCUMENT"
    TIMESERIES = "TIMESERIES"


_NUMERIC_CODES = {
    TypeCode.INTEGER,
    TypeCode.BIGINT,
    TypeCode.DOUBLE,
    TypeCode.DECIMAL,
}

_EPOCH_DATE = _dt.date(1970, 1, 1)


class DataType:
    """A concrete SQL type with coercion and ordering semantics.

    Instances are lightweight and hashable; use the module-level singletons
    (:data:`INTEGER`, :data:`VARCHAR`, ...) rather than constructing new
    ones unless a parameterised type (``DECIMAL(p, s)``, ``VARCHAR(n)``) is
    required.
    """

    __slots__ = ("code", "length", "precision", "scale")

    def __init__(
        self,
        code: TypeCode,
        length: int | None = None,
        precision: int | None = None,
        scale: int | None = None,
    ) -> None:
        self.code = code
        self.length = length
        self.precision = precision
        self.scale = scale

    # -- identity ---------------------------------------------------------

    def __repr__(self) -> str:
        if self.code is TypeCode.VARCHAR and self.length is not None:
            return f"VARCHAR({self.length})"
        if self.code is TypeCode.DECIMAL and self.precision is not None:
            return f"DECIMAL({self.precision},{self.scale or 0})"
        return self.code.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DataType) and self.code is other.code

    def __hash__(self) -> int:
        return hash(self.code)

    # -- classification ---------------------------------------------------

    @property
    def is_numeric(self) -> bool:
        """True for types that participate in arithmetic."""
        return self.code in _NUMERIC_CODES

    @property
    def is_temporal(self) -> bool:
        """True for DATE and TIMESTAMP."""
        return self.code in (TypeCode.DATE, TypeCode.TIMESTAMP)

    @property
    def is_engine_type(self) -> bool:
        """True for types interpreted by a specialised engine."""
        return self.code in (
            TypeCode.GEOMETRY,
            TypeCode.DOCUMENT,
            TypeCode.TIMESERIES,
        )

    # -- coercion ---------------------------------------------------------

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this type's canonical Python representation.

        ``None`` always passes through (SQL NULL), and a float NaN becomes
        ``None`` in DOUBLE and DECIMAL. Raises :class:`TypeMismatchError`
        when the value cannot be represented.
        """
        if value is None:
            return None
        try:
            return _COERCERS[self.code](self, value)
        except TypeMismatchError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise TypeMismatchError(
                f"cannot coerce {value!r} to {self!r}: {exc}"
            ) from exc

    def coerce_many(self, values: list[Any]) -> list[Any]:
        """``[coerce(value) for value in values]``, a column at a time.

        One pass over the value types decides: a column already in its
        canonical form (exact ``int`` in range, ``float``, ``str`` within
        ``VARCHAR(n)``, ``date``, ...) comes back as the same list; any
        other column falls back to :meth:`coerce` per value, so results
        and errors are the per-value ones.
        """
        kinds = set(map(type, values)) - {type(None)}
        if not kinds:
            return values
        canonical = _CANONICAL.get(self.code)
        if canonical is not None and canonical(self, kinds, values):
            return values
        return [self.coerce(value) for value in values]

    def sort_key(self, value: Any) -> Any:
        """Return a totally-ordered key for dictionary sorting."""
        return value


def _non_null(values: list[Any]) -> list[Any]:
    return [value for value in values if value is not None] if None in values else values


def _canonical_integer(dtype: DataType, kinds: set[type], values: list[Any]) -> bool:
    if kinds != {int}:
        return False
    present = _non_null(values)
    bound = 2**31 if dtype.code is TypeCode.INTEGER else 2**63
    return -bound <= min(present) and max(present) < bound


def _canonical_double(dtype: DataType, kinds: set[type], values: list[Any]) -> bool:
    if kinds != {float} or (dtype.code is TypeCode.DECIMAL and dtype.scale is not None):
        return False
    # a NaN makes the sum NaN (so may an inf meeting a -inf: then the
    # per-value path just finds no NaN)
    return not math.isnan(sum(_non_null(values)))


def _canonical_varchar(dtype: DataType, kinds: set[type], values: list[Any]) -> bool:
    if kinds != {str}:
        return False
    return dtype.length is None or max(map(len, _non_null(values))) <= dtype.length


def _canonical_exact(kind: type) -> Any:
    return lambda _dtype, kinds, _values: kinds == {kind}


def _coerce_integer(dtype: DataType, value: Any) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        result = value
    elif isinstance(value, float):
        if not value.is_integer():
            raise TypeMismatchError(f"non-integral float {value!r} for {dtype!r}")
        result = int(value)
    elif isinstance(value, str):
        result = int(value.strip())
    else:
        raise TypeMismatchError(f"cannot coerce {type(value).__name__} to {dtype!r}")
    if dtype.code is TypeCode.INTEGER and not -(2**31) <= result < 2**31:
        raise TypeMismatchError(f"INTEGER out of range: {result}")
    if not -(2**63) <= result < 2**63:
        raise TypeMismatchError(f"BIGINT out of range: {result}")
    return result


def _coerce_double(dtype: DataType, value: Any) -> float | None:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, int):
        return float(value)
    if isinstance(value, float):
        # NaN is NULL, as it is in the executor's float columns
        return None if math.isnan(value) else float(value)
    if isinstance(value, str):
        result = float(value.strip())
        if math.isnan(result):
            raise TypeMismatchError("NaN is not a valid DOUBLE literal")
        return result
    raise TypeMismatchError(f"cannot coerce {type(value).__name__} to {dtype!r}")


def _coerce_decimal(dtype: DataType, value: Any) -> float | None:
    # Decimals are carried as floats rounded to the declared scale; exact
    # decimal arithmetic is out of scope for the reproduction.
    result = _coerce_double(dtype, value)
    if result is not None and dtype.scale is not None:
        result = round(result, dtype.scale)
    return result


def _coerce_varchar(dtype: DataType, value: Any) -> str:
    if isinstance(value, str):
        result = value
    elif isinstance(value, (int, float, bool)):
        result = str(value)
    else:
        raise TypeMismatchError(f"cannot coerce {type(value).__name__} to {dtype!r}")
    if dtype.length is not None and len(result) > dtype.length:
        raise TypeMismatchError(
            f"value of length {len(result)} exceeds VARCHAR({dtype.length})"
        )
    return result


def _coerce_boolean(dtype: DataType, value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "t", "1"):
            return True
        if lowered in ("false", "f", "0"):
            return False
    raise TypeMismatchError(f"cannot coerce {value!r} to BOOLEAN")


def _coerce_date(dtype: DataType, value: Any) -> _dt.date:
    if isinstance(value, _dt.datetime):
        return value.date()
    if isinstance(value, _dt.date):
        return value
    if isinstance(value, str):
        return _dt.date.fromisoformat(value.strip())
    if isinstance(value, int):
        return _EPOCH_DATE + _dt.timedelta(days=value)
    raise TypeMismatchError(f"cannot coerce {type(value).__name__} to DATE")


def _coerce_timestamp(dtype: DataType, value: Any) -> _dt.datetime:
    if isinstance(value, _dt.datetime):
        return value
    if isinstance(value, _dt.date):
        return _dt.datetime(value.year, value.month, value.day)
    if isinstance(value, str):
        return _dt.datetime.fromisoformat(value.strip())
    if isinstance(value, (int, float)):
        return _dt.datetime(1970, 1, 1) + _dt.timedelta(seconds=float(value))
    raise TypeMismatchError(f"cannot coerce {type(value).__name__} to TIMESTAMP")


def _coerce_geometry(dtype: DataType, value: Any) -> Any:
    # Geometries are stored as their WKT string; the geo engine parses them
    # lazily. Accept geometry objects exposing .wkt() or WKT strings.
    wkt = getattr(value, "wkt", None)
    if callable(wkt):
        return wkt()
    if isinstance(value, str):
        return value
    raise TypeMismatchError(f"cannot coerce {type(value).__name__} to GEOMETRY")


def _coerce_document(dtype: DataType, value: Any) -> str:
    # Documents are stored as canonical JSON text (sorted keys) so that
    # equal documents dictionary-encode to the same value id.
    if isinstance(value, str):
        value = json.loads(value)
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def _coerce_timeseries(dtype: DataType, value: Any) -> Any:
    # The time-series engine owns this representation; values are opaque
    # here (typically a repro.engines.timeseries.TimeSeries or its encoded
    # string form).
    return value


_COERCERS = {
    TypeCode.INTEGER: _coerce_integer,
    TypeCode.BIGINT: _coerce_integer,
    TypeCode.DOUBLE: _coerce_double,
    TypeCode.DECIMAL: _coerce_decimal,
    TypeCode.VARCHAR: _coerce_varchar,
    TypeCode.BOOLEAN: _coerce_boolean,
    TypeCode.DATE: _coerce_date,
    TypeCode.TIMESTAMP: _coerce_timestamp,
    TypeCode.GEOMETRY: _coerce_geometry,
    TypeCode.DOCUMENT: _coerce_document,
    TypeCode.TIMESERIES: _coerce_timeseries,
}

#: ``(dtype, value types, values) -> bool``: would :meth:`DataType.coerce`
#: return every value unchanged? Types without an entry always coerce.
_CANONICAL = {
    TypeCode.INTEGER: _canonical_integer,
    TypeCode.BIGINT: _canonical_integer,
    TypeCode.DOUBLE: _canonical_double,
    TypeCode.DECIMAL: _canonical_double,
    TypeCode.VARCHAR: _canonical_varchar,
    TypeCode.BOOLEAN: _canonical_exact(bool),
    TypeCode.DATE: _canonical_exact(_dt.date),
    TypeCode.TIMESTAMP: _canonical_exact(_dt.datetime),
}


# Singleton instances for the non-parameterised types.
INTEGER = DataType(TypeCode.INTEGER)
BIGINT = DataType(TypeCode.BIGINT)
DOUBLE = DataType(TypeCode.DOUBLE)
DECIMAL = DataType(TypeCode.DECIMAL)
VARCHAR = DataType(TypeCode.VARCHAR)
BOOLEAN = DataType(TypeCode.BOOLEAN)
DATE = DataType(TypeCode.DATE)
TIMESTAMP = DataType(TypeCode.TIMESTAMP)
GEOMETRY = DataType(TypeCode.GEOMETRY)
DOCUMENT = DataType(TypeCode.DOCUMENT)
TIMESERIES = DataType(TypeCode.TIMESERIES)

_BY_NAME = {
    "INT": INTEGER,
    "INTEGER": INTEGER,
    "BIGINT": BIGINT,
    "DOUBLE": DOUBLE,
    "FLOAT": DOUBLE,
    "REAL": DOUBLE,
    "DECIMAL": DECIMAL,
    "NUMERIC": DECIMAL,
    "VARCHAR": VARCHAR,
    "NVARCHAR": VARCHAR,
    "STRING": VARCHAR,
    "TEXT": VARCHAR,
    "BOOLEAN": BOOLEAN,
    "BOOL": BOOLEAN,
    "DATE": DATE,
    "TIMESTAMP": TIMESTAMP,
    "DATETIME": TIMESTAMP,
    "GEOMETRY": GEOMETRY,
    "ST_GEOMETRY": GEOMETRY,
    "DOCUMENT": DOCUMENT,
    "JSON": DOCUMENT,
    "TIMESERIES": TIMESERIES,
}


def type_from_name(
    name: str,
    length: int | None = None,
    precision: int | None = None,
    scale: int | None = None,
) -> DataType:
    """Resolve a SQL type name (case-insensitive) to a :class:`DataType`.

    >>> type_from_name("varchar", length=10)
    VARCHAR(10)
    """
    try:
        base = _BY_NAME[name.upper()]
    except KeyError:
        raise TypeMismatchError(f"unknown SQL type: {name!r}") from None
    if length is None and precision is None and scale is None:
        return base
    return DataType(base.code, length=length, precision=precision, scale=scale)
