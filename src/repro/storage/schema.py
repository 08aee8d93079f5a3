"""Table schemas and column specifications.

A :class:`TableSchema` is a purely logical description: column names, logical
data types and (optionally) a compression scheme per column.  Physical
layouts (:mod:`repro.storage.nsm`, :mod:`repro.storage.dsm`) are built from a
schema plus a tuple count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import StorageError
from repro.storage.compression import CompressionScheme, NONE, physical_bits_per_value


class DataType(Enum):
    """Logical column data types with their uncompressed widths in bits."""

    INT32 = 32
    INT64 = 64
    OID = 64
    DECIMAL = 64
    DATE = 32
    CHAR1 = 8
    STR16 = 128
    STR32 = 256
    STR64 = 512
    STR256 = 2048

    @property
    def bits(self) -> int:
        """Uncompressed width of one value in bits."""
        return self.value

    @property
    def bytes(self) -> float:
        """Uncompressed width of one value in bytes."""
        return self.value / 8.0


@dataclass(frozen=True)
class ColumnSpec:
    """A single column of a table schema.

    Attributes
    ----------
    name:
        Column name, unique within the table.
    dtype:
        Logical data type.
    compression:
        Light-weight compression scheme applied on disk.  Determines the
        *physical* width used by the DSM layout; NSM/PAX stores tuples
        uncompressed in our model (as in the paper's PAX experiments).
    compressed_bits:
        Optional explicit physical width in bits; overrides the scheme's
        default (the paper's Figure 9 quotes e.g. ``PFOR(oid):21bit``).
    """

    name: str
    dtype: DataType
    compression: CompressionScheme = NONE
    compressed_bits: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise StorageError("column name must be non-empty")
        if self.compressed_bits is not None and self.compressed_bits <= 0:
            raise StorageError("compressed_bits must be positive when given")

    @property
    def physical_bits(self) -> int:
        """Physical (on-disk) width of one value in bits."""
        if self.compressed_bits is not None:
            return self.compressed_bits
        return physical_bits_per_value(self.dtype.bits, self.compression)

    @property
    def physical_bytes(self) -> float:
        """Physical (on-disk) width of one value in bytes (may be fractional)."""
        return self.physical_bits / 8.0

    @property
    def logical_bytes(self) -> float:
        """Uncompressed width of one value in bytes."""
        return self.dtype.bytes


@dataclass(frozen=True)
class TableSchema:
    """An ordered collection of :class:`ColumnSpec` with a table name."""

    name: str
    columns: Tuple[ColumnSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise StorageError("table name must be non-empty")
        if not self.columns:
            raise StorageError(f"table {self.name!r} must have at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise StorageError(f"duplicate column names in table {self.name!r}: {names}")

    @classmethod
    def build(cls, name: str, columns: Sequence[ColumnSpec]) -> "TableSchema":
        """Build a schema from any sequence of column specs."""
        return cls(name=name, columns=tuple(columns))

    @property
    def column_names(self) -> List[str]:
        """Names of all columns, in declaration order."""
        return [c.name for c in self.columns]

    def column(self, name: str) -> ColumnSpec:
        """Look up a column by name.

        Raises :class:`StorageError` if the column does not exist.
        """
        for spec in self.columns:
            if spec.name == name:
                return spec
        raise StorageError(f"table {self.name!r} has no column {name!r}")

    @property
    def tuple_logical_bytes(self) -> float:
        """Uncompressed width of one tuple (sum of logical column widths)."""
        return sum(c.logical_bytes for c in self.columns)

    @property
    def tuple_physical_bytes(self) -> float:
        """Compressed width of one tuple (sum of physical column widths)."""
        return sum(c.physical_bytes for c in self.columns)

    def describe(self) -> Dict[str, float]:
        """Summary dictionary used by reports and examples."""
        return {
            "columns": len(self.columns),
            "tuple_logical_bytes": self.tuple_logical_bytes,
            "tuple_physical_bytes": self.tuple_physical_bytes,
        }
