"""DSM (column-store) physical layout.

Section 6.1 of the paper explains why DSM chunks are *logical* entities:
columns differ in physical width (data types, compression), so a fixed number
of tuples maps to a different number of pages per column, and chunk
boundaries generally do not coincide with page boundaries.  This module
computes, for every (chunk, column) pair, the set of physical pages that hold
its data — including the pages shared with neighbouring chunks, which is the
source of the "data waste" problem the DSM relevance functions must handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.common.errors import StorageError
from repro.common.units import ceil_div
from repro.storage.schema import ColumnSpec, TableSchema


@dataclass(frozen=True)
class ColumnChunkBlock:
    """The physical footprint of one logical chunk of one column.

    ``first_page`` / ``last_page`` are inclusive page indices *within that
    column's page sequence*.  ``shares_first_page`` / ``shares_last_page``
    indicate whether the boundary pages also contain data of the neighbouring
    chunks (the DSM logical/physical mismatch of Figure 9).
    """

    column: str
    chunk: int
    first_page: int
    last_page: int
    shares_first_page: bool
    shares_last_page: bool

    @property
    def num_pages(self) -> int:
        """Number of pages (inclusive range) holding this block."""
        return self.last_page - self.first_page + 1


@dataclass(frozen=True)
class DSMTableLayout:
    """Physical layout of a table stored column-wise (DSM).

    Attributes
    ----------
    schema:
        The logical table schema (physical widths come from the column specs,
        i.e. include compression).
    num_tuples:
        Number of tuples in the table.
    tuples_per_chunk:
        Number of tuples forming one *logical* chunk (e.g. 100 000 in the
        paper's example; our benchmarks derive it from a target chunk size).
    page_bytes:
        Size of one physical page, the DSM I/O and buffering unit.
    """

    schema: TableSchema
    num_tuples: int
    tuples_per_chunk: int
    page_bytes: int

    def __post_init__(self) -> None:
        if self.num_tuples <= 0:
            raise StorageError("num_tuples must be positive")
        if self.tuples_per_chunk <= 0:
            raise StorageError("tuples_per_chunk must be positive")
        if self.page_bytes <= 0:
            raise StorageError("page_bytes must be positive")

    @classmethod
    def with_target_chunk_bytes(
        cls,
        schema: TableSchema,
        num_tuples: int,
        target_chunk_bytes: int,
        page_bytes: int,
    ) -> "DSMTableLayout":
        """Pick ``tuples_per_chunk`` so a full-width chunk is about
        ``target_chunk_bytes`` of physical (compressed) data."""
        per_tuple = schema.tuple_physical_bytes
        if per_tuple <= 0:
            raise StorageError("schema has zero physical width")
        tuples = max(1, int(target_chunk_bytes / per_tuple))
        return cls(
            schema=schema,
            num_tuples=num_tuples,
            tuples_per_chunk=tuples,
            page_bytes=page_bytes,
        )

    # ------------------------------------------------------------------ chunks
    @property
    def num_chunks(self) -> int:
        """Number of logical chunks (last one may hold fewer tuples)."""
        return ceil_div(self.num_tuples, self.tuples_per_chunk)

    def _check_chunk(self, chunk: int) -> None:
        if not 0 <= chunk < self.num_chunks:
            raise StorageError(
                f"chunk {chunk} out of range for table {self.schema.name!r} "
                f"with {self.num_chunks} chunks"
            )

    def chunk_tuple_range(self, chunk: int) -> Tuple[int, int]:
        """Half-open tuple range ``[first, last)`` of a logical chunk."""
        self._check_chunk(chunk)
        first = chunk * self.tuples_per_chunk
        last = min(self.num_tuples, first + self.tuples_per_chunk)
        return first, last

    # ----------------------------------------------------------------- columns
    def _column(self, name: str) -> ColumnSpec:
        return self.schema.column(name)

    def column_total_pages(self, column: str) -> int:
        """Total number of pages occupied by one column of the table."""
        spec = self._column(column)
        total_bytes = self.num_tuples * spec.physical_bytes
        return max(1, ceil_div(int(round(total_bytes)), self.page_bytes))

    def column_byte_range(self, column: str, chunk: int) -> Tuple[float, float]:
        """Byte offsets (within the column file) covered by a chunk."""
        spec = self._column(column)
        first, last = self.chunk_tuple_range(chunk)
        return first * spec.physical_bytes, last * spec.physical_bytes

    def block(self, column: str, chunk: int) -> ColumnChunkBlock:
        """Physical footprint of ``chunk`` for ``column``."""
        start_byte, end_byte = self.column_byte_range(column, chunk)
        first_page = int(start_byte // self.page_bytes)
        # end_byte is exclusive; the last touched byte is end_byte - epsilon.
        last_page = int(max(start_byte, end_byte - 1e-9) // self.page_bytes)
        last_page = max(first_page, last_page)
        shares_first = chunk > 0 and (start_byte % self.page_bytes) > 1e-9
        end_mod = end_byte % self.page_bytes
        shares_last = chunk < self.num_chunks - 1 and end_mod > 1e-9
        return ColumnChunkBlock(
            column=column,
            chunk=chunk,
            first_page=first_page,
            last_page=last_page,
            shares_first_page=shares_first,
            shares_last_page=shares_last,
        )

    def block_pages(self, column: str, chunk: int) -> int:
        """Number of pages holding ``chunk`` of ``column``."""
        return self.block(column, chunk).num_pages

    def chunk_pages(self, chunk: int, columns: Iterable[str]) -> int:
        """Total pages holding the given columns of one logical chunk."""
        return sum(self.block_pages(column, chunk) for column in columns)

    def table_pages(self, columns: Iterable[str] | None = None) -> int:
        """Total pages of the table restricted to ``columns`` (default: all)."""
        names = list(columns) if columns is not None else self.schema.column_names
        return sum(self.column_total_pages(name) for name in names)

    def average_pages_per_chunk(self, column: str) -> float:
        """Average physical pages of one chunk of ``column`` (used by the
        attach policy's weighted column-overlap measure)."""
        return self.column_total_pages(column) / self.num_chunks

    def describe(self) -> Dict[str, object]:
        """Summary dictionary used by reports and examples."""
        per_column = {
            spec.name: {
                "physical_bits": spec.physical_bits,
                "total_pages": self.column_total_pages(spec.name),
                "pages_per_chunk": round(self.average_pages_per_chunk(spec.name), 3),
            }
            for spec in self.schema.columns
        }
        return {
            "table": self.schema.name,
            "num_tuples": self.num_tuples,
            "tuples_per_chunk": self.tuples_per_chunk,
            "num_chunks": self.num_chunks,
            "page_bytes": self.page_bytes,
            "total_pages": self.table_pages(),
            "columns": per_column,
        }
