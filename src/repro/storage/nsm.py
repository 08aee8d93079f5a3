"""NSM / PAX (row-store) physical layout.

In the row-store experiments of the paper a chunk is a fixed-size physical
unit (16 MB) consisting of a fixed number of pages, and chunks map one-to-one
onto contiguous tuple ranges.  This module computes that mapping for a table
given its schema and tuple count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.common.config import BufferConfig
from repro.common.errors import StorageError
from repro.common.units import ceil_div
from repro.storage.schema import TableSchema


@dataclass(frozen=True)
class NSMTableLayout:
    """Physical layout of a table stored row-wise (NSM or PAX).

    Attributes
    ----------
    schema:
        The logical table schema.
    num_tuples:
        Number of tuples in the table.
    chunk_bytes:
        Size of one chunk (the I/O unit), 16 MB in the paper.
    page_bytes:
        Size of one buffer page; a chunk is an integral number of pages.
    """

    schema: TableSchema
    num_tuples: int
    chunk_bytes: int
    page_bytes: int

    def __post_init__(self) -> None:
        if self.num_tuples <= 0:
            raise StorageError("num_tuples must be positive")
        if self.chunk_bytes <= 0 or self.page_bytes <= 0:
            raise StorageError("chunk_bytes and page_bytes must be positive")
        if self.chunk_bytes % self.page_bytes != 0:
            raise StorageError("chunk_bytes must be a multiple of page_bytes")
        if self.tuples_per_chunk <= 0:
            raise StorageError(
                "chunk size too small: no tuple fits in one chunk "
                f"(tuple is {self.schema.tuple_logical_bytes} bytes)"
            )

    @classmethod
    def from_buffer_config(
        cls, schema: TableSchema, num_tuples: int, buffer: BufferConfig
    ) -> "NSMTableLayout":
        """Build a layout using the chunk/page sizes of a buffer configuration."""
        return cls(
            schema=schema,
            num_tuples=num_tuples,
            chunk_bytes=buffer.chunk_bytes,
            page_bytes=buffer.page_bytes,
        )

    # ------------------------------------------------------------------ sizes
    @property
    def tuple_bytes(self) -> float:
        """Width of one stored tuple in bytes (uncompressed row format)."""
        return self.schema.tuple_logical_bytes

    @property
    def tuples_per_chunk(self) -> int:
        """Number of tuples stored in one full chunk."""
        return int(self.chunk_bytes // self.tuple_bytes)

    @property
    def num_chunks(self) -> int:
        """Total number of chunks of the table (last one may be partial)."""
        return ceil_div(self.num_tuples, self.tuples_per_chunk)

    @property
    def total_bytes(self) -> int:
        """Total table size in bytes (full chunks except possibly the last)."""
        full = (self.num_chunks - 1) * self.chunk_bytes
        return full + self.chunk_size_bytes(self.num_chunks - 1)

    # --------------------------------------------------------------- per chunk
    def _check_chunk(self, chunk: int) -> None:
        if not 0 <= chunk < self.num_chunks:
            raise StorageError(
                f"chunk {chunk} out of range for table {self.schema.name!r} "
                f"with {self.num_chunks} chunks"
            )

    def chunk_tuple_range(self, chunk: int) -> Tuple[int, int]:
        """Half-open tuple range ``[first, last)`` stored in a chunk."""
        self._check_chunk(chunk)
        first = chunk * self.tuples_per_chunk
        last = min(self.num_tuples, first + self.tuples_per_chunk)
        return first, last

    def chunk_tuple_count(self, chunk: int) -> int:
        """Number of tuples stored in a chunk (smaller for the last chunk)."""
        first, last = self.chunk_tuple_range(chunk)
        return last - first

    def chunk_size_bytes(self, chunk: int) -> int:
        """Physical size of a chunk in bytes."""
        return int(round(self.chunk_tuple_count(chunk) * self.tuple_bytes))

    def all_chunks(self) -> Iterator[int]:
        """Iterate over all chunk ids in physical order."""
        return iter(range(self.num_chunks))

    def describe(self) -> dict:
        """Summary dictionary used by reports and examples."""
        return {
            "table": self.schema.name,
            "num_tuples": self.num_tuples,
            "tuple_bytes": self.tuple_bytes,
            "chunk_bytes": self.chunk_bytes,
            "tuples_per_chunk": self.tuples_per_chunk,
            "num_chunks": self.num_chunks,
            "total_bytes": self.total_bytes,
        }
