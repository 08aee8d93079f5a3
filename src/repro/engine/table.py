"""In-memory chunked column tables.

A :class:`ColumnTable` holds one numpy array per column and a logical chunk
size (tuples per chunk).  Both the plain ``Scan`` and the cooperative
``CScan`` operators read :class:`ChunkBatch` objects from it; the chunk ids
line up with the chunk ids used by the storage layouts and the simulator, so
a delivery order produced by a simulated ABM run can be replayed against real
data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import EngineError
from repro.common.units import ceil_div


@dataclass
class ChunkBatch:
    """A slice of table data covering one chunk (or part of one).

    ``columns`` maps column names to equally-sized numpy arrays; ``chunk`` is
    the logical chunk id the batch came from, which order-aware operators use
    to reason about chunk adjacency.
    """

    chunk: int
    start_row: int
    columns: Dict[str, np.ndarray]

    def __post_init__(self) -> None:
        lengths = {len(values) for values in self.columns.values()}
        if len(lengths) > 1:
            raise EngineError(f"ragged chunk batch: column lengths {lengths}")

    @property
    def num_rows(self) -> int:
        """Number of rows in the batch."""
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def column(self, name: str) -> np.ndarray:
        """Return one column of the batch."""
        try:
            return self.columns[name]
        except KeyError as exc:
            raise EngineError(f"batch has no column {name!r}") from exc

    def filter(self, mask: np.ndarray) -> "ChunkBatch":
        """Return a new batch with only the rows where ``mask`` is true."""
        if mask.shape != (self.num_rows,):
            raise EngineError(
                f"mask shape {mask.shape} does not match batch rows {self.num_rows}"
            )
        return ChunkBatch(
            chunk=self.chunk,
            start_row=self.start_row,
            columns={name: values[mask] for name, values in self.columns.items()},
        )


class ColumnTable:
    """An in-memory table stored as one numpy array per column."""

    def __init__(
        self,
        name: str,
        columns: Dict[str, np.ndarray],
        tuples_per_chunk: int,
    ) -> None:
        if not columns:
            raise EngineError(f"table {name!r} needs at least one column")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) != 1:
            raise EngineError(f"table {name!r} has ragged columns: lengths {lengths}")
        if tuples_per_chunk <= 0:
            raise EngineError("tuples_per_chunk must be positive")
        self.name = name
        self._columns = dict(columns)
        self.num_rows = lengths.pop()
        if self.num_rows == 0:
            raise EngineError(f"table {name!r} is empty")
        self.tuples_per_chunk = tuples_per_chunk

    # ----------------------------------------------------------- inspection
    @property
    def column_names(self) -> List[str]:
        """Names of all columns."""
        return list(self._columns)

    @property
    def num_chunks(self) -> int:
        """Number of logical chunks."""
        return ceil_div(self.num_rows, self.tuples_per_chunk)

    def column(self, name: str) -> np.ndarray:
        """The full array of one column."""
        try:
            return self._columns[name]
        except KeyError as exc:
            raise EngineError(f"table {self.name!r} has no column {name!r}") from exc

    def chunk_bounds(self, chunk: int) -> Tuple[int, int]:
        """Half-open row range of one chunk."""
        if not 0 <= chunk < self.num_chunks:
            raise EngineError(
                f"chunk {chunk} out of range for table {self.name!r} "
                f"({self.num_chunks} chunks)"
            )
        start = chunk * self.tuples_per_chunk
        return start, min(self.num_rows, start + self.tuples_per_chunk)

    def all_chunks(self) -> List[int]:
        """All chunk ids in table order."""
        return list(range(self.num_chunks))

    # ------------------------------------------------------------- batches
    def read_chunk(
        self, chunk: int, columns: Optional[Sequence[str]] = None
    ) -> ChunkBatch:
        """Materialise one chunk of the given columns as a batch."""
        start, end = self.chunk_bounds(chunk)
        names = list(columns) if columns is not None else self.column_names
        data = {name: self.column(name)[start:end] for name in names}
        return ChunkBatch(chunk=chunk, start_row=start, columns=data)

    def iter_chunks(
        self,
        chunks: Optional[Iterable[int]] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> Iterator[ChunkBatch]:
        """Yield chunk batches in the given chunk order (table order default)."""
        order = list(chunks) if chunks is not None else self.all_chunks()
        for chunk in order:
            yield self.read_chunk(chunk, columns)
