"""Zone maps (per-chunk min/max metadata).

Section 2 of the paper lists per-block min/max metadata ("small materialized
aggregates", Netezza "zonemaps") as one of the techniques that turn selective
queries into clustered-index-like scans — sometimes producing scan plans that
need a *set of non-contiguous chunk ranges*.  The attach policy struggles
with such plans, which is one of the motivations for relevance.

A :class:`ZoneMap` stores, for one column, the minimum and maximum value of
every chunk, and answers "which chunks can contain values in ``[lo, hi]``?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.common.errors import StorageError


@dataclass(frozen=True)
class ZoneMap:
    """Min/max metadata of one column, one entry per chunk."""

    column: str
    minima: Tuple[float, ...]
    maxima: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.minima) != len(self.maxima):
            raise StorageError("zone map minima/maxima must have equal length")
        if not self.minima:
            raise StorageError("zone map must cover at least one chunk")
        for index, (lo, hi) in enumerate(zip(self.minima, self.maxima)):
            if lo > hi:
                raise StorageError(
                    f"zone map entry {index} has min {lo} > max {hi}"
                )

    @property
    def num_chunks(self) -> int:
        """Number of chunks covered by this zone map."""
        return len(self.minima)

    def chunks_for_range(self, low: float, high: float) -> List[int]:
        """Chunks whose [min, max] interval intersects ``[low, high]``.

        Returns chunk ids in increasing order; possibly non-contiguous when
        the column is only *correlated* with the physical order.
        """
        if low > high:
            return []
        return [
            chunk
            for chunk in range(self.num_chunks)
            if not (self.maxima[chunk] < low or self.minima[chunk] > high)
        ]


def build_zonemap(
    column: str, values: np.ndarray, tuples_per_chunk: int
) -> ZoneMap:
    """Build a zone map from raw column values.

    Parameters
    ----------
    column:
        Column name the map describes.
    values:
        The column data, in physical (storage) order.
    tuples_per_chunk:
        Number of tuples per chunk of the table's layout.
    """
    if values.ndim != 1:
        raise StorageError("zone map values must be a 1-D array")
    if len(values) == 0:
        raise StorageError("cannot build a zone map over an empty column")
    if tuples_per_chunk <= 0:
        raise StorageError("tuples_per_chunk must be positive")
    minima: List[float] = []
    maxima: List[float] = []
    for start in range(0, len(values), tuples_per_chunk):
        block = values[start : start + tuples_per_chunk]
        minima.append(float(np.min(block)))
        maxima.append(float(np.max(block)))
    return ZoneMap(column=column, minima=tuple(minima), maxima=tuple(maxima))
