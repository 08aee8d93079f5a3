"""Merge joins over clustered tables, including the Cooperative Merge Join.

Section 7.2 of the paper: the classic merge join needs both inputs in key
order, which conflicts with out-of-order chunk delivery.  Two remedies are
implemented:

* :class:`MergeJoin` — the classic operator, requiring in-order delivery
  (what the attach / elevator policies provide);
* :class:`CooperativeMergeJoin` — for foreign-key joins where the inner table
  fits in memory: each outer chunk is joined independently by positioning
  into the (sorted) inner table with an index lookup, so the outer side can
  arrive in any order.  :func:`build_join_index` materialises the "invisible
  row-id column" (the ``#order`` join index of MonetDB/X100) that makes the
  per-chunk positioning O(log n).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.common.errors import EngineError
from repro.engine.operators import Operator, collect
from repro.engine.table import ChunkBatch, ColumnTable


def build_join_index(
    outer_keys: np.ndarray, inner_keys: np.ndarray
) -> np.ndarray:
    """Row ids of the inner table matching each outer row (foreign-key join).

    ``inner_keys`` must be sorted and unique (a primary key); every outer key
    must appear in it.  The result is the physical row-id column a system like
    MonetDB/X100 stores alongside the outer table to enable multi-table
    clustering.
    """
    inner = np.asarray(inner_keys)
    outer = np.asarray(outer_keys)
    if inner.ndim != 1 or outer.ndim != 1:
        raise EngineError("join keys must be one-dimensional")
    if len(inner) == 0:
        raise EngineError("inner key column is empty")
    if np.any(inner[1:] <= inner[:-1]):
        raise EngineError("inner keys must be strictly increasing (primary key)")
    positions = np.searchsorted(inner, outer)
    positions = np.clip(positions, 0, len(inner) - 1)
    if not np.array_equal(inner[positions], outer):
        raise EngineError("outer keys contain values missing from the inner table")
    return positions.astype(np.int64)


class MergeJoin(Operator):
    """Classic merge join of two key-ordered inputs (many-to-one).

    The outer input must deliver rows in non-decreasing key order (so only
    in-order scans can feed it); the inner table must have strictly
    increasing keys.  Output batches carry the outer columns plus the
    requested inner columns.
    """

    def __init__(
        self,
        outer: Operator,
        inner: ColumnTable,
        outer_key: str,
        inner_key: str,
        inner_columns: Sequence[str],
    ) -> None:
        self.outer = outer
        self.inner = inner
        self.outer_key = outer_key
        self.inner_key = inner_key
        self.inner_columns = list(inner_columns)
        self._last_key_seen: Optional[float] = None

    def __iter__(self) -> Iterator[ChunkBatch]:
        inner_keys = np.asarray(self.inner.column(self.inner_key))
        if np.any(inner_keys[1:] <= inner_keys[:-1]):
            raise EngineError("inner table is not sorted on its key")
        self._last_key_seen = None
        for batch in self.outer:
            keys = np.asarray(batch.column(self.outer_key))
            if batch.num_rows == 0:
                continue
            if np.any(keys[1:] < keys[:-1]):
                raise EngineError("merge join input is not sorted within the batch")
            if self._last_key_seen is not None and keys[0] < self._last_key_seen:
                raise EngineError(
                    "merge join received out-of-order batches; "
                    "use CooperativeMergeJoin with CScan delivery"
                )
            self._last_key_seen = float(keys[-1])
            yield _join_batch(
                batch, keys, self.inner, inner_keys, self.inner_columns
            )


class CooperativeMergeJoin(Operator):
    """Merge join tolerating out-of-order outer chunks (Section 7.2).

    Each outer chunk is positioned into the inner table independently, either
    through a precomputed join index (row ids) or by binary search on the
    inner key.  The inner table must fit in memory, which is the case the
    paper singles out as "special yet valuable".
    """

    def __init__(
        self,
        outer: Operator,
        inner: ColumnTable,
        outer_key: str,
        inner_key: str,
        inner_columns: Sequence[str],
        join_index: Optional[np.ndarray] = None,
    ) -> None:
        self.outer = outer
        self.inner = inner
        self.outer_key = outer_key
        self.inner_key = inner_key
        self.inner_columns = list(inner_columns)
        self.join_index = join_index

    def __iter__(self) -> Iterator[ChunkBatch]:
        inner_keys = np.asarray(self.inner.column(self.inner_key))
        for batch in self.outer:
            if batch.num_rows == 0:
                continue
            keys = np.asarray(batch.column(self.outer_key))
            if self.join_index is not None:
                rows = self.join_index[batch.start_row : batch.start_row + batch.num_rows]
                yield _join_batch_by_rows(batch, rows, self.inner, self.inner_columns)
            else:
                yield _join_batch(batch, keys, self.inner, inner_keys, self.inner_columns)


def _join_batch(
    batch: ChunkBatch,
    keys: np.ndarray,
    inner: ColumnTable,
    inner_keys: np.ndarray,
    inner_columns: Sequence[str],
) -> ChunkBatch:
    positions = np.searchsorted(inner_keys, keys)
    positions = np.clip(positions, 0, len(inner_keys) - 1)
    matched = inner_keys[positions] == keys
    rows = positions[matched]
    filtered = batch.filter(matched)
    return _join_batch_by_rows(filtered, rows, inner, inner_columns)


def _join_batch_by_rows(
    batch: ChunkBatch,
    rows: np.ndarray,
    inner: ColumnTable,
    inner_columns: Sequence[str],
) -> ChunkBatch:
    if len(rows) != batch.num_rows:
        raise EngineError("join index length does not match batch row count")
    columns: Dict[str, np.ndarray] = dict(batch.columns)
    for name in inner_columns:
        output_name = name if name not in columns else f"{inner.name}.{name}"
        columns[output_name] = np.asarray(inner.column(name))[rows]
    return ChunkBatch(chunk=batch.chunk, start_row=batch.start_row, columns=columns)
