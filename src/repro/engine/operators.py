"""Volcano-style physical operators over chunk batches.

Every operator is an iterable of :class:`repro.engine.table.ChunkBatch`
objects (or, for aggregates, produces a result dictionary via
:meth:`HashAggregate.result`).  The cooperative ``CScan`` differs from the
plain ``Scan`` only in its delivery order, which is exactly the paper's point:
most of the plan does not care about the order at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import EngineError
from repro.engine.expressions import Expression
from repro.engine.table import ChunkBatch, ColumnTable


class Operator:
    """Base class of all operators (an iterable of chunk batches)."""

    def __iter__(self) -> Iterator[ChunkBatch]:
        raise NotImplementedError


class Scan(Operator):
    """A plain sequential scan: chunks are delivered in table order."""

    def __init__(
        self,
        table: ColumnTable,
        columns: Optional[Sequence[str]] = None,
        chunks: Optional[Sequence[int]] = None,
    ) -> None:
        self.table = table
        self.columns = list(columns) if columns is not None else table.column_names
        if chunks is None:
            self.chunks = table.all_chunks()
        else:
            self.chunks = sorted(set(chunks))
        for chunk in self.chunks:
            if not 0 <= chunk < table.num_chunks:
                raise EngineError(f"chunk {chunk} out of range for {table.name!r}")

    def __iter__(self) -> Iterator[ChunkBatch]:
        return self.table.iter_chunks(self.chunks, self.columns)


class CScan(Operator):
    """A cooperative scan: chunks are delivered in an externally-decided order.

    The order typically comes from an Active Buffer Manager — either replayed
    from a simulation (``QueryResult.delivery_order``) or driven live through
    :class:`repro.engine.session.Session`.  The set of chunks delivered must
    cover exactly the requested chunks; duplicates and omissions raise.
    """

    def __init__(
        self,
        table: ColumnTable,
        delivery_order: Sequence[int],
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        self.table = table
        self.columns = list(columns) if columns is not None else table.column_names
        order = list(delivery_order)
        if len(set(order)) != len(order):
            raise EngineError("CScan delivery order contains duplicate chunks")
        for chunk in order:
            if not 0 <= chunk < table.num_chunks:
                raise EngineError(f"chunk {chunk} out of range for {table.name!r}")
        self.delivery_order = order

    def __iter__(self) -> Iterator[ChunkBatch]:
        return self.table.iter_chunks(self.delivery_order, self.columns)


class Select(Operator):
    """Filter rows of the child by a predicate expression."""

    def __init__(self, child: Operator, predicate: Expression) -> None:
        self.child = child
        self.predicate = predicate

    def __iter__(self) -> Iterator[ChunkBatch]:
        for batch in self.child:
            mask = np.asarray(self.predicate.evaluate(batch), dtype=bool)
            filtered = batch.filter(mask)
            if filtered.num_rows:
                yield filtered


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate to compute: ``function`` over ``expression``.

    Supported functions: ``sum``, ``count``, ``min``, ``max``, ``avg``.
    """

    name: str
    function: str
    expression: Optional[Expression] = None

    def __post_init__(self) -> None:
        if self.function not in ("sum", "count", "min", "max", "avg"):
            raise EngineError(f"unknown aggregate function {self.function!r}")
        if self.function != "count" and self.expression is None:
            raise EngineError(f"aggregate {self.function!r} needs an expression")


class _GroupAccumulator:
    """Running aggregate state for one group."""

    def __init__(self, specs: Sequence[AggregateSpec]) -> None:
        self._specs = specs
        self._sums = [0.0] * len(specs)
        self._counts = [0] * len(specs)
        self._mins = [np.inf] * len(specs)
        self._maxs = [-np.inf] * len(specs)
        self.rows = 0

    def update(self, values: List[Optional[np.ndarray]], num_rows: int) -> None:
        """Fold one batch worth of values (per aggregate) into the state."""
        self.rows += num_rows
        for index, spec in enumerate(self._specs):
            data = values[index]
            if spec.function == "count":
                self._counts[index] += num_rows
                continue
            if data is None or len(data) == 0:
                continue
            self._sums[index] += float(np.sum(data))
            self._counts[index] += len(data)
            self._mins[index] = min(self._mins[index], float(np.min(data)))
            self._maxs[index] = max(self._maxs[index], float(np.max(data)))

    def merge(self, other: "_GroupAccumulator") -> None:
        """Merge another accumulator (used by ordered aggregation borders)."""
        self.rows += other.rows
        for index in range(len(self._specs)):
            self._sums[index] += other._sums[index]
            self._counts[index] += other._counts[index]
            self._mins[index] = min(self._mins[index], other._mins[index])
            self._maxs[index] = max(self._maxs[index], other._maxs[index])

    def finalise(self) -> Dict[str, float]:
        """Produce the final aggregate values."""
        output: Dict[str, float] = {}
        for index, spec in enumerate(self._specs):
            if spec.function == "sum":
                output[spec.name] = self._sums[index]
            elif spec.function == "count":
                output[spec.name] = float(self._counts[index])
            elif spec.function == "min":
                output[spec.name] = self._mins[index]
            elif spec.function == "max":
                output[spec.name] = self._maxs[index]
            elif spec.function == "avg":
                count = self._counts[index]
                output[spec.name] = self._sums[index] / count if count else float("nan")
        return output


class HashAggregate(Operator):
    """Hash-based grouping aggregation (order-insensitive).

    ``keys`` may be empty for a global aggregate.  Results are retrieved with
    :meth:`result`, mapping each key tuple to its aggregate dictionary.
    """

    def __init__(
        self,
        child: Operator,
        keys: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ) -> None:
        if not aggregates:
            raise EngineError("aggregation needs at least one aggregate")
        self.child = child
        self.keys = list(keys)
        self.aggregates = list(aggregates)

    def __iter__(self) -> Iterator[ChunkBatch]:
        raise EngineError("HashAggregate produces a result(), not batches")

    def result(self) -> Dict[Tuple, Dict[str, float]]:
        """Consume the child and return ``{key_tuple: {agg_name: value}}``."""
        groups: Dict[Tuple, _GroupAccumulator] = {}
        for batch in self.child:
            evaluated = [
                None if spec.expression is None else np.asarray(spec.expression.evaluate(batch))
                for spec in self.aggregates
            ]
            if not self.keys:
                accumulator = groups.setdefault((), _GroupAccumulator(self.aggregates))
                accumulator.update(evaluated, batch.num_rows)
                continue
            key_arrays = [np.asarray(batch.column(key)) for key in self.keys]
            stacked = np.rec.fromarrays(key_arrays)
            unique_keys, inverse = np.unique(stacked, return_inverse=True)
            for group_index, record in enumerate(unique_keys):
                mask = inverse == group_index
                key_tuple = tuple(
                    record[field].item() if hasattr(record[field], "item") else record[field]
                    for field in range(len(self.keys))
                )
                accumulator = groups.setdefault(
                    key_tuple, _GroupAccumulator(self.aggregates)
                )
                sliced = [
                    None if values is None else values[mask] for values in evaluated
                ]
                accumulator.update(sliced, int(np.count_nonzero(mask)))
        return {key: accumulator.finalise() for key, accumulator in groups.items()}


def collect(operator: Operator) -> Dict[str, np.ndarray]:
    """Materialise an operator's output batches into full columns."""
    pieces: Dict[str, List[np.ndarray]] = {}
    for batch in operator:
        for name, values in batch.columns.items():
            pieces.setdefault(name, []).append(values)
    return {
        name: np.concatenate(arrays) if arrays else np.array([])
        for name, arrays in pieces.items()
    }
