"""Chunk-aware ordered aggregation (Section 7.2).

Ordered aggregation normally exploits that its input arrives sorted on the
grouping key: when the key changes, the finished group can be emitted
immediately.  With Cooperative Scans the input arrives chunk by chunk in an
arbitrary order, but *within* a chunk the data is still sorted.  The operator
therefore:

* aggregates each chunk internally and emits every group that is entirely
  contained in the chunk ("interior" groups),
* keeps the first and last group of every chunk aside as *border* groups,
  because they may continue in the neighbouring chunks,
* merges border groups across adjacent chunks once all chunks have been seen
  (the number of pending border groups is bounded by the number of chunks,
  which is the paper's argument for why this is cheap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import EngineError
from repro.engine.operators import AggregateSpec, Operator, _GroupAccumulator
from repro.engine.table import ChunkBatch


@dataclass
class _ChunkBorders:
    """Border groups of one processed chunk."""

    first_key: Tuple
    first_acc: _GroupAccumulator
    last_key: Tuple
    last_acc: _GroupAccumulator
    single_group: bool


class OrderedAggregate(Operator):
    """Grouping aggregation over a key that is sorted in table order.

    The grouping key columns must be (jointly) non-decreasing in physical
    table order; chunks may arrive in any order.  Results are obtained with
    :meth:`result` and are identical to what :class:`HashAggregate` computes.
    """

    def __init__(
        self,
        child: Operator,
        keys: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ) -> None:
        if not keys:
            raise EngineError("ordered aggregation needs at least one key column")
        if not aggregates:
            raise EngineError("aggregation needs at least one aggregate")
        self.child = child
        self.keys = list(keys)
        self.aggregates = list(aggregates)
        self._result_accumulators: Dict[Tuple, _GroupAccumulator] = {}
        self._borders: Dict[int, _ChunkBorders] = {}
        self._interior_groups_emitted = 0
        self._max_pending_borders = 0

    def __iter__(self) -> Iterator[ChunkBatch]:
        raise EngineError("OrderedAggregate produces a result(), not batches")

    # ---------------------------------------------------------------- stats
    @property
    def interior_groups_emitted(self) -> int:
        """Groups emitted before finalisation (fully contained in one chunk)."""
        return self._interior_groups_emitted

    @property
    def max_pending_borders(self) -> int:
        """Largest number of chunk border records held at any point."""
        return self._max_pending_borders

    # ----------------------------------------------------------- processing
    def result(self) -> Dict[Tuple, Dict[str, float]]:
        """Consume the child and return ``{key_tuple: {agg_name: value}}``."""
        for batch in self.child:
            if batch.num_rows == 0:
                continue
            self._process_chunk(batch)
            self._max_pending_borders = max(self._max_pending_borders, len(self._borders))
        self._merge_borders()
        return {
            key: accumulator.finalise()
            for key, accumulator in self._result_accumulators.items()
        }

    def _key_tuple(self, batch: ChunkBatch, row: int) -> Tuple:
        return tuple(_scalar(batch.column(key)[row]) for key in self.keys)

    def _process_chunk(self, batch: ChunkBatch) -> None:
        if batch.chunk in self._borders:
            raise EngineError(f"chunk {batch.chunk} delivered twice")
        key_arrays = [np.asarray(batch.column(key)) for key in self.keys]
        # Group boundaries inside the chunk (data is sorted within a chunk).
        changes = np.zeros(batch.num_rows, dtype=bool)
        for values in key_arrays:
            changes[1:] |= values[1:] != values[:-1]
        boundaries = np.flatnonzero(changes)
        group_starts = np.concatenate(([0], boundaries))
        group_ends = np.concatenate((boundaries, [batch.num_rows]))
        evaluated = [
            None if spec.expression is None else np.asarray(spec.expression.evaluate(batch))
            for spec in self.aggregates
        ]
        accumulators: List[Tuple[Tuple, _GroupAccumulator]] = []
        for start, end in zip(group_starts, group_ends):
            key = self._key_tuple(batch, int(start))
            accumulator = _GroupAccumulator(self.aggregates)
            sliced = [
                None if values is None else values[start:end] for values in evaluated
            ]
            accumulator.update(sliced, int(end - start))
            accumulators.append((key, accumulator))
        # Interior groups are final; first and last may spill into neighbours.
        if len(accumulators) == 1:
            key, accumulator = accumulators[0]
            self._borders[batch.chunk] = _ChunkBorders(
                first_key=key,
                first_acc=accumulator,
                last_key=key,
                last_acc=accumulator,
                single_group=True,
            )
            return
        first_key, first_acc = accumulators[0]
        last_key, last_acc = accumulators[-1]
        for key, accumulator in accumulators[1:-1]:
            self._emit(key, accumulator)
            self._interior_groups_emitted += 1
        self._borders[batch.chunk] = _ChunkBorders(
            first_key=first_key,
            first_acc=first_acc,
            last_key=last_key,
            last_acc=last_acc,
            single_group=False,
        )

    def _emit(self, key: Tuple, accumulator: _GroupAccumulator) -> None:
        existing = self._result_accumulators.get(key)
        if existing is None:
            self._result_accumulators[key] = accumulator
        else:
            # The same key can legitimately surface twice when the scanned
            # chunk set has gaps (zone-map plans); merge the partial groups.
            existing.merge(accumulator)

    def _merge_borders(self) -> None:
        """Merge border groups of adjacent chunks and emit everything left."""
        pending_key: Optional[Tuple] = None
        pending_acc: Optional[_GroupAccumulator] = None
        previous_chunk: Optional[int] = None
        for chunk in sorted(self._borders):
            borders = self._borders[chunk]
            adjacent = previous_chunk is not None and chunk == previous_chunk + 1
            if pending_acc is not None:
                if adjacent and pending_key == borders.first_key:
                    borders.first_acc.merge(pending_acc)
                    if borders.single_group:
                        # The whole chunk continues the pending group.
                        pending_acc = borders.first_acc
                        pending_key = borders.first_key
                        previous_chunk = chunk
                        continue
                else:
                    self._emit(pending_key, pending_acc)
            if borders.single_group:
                pending_key = borders.first_key
                pending_acc = borders.first_acc
            else:
                self._emit(borders.first_key, borders.first_acc)
                pending_key = borders.last_key
                pending_acc = borders.last_acc
            previous_chunk = chunk
        if pending_acc is not None:
            self._emit(pending_key, pending_acc)
        self._borders.clear()


def _scalar(value):
    """Convert a numpy scalar to a plain Python value for use in dict keys."""
    return value.item() if hasattr(value, "item") else value
