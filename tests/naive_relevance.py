"""Reference oracle for the relevance bookkeeping: recompute from scratch.

Every relevance aggregate the ABMs serve (interested queries per chunk,
starved and almost-starved interested counts, available chunks per query,
unwanted buffered chunks, DSM cached pages) is maintained incrementally by the interest trackers in
:mod:`repro.core.interest`.  :class:`NaiveTracker` answers the same
queries with the obvious O(queries x chunks) walks over the ABM's
registered handles and its buffer pool, keeping no state of its own, so it
is correct by inspection.  :func:`use_naive_bookkeeping` swaps it into an
ABM; the golden-trace equivalence tests and the scheduling-overhead
benchmark then compare the two runs' scheduling fingerprints.
:func:`use_scalar_tracker` and :func:`use_vector_tracker` pin an NSM ABM to
one of the two real trackers, whatever its table size would pick, so the
vector path is compared against the oracle and the scalar path on small
tables too.

This module imports nothing from pytest or ``tests/conftest.py``: the
scheduling-overhead benchmark imports it outside the test suite.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.abm import DSMActiveBufferManager
from repro.core.interest import InterestTracker, VectorInterestTracker


class NaiveTracker:
    """A stateless interest tracker that walks the ABM on every query.

    Lifecycle hooks are no-ops (there is nothing to maintain); the pool
    listener is detached by :func:`use_naive_bookkeeping`.  Registration
    order is the ABM's handle-dict insertion order, exactly the order the
    incremental trackers preserve.
    """

    def __init__(self, abm) -> None:
        self._abm = abm
        self._dsm = isinstance(abm, DSMActiveBufferManager)

    # ------------------------------------------------------------ lifecycle
    def on_register(self, handle) -> None:
        pass

    def on_unregister(self, handle) -> None:
        pass

    def on_chunk_finished(self, handle, chunk: int) -> None:
        pass

    # -------------------------------------------------------------- queries
    def _ready(self, handle, chunk: int) -> bool:
        if self._dsm:
            return self._abm.chunk_ready(handle, chunk)
        return chunk in self._abm.pool

    def available_chunks(self, query_id: int) -> Set[int]:
        handle = self._abm.handle(query_id)
        return {chunk for chunk in handle.needed if self._ready(handle, chunk)}

    def available_count(self, query_id: int) -> int:
        handle = self._abm.handle(query_id)
        return sum(1 for chunk in handle.needed if self._ready(handle, chunk))

    def is_starved(self, query_id: int) -> bool:
        return self.available_count(query_id) < self._abm.starvation_threshold

    def is_almost_starved(self, query_id: int) -> bool:
        return self.available_count(query_id) <= self._abm.almost_starved_threshold

    def interested_ids(self, chunk: int) -> List[int]:
        return [
            query_id
            for query_id, handle in self._abm._handles.items()
            if handle.is_interested(chunk)
        ]

    def interested_count(self, chunk: int) -> int:
        return len(self.interested_ids(chunk))

    def starved_ids_ordered(self) -> List[int]:
        return [query_id for query_id in self._abm._handles if self.is_starved(query_id)]

    def starved_interested_count(self, chunk: int) -> int:
        return sum(1 for query_id in self.interested_ids(chunk) if self.is_starved(query_id))

    def almost_starved_interested_count(self, chunk: int) -> int:
        return sum(
            1 for query_id in self.interested_ids(chunk) if self.is_almost_starved(query_id)
        )

    # ---------------------------------------------------------- DSM only
    def cached_pages(self, query_id: int, chunk: int) -> int:
        """Buffered pages of the query's columns for the chunk."""
        handle = self._abm.handle(query_id)
        return self._abm.pool.chunk_cached_pages(chunk, handle.columns)

    def unrequested_count(self, query_id: int, chunk: int) -> int:
        """The query's blocks of the chunk neither buffered nor in flight."""
        handle = self._abm.handle(query_id)
        return len(self._abm.missing_columns(chunk, handle.columns))

    def ready_times(self, query_id: int) -> Dict[int, float]:
        """Ready chunk -> the newest ``loaded_at`` of the query's blocks."""
        handle = self._abm.handle(query_id)
        pool = self._abm.pool
        return {
            chunk: max(
                (pool.block((chunk, column)).loaded_at for column in handle.columns),
                default=-math.inf,
            )
            for chunk in self.available_chunks(query_id)
        }

    def unwanted_chunks(self) -> Set[int]:
        """Buffered chunks (DSM: chunks with a buffered block) that no
        registered query needs."""
        pool = self._abm.pool
        buffered = pool._by_chunk if self._dsm else pool.buffered_chunks()
        return {chunk for chunk in buffered if not self.interested_ids(chunk)}

    def _interested_handles(self, chunk: int):
        return [self._abm.handle(query_id) for query_id in self.interested_ids(chunk)]

    @staticmethod
    def _union(handles) -> FrozenSet[str]:
        return frozenset(column for handle in handles for column in handle.columns)

    def interested_columns(self, chunk: int) -> FrozenSet[str]:
        """Union of the columns of the chunk's interested queries."""
        return self._union(self._interested_handles(chunk))

    def _overlapping(self, chunk: int, query_id: int):
        wanted = set(self._abm.handle(query_id).columns)
        return [
            handle
            for handle in self._interested_handles(chunk)
            if wanted.intersection(handle.columns)
        ]

    def overlap_count(self, chunk: int, query_id: int) -> int:
        """Interested queries of the chunk sharing a column with the query."""
        return len(self._overlapping(chunk, query_id))

    def starved_overlap(self, chunk: int, query_id: int) -> Tuple[int, FrozenSet[str]]:
        """Starved overlapping queries and the union of their columns."""
        starved = [
            handle
            for handle in self._overlapping(chunk, query_id)
            if self.is_starved(handle.query_id)
        ]
        return len(starved), self._union(starved)

    def almost_starved_interest(self, chunk: int) -> Tuple[int, FrozenSet[str]]:
        """Almost-starved interested queries and the union of their columns."""
        almost = [
            handle
            for handle in self._interested_handles(chunk)
            if self.is_almost_starved(handle.query_id)
        ]
        return len(almost), self._union(almost)


def _swap_tracker(abm, tracker, listener, helper: str, empty_pool: bool = False):
    if abm.active_handles():
        raise ValueError(f"{helper} must run before any query registers")
    if empty_pool and abm.pool.in_use():
        # A tracker learns the unwanted chunks from the pool's load hooks.
        raise ValueError(f"{helper} must run before any chunk loads")
    abm.tracker = tracker
    abm.pool.listener = listener
    return abm


def use_naive_bookkeeping(abm):
    """Make ``abm`` answer every relevance query through a :class:`NaiveTracker`.

    Must run before any query registers.  Returns ``abm`` for chaining.
    """
    return _swap_tracker(abm, NaiveTracker(abm), None, "use_naive_bookkeeping")


def use_scalar_tracker(abm):
    """Pin an NSM ABM to the dict-counter :class:`InterestTracker`.

    Must run before any query registers or chunk loads.  Returns ``abm``
    for chaining.
    """
    tracker = InterestTracker(
        abm.pool, abm.starvation_threshold, abm.almost_starved_threshold
    )
    return _swap_tracker(abm, tracker, tracker, "use_scalar_tracker", empty_pool=True)


def use_vector_tracker(abm):
    """Pin an NSM ABM to the numpy-counter :class:`VectorInterestTracker`.

    Must run before any query registers or chunk loads.  Returns ``abm``
    for chaining.
    """
    tracker = VectorInterestTracker(
        abm.pool,
        abm.starvation_threshold,
        abm.almost_starved_threshold,
        abm.num_chunks,
    )
    return _swap_tracker(abm, tracker, tracker, "use_vector_tracker", empty_pool=True)
