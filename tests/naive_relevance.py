"""Reference oracle for the relevance bookkeeping: recompute from scratch.

Every relevance aggregate the ABMs serve (interested queries per chunk,
starved and almost-starved interested counts, available chunks per query,
DSM cached pages) is maintained incrementally by the interest trackers in
:mod:`repro.core.interest`.  :class:`NaiveTracker` answers the same
queries with the obvious O(queries x chunks) walks over the ABM's
registered handles and its buffer pool, keeping no state of its own, so it
is correct by inspection.  :func:`use_naive_bookkeeping` swaps it into an
ABM; the golden-trace equivalence tests and the scheduling-overhead
benchmark then compare the two runs' scheduling fingerprints.

This module imports nothing from pytest or ``tests/conftest.py``: the
scheduling-overhead benchmark imports it outside the test suite.
"""

from __future__ import annotations

from typing import List, Set

from repro.core.abm import DSMActiveBufferManager


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

    def cached_pages(self, query_id: int, chunk: int) -> int:
        """DSM only: buffered pages of the query's columns for the chunk."""
        handle = self._abm.handle(query_id)
        return self._abm.pool.chunk_cached_pages(chunk, handle.columns)


def use_naive_bookkeeping(abm):
    """Make ``abm`` answer every relevance query through a :class:`NaiveTracker`.

    Must run before any query registers.  The simulator calls
    ``abm.enable_vector_interest()`` whenever the numpy engine resolves
    (closed sources of 32+ queries), which would silently replace the
    oracle with the vector tracker; shadowing that method on the instance
    pins the oracle for the whole run.  Returns ``abm`` for chaining.
    """
    if abm.active_handles():
        raise ValueError("use_naive_bookkeeping must run before any query registers")
    abm.tracker = NaiveTracker(abm)
    abm.pool.listener = None
    abm.enable_vector_interest = lambda: False
    return abm
