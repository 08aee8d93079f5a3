"""Incrementally-maintained relevance aggregates (the scheduling hot path).

The relevance policies (Figure 3 / Figure 11 of the paper) score chunks by
how many registered queries are interested in them, how many of those
queries are starved, and how much buffered data each query can currently
consume.  Recomputing those quantities from scratch makes every scheduling
decision O(queries x chunks); the paper stresses that cooperative scans are
only viable because scheduling cost stays "negligible compared to I/O".

The trackers in this module maintain the same quantities as O(1)-updated
counters driven by the ABM lifecycle events:

* ``register`` / ``unregister`` — a query's interest in its chunks appears
  and disappears;
* ``finish_chunk`` — the query stops being interested in one chunk;
* ``complete_load`` / eviction — a chunk (NSM) or column block (DSM) enters
  or leaves the buffer pool, changing per-query availability.

Maintained aggregates:

``interested_ids(chunk)`` / ``interested_count(chunk)``
    The registered queries that still need a chunk, in registration order
    (the order a walk over the ABM's registered handles produces).

``available_chunks(qid)`` / ``available_count(qid)``
    The buffered (NSM) or ready (DSM: every needed column buffered) chunks
    each query can consume right now — the bucket the relevance ``use``
    function draws from.

``starved_interested_count(chunk)`` / ``almost_starved_interested_count``
    Per-chunk counts of interested queries that are (almost) starved — the
    two terms of ``loadRelevance`` and ``keepRelevance``.

``starved_ids_ordered()``
    The starved queries in registration order — the candidate list of
    ``chooseQueryToProcess``.

A query's starvation state only changes when its available count crosses the
policy threshold, so the per-chunk starved counters are updated lazily: a
threshold crossing costs O(chunks the query still needs), everything else is
O(interested queries of the touched chunk).  The trackers are exact mirrors
of a from-scratch recomputation: ``tests/naive_relevance.py`` keeps that
recomputation as a reference oracle (a tracker that walks the registered
handles and the pool on every query), and the golden-trace equivalence
tests assert bit-for-bit identical scheduling decisions against it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Set

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.bufman.slots import ChunkSlotPool, DSMBlockPool
    from repro.core.cscan import CScanHandle


class _InterestBase:
    """Interest sets, registration order and starvation counters shared by
    the NSM and DSM trackers; subclasses supply availability maintenance."""

    def __init__(self, starvation_threshold: int, almost_starved_threshold: int) -> None:
        self._starve_below = starvation_threshold
        self._almost_at = almost_starved_threshold
        self._handles: Dict[int, "CScanHandle"] = {}
        #: Registration sequence of each query; ties and orderings everywhere
        #: follow registration order, matching a walk over the ABM's
        #: insertion-ordered handle dict.
        self._seq: Dict[int, int] = {}
        self._next_seq = 0
        #: chunk -> ids of registered queries that still need it.  A query's
        #: interest in a chunk is added exactly once (at registration) and
        #: removed at most once, so an insertion-ordered dict (values unused)
        #: yields registration order for free — no per-read sort.
        self._interest: Dict[int, Dict[int, None]] = {}
        #: qid -> chunks the query could consume right now.
        self._avail: Dict[int, Set[int]] = {}
        self._starved_flag: Dict[int, bool] = {}
        self._almost_flag: Dict[int, bool] = {}
        self._starved_ids: Set[int] = set()
        #: chunk -> number of interested queries currently starved.
        self._starved_interest: Dict[int, int] = {}
        #: chunk -> number of interested queries currently almost starved.
        self._almost_interest: Dict[int, int] = {}

    # ------------------------------------------------------------- queries
    def interested_ids(self, chunk: int) -> List[int]:
        """Interested query ids in registration order."""
        ids = self._interest.get(chunk)
        if not ids:
            return []
        return list(ids)

    def interested_count(self, chunk: int) -> int:
        """Number of registered queries that still need the chunk."""
        ids = self._interest.get(chunk)
        return len(ids) if ids else 0

    def available_chunks(self, query_id: int) -> Set[int]:
        """The query's currently consumable chunks (do not mutate)."""
        return self._avail[query_id]

    def available_count(self, query_id: int) -> int:
        """Number of currently consumable chunks of the query."""
        return len(self._avail[query_id])

    def starved_ids_ordered(self) -> List[int]:
        """Ids of the starved queries, in registration order."""
        return sorted(self._starved_ids, key=self._seq.__getitem__)

    def starved_interested_count(self, chunk: int) -> int:
        """Interested queries of the chunk that are currently starved."""
        return self._starved_interest.get(chunk, 0)

    def almost_starved_interested_count(self, chunk: int) -> int:
        """Interested queries of the chunk that are almost starved."""
        return self._almost_interest.get(chunk, 0)

    # ----------------------------------------------------------- lifecycle
    def _register_common(self, handle: "CScanHandle", available: Set[int]) -> None:
        qid = handle.query_id
        self._handles[qid] = handle
        self._seq[qid] = self._next_seq
        self._next_seq += 1
        self._avail[qid] = available
        starved = len(available) < self._starve_below
        almost = len(available) <= self._almost_at
        self._starved_flag[qid] = starved
        self._almost_flag[qid] = almost
        if starved:
            self._starved_ids.add(qid)
        for chunk in handle.needed:
            self._interest.setdefault(chunk, {})[qid] = None
            if starved:
                self._bump(self._starved_interest, chunk, 1)
            if almost:
                self._bump(self._almost_interest, chunk, 1)

    def on_unregister(self, handle: "CScanHandle") -> None:
        """The query left the ABM; drop its remaining interest and state."""
        qid = handle.query_id
        for chunk in list(handle.needed):
            self._drop_interest(qid, chunk)
        del self._handles[qid]
        del self._seq[qid]
        del self._avail[qid]
        del self._starved_flag[qid]
        del self._almost_flag[qid]
        self._starved_ids.discard(qid)

    def on_chunk_finished(self, handle: "CScanHandle", chunk: int) -> None:
        """The query finished consuming ``chunk`` (already left ``needed``)."""
        qid = handle.query_id
        self._drop_interest(qid, chunk)
        self._avail[qid].discard(chunk)
        self._refresh_flags(handle)

    # ------------------------------------------------------------ internals
    @staticmethod
    def _bump(counter: Dict[int, int], chunk: int, delta: int) -> None:
        value = counter.get(chunk, 0) + delta
        if value:
            counter[chunk] = value
        else:
            counter.pop(chunk, None)

    def _drop_interest(self, qid: int, chunk: int) -> None:
        ids = self._interest.get(chunk)
        if ids is not None:
            ids.pop(qid, None)
            if not ids:
                del self._interest[chunk]
        if self._starved_flag[qid]:
            self._bump(self._starved_interest, chunk, -1)
        if self._almost_flag[qid]:
            self._bump(self._almost_interest, chunk, -1)

    def _refresh_flags(self, handle: "CScanHandle") -> None:
        """Re-derive the query's starvation flags after an availability
        change, propagating threshold crossings to the per-chunk counters."""
        qid = handle.query_id
        count = len(self._avail[qid])
        starved = count < self._starve_below
        if starved != self._starved_flag[qid]:
            self._starved_flag[qid] = starved
            if starved:
                self._starved_ids.add(qid)
            else:
                self._starved_ids.discard(qid)
            delta = 1 if starved else -1
            for chunk in handle.needed:
                self._bump(self._starved_interest, chunk, delta)
        almost = count <= self._almost_at
        if almost != self._almost_flag[qid]:
            self._almost_flag[qid] = almost
            delta = 1 if almost else -1
            for chunk in handle.needed:
                self._bump(self._almost_interest, chunk, delta)


class InterestTracker(_InterestBase):
    """Incremental aggregates for the NSM (row-store) buffer manager.

    Availability of a chunk for a query simply means the chunk is buffered,
    so availability updates are driven by chunk loads and evictions.
    """

    def __init__(
        self,
        pool: "ChunkSlotPool",
        starvation_threshold: int,
        almost_starved_threshold: int,
    ) -> None:
        super().__init__(starvation_threshold, almost_starved_threshold)
        self._pool = pool

    def on_register(self, handle: "CScanHandle") -> None:
        """Index a newly registered scan against the current pool contents."""
        available = {chunk for chunk in handle.needed if chunk in self._pool}
        self._register_common(handle, available)

    def on_chunk_loaded(self, chunk: int) -> None:
        """A chunk finished loading: it becomes available to every
        interested query."""
        for qid in self._interest.get(chunk, ()):
            self._avail[qid].add(chunk)
            self._refresh_flags(self._handles[qid])

    def on_chunk_evicted(self, chunk: int) -> None:
        """A chunk was evicted: it stops being available."""
        for qid in self._interest.get(chunk, ()):
            self._avail[qid].discard(chunk)
            self._refresh_flags(self._handles[qid])


class DSMInterestTracker(_InterestBase):
    """Incremental aggregates for the DSM (column-store) buffer manager.

    A chunk is available ("ready") for a query when *all* the column blocks
    the query reads are buffered, so the tracker keeps, per (query, needed
    chunk), the number of still-missing columns plus the buffered pages of
    the query's columns (the ``useRelevance`` numerator and the "avoid data
    waste" reservation criterion).
    """

    def __init__(
        self,
        pool: "DSMBlockPool",
        starvation_threshold: int,
        almost_starved_threshold: int,
    ) -> None:
        super().__init__(starvation_threshold, almost_starved_threshold)
        self._pool = pool
        #: qid -> frozenset of the query's columns (fast membership tests).
        self._colsets: Dict[int, FrozenSet[str]] = {}
        #: qid -> chunk -> number of the query's columns not yet buffered.
        self._missing: Dict[int, Dict[int, int]] = {}
        #: qid -> chunk -> buffered pages among the query's columns.
        self._cached: Dict[int, Dict[int, int]] = {}

    def on_register(self, handle: "CScanHandle") -> None:
        """Index a newly registered scan against the current pool contents."""
        qid = handle.query_id
        pool = self._pool
        columns = handle.columns
        missing: Dict[int, int] = {}
        cached: Dict[int, int] = {}
        available: Set[int] = set()
        for chunk in handle.needed:
            absent = 0
            pages = 0
            for column in columns:
                if pool.has_block(chunk, column):
                    pages += pool.block((chunk, column)).pages
                else:
                    absent += 1
            missing[chunk] = absent
            cached[chunk] = pages
            if absent == 0:
                available.add(chunk)
        self._colsets[qid] = frozenset(columns)
        self._missing[qid] = missing
        self._cached[qid] = cached
        self._register_common(handle, available)

    def on_unregister(self, handle: "CScanHandle") -> None:
        qid = handle.query_id
        super().on_unregister(handle)
        del self._colsets[qid]
        del self._missing[qid]
        del self._cached[qid]

    def on_chunk_finished(self, handle: "CScanHandle", chunk: int) -> None:
        qid = handle.query_id
        self._missing[qid].pop(chunk, None)
        self._cached[qid].pop(chunk, None)
        super().on_chunk_finished(handle, chunk)

    def on_block_loaded(self, chunk: int, column: str, pages: int) -> None:
        """A column block finished loading: interested queries reading the
        column have one less missing column for the chunk."""
        for qid in self._interest.get(chunk, ()):
            if column not in self._colsets[qid]:
                continue
            remaining = self._missing[qid][chunk] - 1
            self._missing[qid][chunk] = remaining
            self._cached[qid][chunk] += pages
            if remaining == 0:
                self._avail[qid].add(chunk)
                self._refresh_flags(self._handles[qid])

    def on_block_evicted(self, chunk: int, column: str, pages: int) -> None:
        """A column block was evicted: the chunk stops being ready for any
        interested query reading the column."""
        for qid in self._interest.get(chunk, ()):
            if column not in self._colsets[qid]:
                continue
            was_ready = self._missing[qid][chunk] == 0
            self._missing[qid][chunk] += 1
            self._cached[qid][chunk] -= pages
            if was_ready:
                self._avail[qid].discard(chunk)
                self._refresh_flags(self._handles[qid])

    def cached_pages(self, query_id: int, chunk: int) -> int:
        """Buffered pages of the query's columns for a needed chunk."""
        return self._cached[query_id][chunk]


class VectorInterestTracker(InterestTracker):
    """Numpy-backed variant of the NSM :class:`InterestTracker`.

    The scalar tracker keeps the per-chunk aggregates in dicts and applies a
    threshold crossing as a Python loop over the query's remaining chunks
    (:meth:`_InterestBase._refresh_flags`).  This variant stores the same
    aggregates as dense ``int64`` arrays indexed by chunk id and applies
    each crossing as one fancy-indexed batch add — O(needed) in C instead
    of O(needed) dict operations — while leaving every set/dict structure
    the rest of the tracker relies on (registration order, availability
    sets, the per-chunk interested-id dicts) untouched.  The arrays are an
    exact mirror: every read answers bit-for-bit what the dict counters
    would, which the scheduling-equivalence tests pin against the oracle.

    It also keeps each query's remaining chunks as a boolean mask over
    chunk ids, flipped incrementally as chunks are consumed — the mask
    always equals ``handle.needed`` (``needed.discard`` precedes the
    tracker's ``_drop_interest`` call) — plus two masks over the chunk
    space, buffered and loading, fed by the pool's listener hooks.  With
    them the relevance policy scores candidates by pure mask arithmetic,
    with no per-call set conversion and no pool probes.
    """

    def __init__(
        self,
        pool: "ChunkSlotPool",
        starvation_threshold: int,
        almost_starved_threshold: int,
        num_chunks: int,
    ) -> None:
        super().__init__(pool, starvation_threshold, almost_starved_threshold)
        self._num_chunks = num_chunks
        self._interest_arr = _np.zeros(num_chunks, dtype=_np.int64)
        self._starved_arr = _np.zeros(num_chunks, dtype=_np.int64)
        self._almost_arr = _np.zeros(num_chunks, dtype=_np.int64)
        self._needed_masks: Dict[int, "_np.ndarray"] = {}
        self._buffered_mask = _np.zeros(num_chunks, dtype=bool)
        self._loading_mask = _np.zeros(num_chunks, dtype=bool)
        for chunk in pool.buffered_chunks():
            self._buffered_mask[chunk] = True
        for chunk in pool.loading_chunks():
            self._loading_mask[chunk] = True

    # ---------------------------------------------------------- vector reads
    @property
    def interest_values(self) -> "_np.ndarray":
        """Per-chunk interested-query counts (do not mutate)."""
        return self._interest_arr

    @property
    def starved_values(self) -> "_np.ndarray":
        """Per-chunk starved interested-query counts (do not mutate)."""
        return self._starved_arr

    @property
    def almost_values(self) -> "_np.ndarray":
        """Per-chunk almost-starved interested-query counts (do not mutate)."""
        return self._almost_arr

    def needed_mask(self, query_id: int) -> "_np.ndarray":
        """Boolean mask of the query's remaining chunks (do not mutate).

        Always equal to ``handle.needed``: built at registration, one bit
        cleared per consumed chunk.
        """
        return self._needed_masks[query_id]

    @property
    def unloadable_mask(self) -> "_np.ndarray":
        """Chunks that must not be loaded: buffered or already in flight."""
        return self._buffered_mask | self._loading_mask

    @property
    def buffered_mask(self) -> "_np.ndarray":
        """Boolean mask of fully-loaded chunks (mirrors pool membership)."""
        return self._buffered_mask

    # ------------------------------------------------------ counter overrides
    def starved_interested_count(self, chunk: int) -> int:
        return int(self._starved_arr[chunk])

    def almost_starved_interested_count(self, chunk: int) -> int:
        return int(self._almost_arr[chunk])

    def _register_common(self, handle: "CScanHandle", available: Set[int]) -> None:
        qid = handle.query_id
        self._handles[qid] = handle
        self._seq[qid] = self._next_seq
        self._next_seq += 1
        self._avail[qid] = available
        starved = len(available) < self._starve_below
        almost = len(available) <= self._almost_at
        self._starved_flag[qid] = starved
        self._almost_flag[qid] = almost
        if starved:
            self._starved_ids.add(qid)
        interest = self._interest
        for chunk in handle.needed:
            interest.setdefault(chunk, {})[qid] = None
        needed = _np.fromiter(
            handle.needed, dtype=_np.int64, count=len(handle.needed)
        )
        mask = _np.zeros(self._num_chunks, dtype=bool)
        mask[needed] = True
        self._needed_masks[qid] = mask
        self._interest_arr[needed] += 1
        if starved:
            self._starved_arr[needed] += 1
        if almost:
            self._almost_arr[needed] += 1

    def on_unregister(self, handle: "CScanHandle") -> None:
        super().on_unregister(handle)
        self._needed_masks.pop(handle.query_id, None)

    def _drop_interest(self, qid: int, chunk: int) -> None:
        ids = self._interest.get(chunk)
        if ids is not None:
            ids.pop(qid, None)
            if not ids:
                del self._interest[chunk]
        self._needed_masks[qid][chunk] = False
        self._interest_arr[chunk] -= 1
        if self._starved_flag[qid]:
            self._starved_arr[chunk] -= 1
        if self._almost_flag[qid]:
            self._almost_arr[chunk] -= 1

    def _refresh_flags(self, handle: "CScanHandle") -> None:
        qid = handle.query_id
        count = len(self._avail[qid])
        starved = count < self._starve_below
        almost = count <= self._almost_at
        if starved == self._starved_flag[qid] and almost == self._almost_flag[qid]:
            return
        needed = self._needed_masks[qid]
        if starved != self._starved_flag[qid]:
            self._starved_flag[qid] = starved
            if starved:
                self._starved_ids.add(qid)
                self._starved_arr[needed] += 1
            else:
                self._starved_ids.discard(qid)
                self._starved_arr[needed] -= 1
        if almost != self._almost_flag[qid]:
            self._almost_flag[qid] = almost
            if almost:
                self._almost_arr[needed] += 1
            else:
                self._almost_arr[needed] -= 1

    # ------------------------------------------------------------ pool hooks
    def on_chunk_loaded(self, chunk: int) -> None:
        self._buffered_mask[chunk] = True
        self._loading_mask[chunk] = False
        super().on_chunk_loaded(chunk)

    def on_chunk_evicted(self, chunk: int) -> None:
        self._buffered_mask[chunk] = False
        super().on_chunk_evicted(chunk)

    def on_load_started(self, chunk: int) -> None:
        self._loading_mask[chunk] = True
