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
  or leaves the buffer pool, changing per-query availability;
* ``start_load`` — a chunk (vector NSM tracker) or column block (DSM) goes
  in flight.

Maintained aggregates:

``interested_ids(chunk)`` / ``interested_count(chunk)``
    The registered queries that still need a chunk, in registration order
    (the order a walk over the ABM's registered handles produces).

``available_chunks(qid)`` / ``available_count(qid)``
    The buffered (NSM) or ready (DSM: every needed column buffered) chunks
    each query can consume right now — the bucket the relevance ``use``
    function draws from.

``starved_interested_count(chunk)`` / ``almost_starved_interested_count``
    NSM only: per-chunk counts of interested queries that are (almost)
    starved — the two terms of ``loadRelevance`` and ``keepRelevance``.

``starved_ids_ordered()``
    The starved queries in registration order — the candidate list of
    ``chooseQueryToProcess``.

``unwanted_chunks()``
    Buffered chunks (DSM: chunks with a buffered block) that no registered
    query needs, the elevator's only eviction candidates while a scan can
    progress: changed when a chunk's last interested query leaves it, when
    a query registers for it, and when it loads (DSM: its first block) or
    is evicted (DSM: its last block).  The set follows the pool's hooks
    from its first load on, so a tracker must listen to an empty pool (the
    ABMs create both together).

DSM only (:class:`DSMInterestTracker`), for the per-column questions of
Figure 11 and Section 6.2:

``overlap_count(chunk, qid)`` / ``starved_overlap(chunk, qid)``
    Interested (starved) queries of a chunk sharing a column with a query,
    and the union of the starved ones' columns — ``useRelevance``'s and
    ``loadRelevance``'s overlap and the columns a load fetches.  Kept as
    per-chunk counts of interested queries by column set, split by
    starved and almost starved: changed at register, unregister and
    ``finish_chunk``, and on every chunk a query still needs when it
    crosses a starvation threshold.

``interested_columns(chunk)`` / ``almost_starved_interest(chunk)``
    The union of the columns of the interested queries (the useful columns
    of eviction step 1, the elevator's load), and the almost-starved
    queries with their columns (``keepRelevance``); from the same counts.

``cached_pages(qid, chunk)`` / ``unrequested_count(qid, chunk)``
    Per (query, needed chunk): buffered pages of the query's columns, and
    its blocks neither buffered nor in flight (whether a load for it
    would fetch anything).  Changed by the pool's start-load, load and
    eviction hooks for the interested queries reading the column.

``ready_times(qid)``
    When each ready chunk became ready, for the elevator's delivery order:
    set by the load that completes the chunk for the query, dropped by an
    eviction that breaks it.

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

import math
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.bufman.slots import ChunkSlotPool, DSMBlockPool
    from repro.core.cscan import CScanHandle


_NO_COLUMNS: FrozenSet[str] = frozenset()
_NO_SETS: Mapping[FrozenSet[str], List[int]] = MappingProxyType({})


class _InterestBase:
    """Interest sets, registration order and starvation flags shared by the
    NSM and DSM trackers; subclasses supply availability maintenance and
    the per-chunk counters the flags feed."""

    #: Ids whose starved flag flipped since the owner last took them
    #: (:meth:`take_starved_flips`).  The ABM installs a set here only
    #: while a flight recorder is attached; ``None`` notes nothing.
    starved_flips: Optional[Set[int]] = None

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
        #: Buffered chunks no registered query needs.
        self._unwanted: Set[int] = set()

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

    def unwanted_chunks(self) -> Set[int]:
        """Buffered chunks (DSM: chunks with a buffered block) that no
        registered query needs (do not mutate)."""
        return self._unwanted

    def take_starved_flips(self) -> List[int]:
        """The still-registered ids of :attr:`starved_flips`, in
        registration order; empties the set."""
        flipped = self.starved_flips
        if not flipped:
            return []
        seq = self._seq
        ids = sorted((qid for qid in flipped if qid in seq), key=seq.__getitem__)
        flipped.clear()
        return ids

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
        self._index_interest(handle, starved, almost)

    def _index_interest(self, handle: "CScanHandle", starved: bool, almost: bool) -> None:
        """Add a new query's interest in each of its chunks to ``_interest``
        and to the subclass's per-chunk counters."""
        raise NotImplementedError

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
    def _drop_interest(self, qid: int, chunk: int) -> None:
        """Remove one query's interest in one chunk from ``_interest`` and
        from the subclass's per-chunk counters."""
        raise NotImplementedError

    def _refresh_flags(self, handle: "CScanHandle") -> None:
        """Re-derive the query's starvation flags after an availability
        change, propagating threshold crossings to the per-chunk counters."""
        qid = handle.query_id
        count = len(self._avail[qid])
        starved = count < self._starve_below
        almost = count <= self._almost_at
        if starved == self._starved_flag[qid] and almost == self._almost_flag[qid]:
            return
        starved_delta = starved - self._starved_flag[qid]
        almost_delta = almost - self._almost_flag[qid]
        if starved_delta:
            self._starved_flag[qid] = starved
            if starved:
                self._starved_ids.add(qid)
            else:
                self._starved_ids.discard(qid)
            if self.starved_flips is not None:
                self.starved_flips.add(qid)
        if almost_delta:
            self._almost_flag[qid] = almost
        self._shift_counts(handle, starved_delta, almost_delta)

    def _shift_counts(
        self, handle: "CScanHandle", starved_delta: int, almost_delta: int
    ) -> None:
        """Apply a query's starvation flag flips (each delta is -1, 0 or 1)
        to the per-chunk counters of every chunk it still needs."""
        raise NotImplementedError


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
        #: chunk -> number of interested queries currently starved.
        self._starved_interest: Dict[int, int] = {}
        #: chunk -> number of interested queries currently almost starved.
        self._almost_interest: Dict[int, int] = {}

    def starved_interested_count(self, chunk: int) -> int:
        """Interested queries of the chunk that are currently starved."""
        return self._starved_interest.get(chunk, 0)

    def almost_starved_interested_count(self, chunk: int) -> int:
        """Interested queries of the chunk that are almost starved."""
        return self._almost_interest.get(chunk, 0)

    def on_register(self, handle: "CScanHandle") -> None:
        """Index a newly registered scan against the current pool contents."""
        available = {chunk for chunk in handle.needed if chunk in self._pool}
        self._register_common(handle, available)

    def on_chunk_loaded(self, chunk: int) -> None:
        """A chunk finished loading: it becomes available to every
        interested query, or unwanted when there is none."""
        ids = self._interest.get(chunk)
        if ids is None:
            self._unwanted.add(chunk)
            return
        for qid in ids:
            self._avail[qid].add(chunk)
        self._refresh_crossed(ids)

    def on_chunk_evicted(self, chunk: int) -> None:
        """A chunk was evicted: it stops being available (or unwanted)."""
        ids = self._interest.get(chunk)
        if ids is None:
            self._unwanted.discard(chunk)
            return
        for qid in ids:
            self._avail[qid].discard(chunk)
        self._refresh_crossed(ids)

    def _refresh_crossed(self, ids: Mapping[int, None]) -> None:
        """:meth:`_refresh_flags` for those of the queries whose available
        count crossed a threshold; the flags of the others still hold."""
        avail = self._avail
        starved_flag = self._starved_flag
        almost_flag = self._almost_flag
        starve_below = self._starve_below
        almost_at = self._almost_at
        for qid in ids:
            count = len(avail[qid])
            if (count < starve_below) != starved_flag[qid] or (
                count <= almost_at
            ) != almost_flag[qid]:
                self._refresh_flags(self._handles[qid])

    # ------------------------------------------------------------ internals
    def _index_interest(self, handle: "CScanHandle", starved: bool, almost: bool) -> None:
        self._index_interested_ids(handle)
        if starved:
            for chunk in handle.needed:
                self._bump(self._starved_interest, chunk, 1)
        if almost:
            for chunk in handle.needed:
                self._bump(self._almost_interest, chunk, 1)

    def _index_interested_ids(self, handle: "CScanHandle") -> None:
        """Add the query to the interested ids of each chunk it needs; a
        chunk that gains its first interested query stops being unwanted."""
        qid = handle.query_id
        interest = self._interest
        unwanted = self._unwanted
        for chunk in handle.needed:
            ids = interest.get(chunk)
            if ids is None:
                interest[chunk] = {qid: None}
                unwanted.discard(chunk)
            else:
                ids[qid] = None

    @staticmethod
    def _bump(counter: Dict[int, int], chunk: int, delta: int) -> None:
        value = counter.get(chunk, 0) + delta
        if value:
            counter[chunk] = value
        else:
            counter.pop(chunk, None)

    def _drop_interest(self, qid: int, chunk: int) -> None:
        self._drop_interested_id(qid, chunk)
        if self._starved_flag[qid]:
            self._bump(self._starved_interest, chunk, -1)
        if self._almost_flag[qid]:
            self._bump(self._almost_interest, chunk, -1)

    def _drop_interested_id(self, qid: int, chunk: int) -> None:
        """Remove the query from the chunk's interested ids; the chunk
        becomes unwanted when it is buffered and that was the last one."""
        ids = self._interest.get(chunk)
        if ids is not None:
            ids.pop(qid, None)
            if not ids:
                del self._interest[chunk]
                if chunk in self._pool:
                    self._unwanted.add(chunk)

    def _shift_counts(
        self, handle: "CScanHandle", starved_delta: int, almost_delta: int
    ) -> None:
        if starved_delta:
            for chunk in handle.needed:
                self._bump(self._starved_interest, chunk, starved_delta)
        if almost_delta:
            for chunk in handle.needed:
                self._bump(self._almost_interest, chunk, almost_delta)


class DSMInterestTracker(_InterestBase):
    """Incremental aggregates for the DSM (column-store) buffer manager.

    A chunk is available ("ready") for a query when *all* the column blocks
    the query reads are buffered.  Per (query, needed chunk) the tracker
    keeps:

    * the number of the query's columns not buffered (readiness);
    * the number of them neither buffered nor in flight (whether a load
      for the query would fetch anything);
    * the buffered pages of the query's columns (the ``useRelevance``
      numerator and the "avoid data waste" reservation criterion);
    * for a ready chunk, the time it became ready: the ``loaded_at`` of the
      block that completed it, which is the newest of its blocks because
      loads complete in clock order.

    Per chunk it keeps the column sets of the interested queries, each with
    how many interested queries read exactly that set and how many of those
    are starved and almost starved.  Queries of one workload share few
    distinct column sets, so the Figure 11 questions -- how many interested
    (or starved) queries share a column with a query, the union of their
    columns, the almost-starved queries and their columns -- cost a pass
    over a handful of sets instead of one over the interested queries.
    They are the DSM tracker's per-chunk starvation counters.

    Its unwanted chunks (:meth:`_InterestBase.unwanted_chunks`) are the
    chunks that have a buffered block but no interested query.
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
        #: qid -> chunk -> number of the query's columns neither buffered
        #: nor in flight.
        self._unrequested: Dict[int, Dict[int, int]] = {}
        #: qid -> chunk -> buffered pages among the query's columns.
        self._cached: Dict[int, Dict[int, int]] = {}
        #: qid -> ready chunk -> time it became ready (keys: ``_avail[qid]``).
        self._ready_at: Dict[int, Dict[int, float]] = {}
        #: chunk -> column set -> [interested, starved, almost starved]
        #: counts of the interested queries reading exactly that set.
        self._column_sets: Dict[int, Dict[FrozenSet[str], List[int]]] = {}
        #: chunk -> union of the column sets of its interested queries.
        self._union: Dict[int, FrozenSet[str]] = {}

    # ------------------------------------------------------------- queries
    def cached_pages(self, query_id: int, chunk: int) -> int:
        """Buffered pages of the query's columns for a needed chunk."""
        return self._cached[query_id][chunk]

    def unrequested_count(self, query_id: int, chunk: int) -> int:
        """Blocks of the query's columns for a needed chunk that are neither
        buffered nor in flight."""
        return self._unrequested[query_id][chunk]

    def ready_times(self, query_id: int) -> Dict[int, float]:
        """Ready chunk -> time it became ready, for the query's available
        chunks (do not mutate)."""
        return self._ready_at[query_id]

    def interested_columns(self, chunk: int) -> FrozenSet[str]:
        """Union of the columns of the chunk's interested queries."""
        return self._union.get(chunk, _NO_COLUMNS)

    def overlap_count(self, chunk: int, query_id: int) -> int:
        """Interested queries of the chunk sharing a column with the query
        (Figure 11's overlap; the query itself counts when interested)."""
        own = self._colsets[query_id]
        return sum(
            entry[0]
            for colset, entry in self._column_sets.get(chunk, _NO_SETS).items()
            if not own.isdisjoint(colset)
        )

    def starved_overlap(self, chunk: int, query_id: int) -> Tuple[int, FrozenSet[str]]:
        """Starved interested queries of the chunk sharing a column with the
        query, and the union of their columns."""
        own = self._colsets[query_id]
        count = 0
        columns = _NO_COLUMNS
        for colset, entry in self._column_sets.get(chunk, _NO_SETS).items():
            if entry[1] and not own.isdisjoint(colset):
                count += entry[1]
                columns = columns | colset
        return count, columns

    def almost_starved_interest(self, chunk: int) -> Tuple[int, FrozenSet[str]]:
        """Almost-starved interested queries of the chunk, and the union of
        their columns."""
        count = 0
        columns = _NO_COLUMNS
        for colset, entry in self._column_sets.get(chunk, _NO_SETS).items():
            if entry[2]:
                count += entry[2]
                columns = columns | colset
        return count, columns

    # ----------------------------------------------------------- lifecycle
    def on_register(self, handle: "CScanHandle") -> None:
        """Index a newly registered scan against the current pool contents."""
        qid = handle.query_id
        pool = self._pool
        columns = handle.columns
        missing: Dict[int, int] = {}
        unrequested: Dict[int, int] = {}
        cached: Dict[int, int] = {}
        ready_at: Dict[int, float] = {}
        for chunk in handle.needed:
            absent = 0
            unasked = 0
            pages = 0
            newest = -math.inf
            for column in columns:
                if pool.has_block(chunk, column):
                    block = pool.block((chunk, column))
                    pages += block.pages
                    if block.loaded_at > newest:
                        newest = block.loaded_at
                else:
                    absent += 1
                    if not pool.is_loading((chunk, column)):
                        unasked += 1
            missing[chunk] = absent
            unrequested[chunk] = unasked
            cached[chunk] = pages
            if absent == 0:
                ready_at[chunk] = newest
        self._colsets[qid] = frozenset(columns)
        self._missing[qid] = missing
        self._unrequested[qid] = unrequested
        self._cached[qid] = cached
        self._ready_at[qid] = ready_at
        self._register_common(handle, set(ready_at))

    def on_unregister(self, handle: "CScanHandle") -> None:
        qid = handle.query_id
        super().on_unregister(handle)
        del self._colsets[qid]
        del self._missing[qid]
        del self._unrequested[qid]
        del self._cached[qid]
        del self._ready_at[qid]

    def on_chunk_finished(self, handle: "CScanHandle", chunk: int) -> None:
        qid = handle.query_id
        del self._missing[qid][chunk]
        del self._unrequested[qid][chunk]
        del self._cached[qid][chunk]
        self._ready_at[qid].pop(chunk, None)
        super().on_chunk_finished(handle, chunk)

    # ------------------------------------------------------------ pool hooks
    def on_block_load_started(self, chunk: int, column: str) -> None:
        """A column block load was issued: interested queries reading the
        column have one less unrequested block for the chunk."""
        for qid in self._interest.get(chunk, ()):
            if column in self._colsets[qid]:
                self._unrequested[qid][chunk] -= 1

    def on_block_loaded(self, chunk: int, column: str, pages: int) -> None:
        """A column block finished loading: interested queries reading the
        column have one less missing column for the chunk."""
        ids = self._interest.get(chunk)
        if ids is None:
            self._unwanted.add(chunk)
            return
        loaded_at = None
        for qid in ids:
            if column not in self._colsets[qid]:
                continue
            remaining = self._missing[qid][chunk] - 1
            self._missing[qid][chunk] = remaining
            self._cached[qid][chunk] += pages
            if remaining == 0:
                if loaded_at is None:
                    loaded_at = self._pool.block((chunk, column)).loaded_at
                self._ready_at[qid][chunk] = loaded_at
                self._avail[qid].add(chunk)
                self._refresh_flags(self._handles[qid])

    def on_block_evicted(self, chunk: int, column: str, pages: int) -> None:
        """A column block was evicted: the chunk stops being ready for any
        interested query reading the column."""
        ids = self._interest.get(chunk)
        if ids is None:
            if not self._pool.holds_chunk(chunk):
                self._unwanted.discard(chunk)
            return
        for qid in ids:
            if column not in self._colsets[qid]:
                continue
            was_ready = self._missing[qid][chunk] == 0
            self._missing[qid][chunk] += 1
            self._unrequested[qid][chunk] += 1
            self._cached[qid][chunk] -= pages
            if was_ready:
                del self._ready_at[qid][chunk]
                self._avail[qid].discard(chunk)
                self._refresh_flags(self._handles[qid])

    # ------------------------------------------------------------ internals
    def _index_interest(self, handle: "CScanHandle", starved: bool, almost: bool) -> None:
        qid = handle.query_id
        colset = self._colsets[qid]
        interest = self._interest
        column_sets = self._column_sets
        union = self._union
        for chunk in handle.needed:
            ids = interest.get(chunk)
            if ids is None:
                interest[chunk] = {qid: None}
                column_sets[chunk] = {colset: [1, +starved, +almost]}
                union[chunk] = colset
                self._unwanted.discard(chunk)
                continue
            ids[qid] = None
            entry = column_sets[chunk].get(colset)
            if entry is None:
                column_sets[chunk][colset] = [1, +starved, +almost]
                union[chunk] = union[chunk] | colset
            else:
                entry[0] += 1
                entry[1] += starved
                entry[2] += almost

    def _drop_interest(self, qid: int, chunk: int) -> None:
        ids = self._interest[chunk]
        del ids[qid]
        per_chunk = self._column_sets[chunk]
        colset = self._colsets[qid]
        entry = per_chunk[colset]
        if entry[0] > 1:
            entry[0] -= 1
            entry[1] -= self._starved_flag[qid]
            entry[2] -= self._almost_flag[qid]
            return
        del per_chunk[colset]
        if ids:
            self._union[chunk] = _NO_COLUMNS.union(*per_chunk)
            return
        del self._interest[chunk]
        del self._column_sets[chunk]
        del self._union[chunk]
        if self._pool.holds_chunk(chunk):
            self._unwanted.add(chunk)

    def _shift_counts(
        self, handle: "CScanHandle", starved_delta: int, almost_delta: int
    ) -> None:
        colset = self._colsets[handle.query_id]
        column_sets = self._column_sets
        for chunk in handle.needed:
            entry = column_sets[chunk][colset]
            entry[1] += starved_delta
            entry[2] += almost_delta


class VectorInterestTracker(InterestTracker):
    """Numpy-backed variant of the NSM :class:`InterestTracker`.

    The scalar tracker keeps the per-chunk aggregates in dicts and applies a
    threshold crossing as a Python loop over the query's remaining chunks
    (:meth:`InterestTracker._shift_counts`).  This variant stores the same
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

    def _index_interest(self, handle: "CScanHandle", starved: bool, almost: bool) -> None:
        qid = handle.query_id
        self._index_interested_ids(handle)
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
        self._drop_interested_id(qid, chunk)
        self._needed_masks[qid][chunk] = False
        self._interest_arr[chunk] -= 1
        if self._starved_flag[qid]:
            self._starved_arr[chunk] -= 1
        if self._almost_flag[qid]:
            self._almost_arr[chunk] -= 1

    def _shift_counts(
        self, handle: "CScanHandle", starved_delta: int, almost_delta: int
    ) -> None:
        needed = self._needed_masks[handle.query_id]
        if starved_delta:
            self._starved_arr[needed] += starved_delta
        if almost_delta:
            self._almost_arr[needed] += almost_delta

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
