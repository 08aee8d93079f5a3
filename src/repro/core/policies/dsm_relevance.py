"""The *relevance* policy for DSM (column) storage (Figure 11).

The structure follows the NSM relevance policy but every relevance function
becomes column- and size-aware, and three DSM-specific mechanisms are added
(Section 6.2):

* **avoiding data waste** — when a query is about to block, the chunk it will
  most likely consume next is *reserved* so its already-loaded column blocks
  are not evicted in the meantime;
* **finding space for a chunk** — eviction is iterative: first column blocks
  that no interested query needs are dropped, then whole chunks are
  victimised in increasing ``keepRelevance = E / Pe`` order until enough
  pages are free;
* **column loading order** — the ABM orders the column blocks of a load by
  increasing size (implemented in
  :meth:`repro.core.abm.DSMActiveBufferManager.next_load`).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.bufman.slots import BlockKey
from repro.core.cscan import CScanHandle
from repro.core.policies.base import DSMSchedulingPolicy
from repro.core.policies.relevance import RelevanceParameters


class DSMRelevancePolicy(DSMSchedulingPolicy):
    """Relevance-driven chunk/column scheduling for DSM storage."""

    name = "relevance"

    def __init__(self, parameters: RelevanceParameters | None = None) -> None:
        super().__init__()
        self.parameters = parameters or RelevanceParameters()
        #: Chunk currently reserved on behalf of each blocked query
        #: (the "avoid data waste" rule).
        self._reservations: Dict[int, int] = {}

    def bind(self, abm) -> None:
        super().bind(abm)
        self._reservations = {}

    # -------------------------------------------------------- starvation
    def query_starved(self, handle: CScanHandle) -> bool:
        """``queryStarved``: fewer ready chunks than the starvation threshold."""
        return (
            self.abm.num_available_chunks(handle) < self.parameters.starvation_threshold
        )

    def query_relevance(self, handle: CScanHandle, now: float) -> float:
        """Same shape as the NSM ``queryRelevance`` (Figure 3), including
        the per-class starvation weights and priority boosts (neutral for
        classes absent from the parameter tables)."""
        if not self.query_starved(handle):
            return -math.inf
        parameters = self.parameters
        score = 0.0
        if parameters.prioritise_short_queries:
            score -= handle.chunks_needed
        if parameters.age_by_waiting_time:
            ageing = handle.waiting_time(now) / max(1, self.abm.num_active())
            weight = parameters.starvation_weight_of(handle.query_class)
            if weight != 1.0:
                ageing *= weight
            score += ageing
        boost = parameters.priority_of(handle.query_class)
        if boost != 0.0:
            score += boost
        return score

    # ------------------------------------------------- relevance functions
    def use_relevance(self, chunk: int, handle: CScanHandle) -> float:
        """``useRelevance`` (Figure 11): prefer chunks that occupy many cached
        pages and interest few overlapping queries, so they can be freed."""
        tracker = self.abm.tracker
        interested = max(1, tracker.overlap_count(chunk, handle.query_id))
        return tracker.cached_pages(handle.query_id, chunk) / interested

    def load_relevance(self, chunk: int, handle: CScanHandle) -> Tuple[float, FrozenSet[str]]:
        """``loadRelevance`` (Figure 11).

        Returns the score *and* the columns that would be loaded (the union of
        the columns of the overlapping starved queries, and of the query's
        own), because the caller needs both.
        """
        abm = self.abm
        count, columns = abm.tracker.starved_overlap(chunk, handle.query_id)
        # The query counts once: through the tracker when it is starved and
        # reads a column, otherwise here if it still needs the chunk.
        if handle.is_interested(chunk) and not (
            handle.columns and self.query_starved(handle)
        ):
            count += 1
            columns = columns.union(handle.columns)
        pages_to_load = abm.chunk_load_pages(chunk, columns)
        if pages_to_load <= 0:
            return -math.inf, columns
        return count / pages_to_load, columns

    def keep_relevance(self, chunk: int) -> float:
        """``keepRelevance`` (Figure 11): chunks cheap to keep (few cached
        pages) and useful to many almost-starved queries are kept longest."""
        almost_starved, columns = self.abm.tracker.almost_starved_interest(chunk)
        if not almost_starved:
            return 0.0
        cached_pages = self.abm.pool.chunk_cached_pages(chunk, columns)
        if cached_pages <= 0:
            return float(almost_starved)
        return almost_starved / cached_pages

    # ------------------------------------------------------------- delivery
    def select_chunk_to_consume(self, handle: CScanHandle, now: float) -> Optional[int]:
        self.scheduling_calls += 1
        best_chunk: Optional[int] = None
        best_score = -math.inf
        for chunk in self.abm.available_chunks(handle):
            score = self.use_relevance(chunk, handle)
            if score > best_score or (
                score == best_score and best_chunk is not None and chunk < best_chunk
            ):
                best_score = score
                best_chunk = chunk
        if best_chunk is not None:
            self._release_reservation(handle.query_id)
        return best_chunk

    def on_query_blocked(self, handle: CScanHandle, now: float) -> None:
        """Avoid data waste: reserve the partially-loaded chunk the blocked
        query is most likely to consume next."""
        abm = self.abm
        best_chunk: Optional[int] = None
        best_cached = 0
        # Iterate ``needed`` itself, not the tracker's state: the
        # strictly-greater comparison makes the winner depend on set
        # iteration order, which must be the same whichever tracker answers
        # (the incremental ones or the ``tests/naive_relevance.py`` oracle).
        for chunk in handle.needed:
            cached = abm.cached_pages_for(handle, chunk)
            if cached > best_cached:
                best_cached = cached
                best_chunk = chunk
        if best_chunk is not None:
            self._set_reservation(handle.query_id, best_chunk)

    def on_unregister(self, handle: CScanHandle, now: float) -> None:
        self._release_reservation(handle.query_id)

    def _set_reservation(self, query_id: int, chunk: int) -> None:
        current = self._reservations.get(query_id)
        if current == chunk:
            return
        self._release_reservation(query_id)
        self.abm.pool.reserve_chunk(chunk)
        self._reservations[query_id] = chunk

    def _release_reservation(self, query_id: int) -> None:
        chunk = self._reservations.pop(query_id, None)
        if chunk is not None:
            self.abm.pool.release_chunk(chunk)

    # ----------------------------------------------------------------- loads
    def choose_load(self, now: float) -> Optional[Tuple[int, int, Tuple[str, ...]]]:
        self.scheduling_calls += 1
        starved = [
            handle for handle in self.abm.starved_handles() if not handle.finished
        ]
        if not starved:
            return None
        starved.sort(key=lambda handle: self.query_relevance(handle, now), reverse=True)
        for handle in starved:
            chosen = self._choose_chunk_to_load(handle)
            if chosen is not None:
                chunk, columns = chosen
                return handle.query_id, chunk, tuple(sorted(columns))
        return None

    def _choose_chunk_to_load(
        self, handle: CScanHandle
    ) -> Optional[Tuple[int, FrozenSet[str]]]:
        unrequested = self.abm.tracker.unrequested_count
        query_id = handle.query_id
        best: Optional[Tuple[int, FrozenSet[str]]] = None
        best_score = -math.inf
        for chunk in handle.needed:
            if not unrequested(query_id, chunk):
                # Everything this query needs for the chunk is buffered or
                # in flight.
                continue
            score, columns = self.load_relevance(chunk, handle)
            if score == -math.inf:
                continue
            if score > best_score or (
                score == best_score and best is not None and chunk < best[0]
            ):
                best_score = score
                best = (chunk, columns)
        return best

    # -------------------------------------------------------------- eviction
    def choose_evictions(
        self, trigger_query: int, incoming_chunk: int, pages_short: int, now: float
    ) -> Optional[List[BlockKey]]:
        self.scheduling_calls += 1
        abm = self.abm
        pool = abm.pool
        trigger = abm.handle(trigger_query)
        victims: List[BlockKey] = []
        freed = 0

        useful_columns = abm.tracker.interested_columns

        # One walk of the LRU index serves all three steps: the pool does not
        # change until the ABM applies the victims.
        evictable = list(self._evictable_blocks(protect_chunks=(incoming_chunk,)))

        # Step 1: evict column blocks no interested query needs any more,
        # largest first (the sort is stable, so LRU order breaks ties).
        useless = [
            block
            for block in evictable
            if block.column not in useful_columns(block.chunk)
        ]
        useless.sort(key=lambda block: -block.pages)
        for block in useless:
            victims.append(block.key)
            freed += block.pages
            if freed >= pages_short:
                return victims

        # Step 2: iteratively victimise whole chunks by increasing keepRelevance.
        chunk_candidates = sorted(
            {block.chunk for block in evictable}.difference(trigger.needed),
            key=lambda chunk: (self.keep_relevance(chunk), chunk),
        )
        claimed = set(victims)
        for chunk in chunk_candidates:
            for block in pool.blocks_of_chunk(chunk):
                if block.pinned or block.key in claimed or pool.is_reserved(chunk):
                    continue
                victims.append(block.key)
                claimed.add(block.key)
                freed += block.pages
            if freed >= pages_short:
                return victims

        # Step 3: as a last resort, also consider chunks the trigger query is
        # interested in (other than the incoming one); without this the load
        # would be postponed even though lower-value data is buffered.
        remaining = sorted(
            {block.chunk for block in evictable if block.key not in claimed},
            key=lambda chunk: (self.keep_relevance(chunk), chunk),
        )
        for chunk in remaining:
            for block in pool.blocks_of_chunk(chunk):
                if block.pinned or block.key in claimed or pool.is_reserved(chunk):
                    continue
                victims.append(block.key)
                claimed.add(block.key)
                freed += block.pages
            if freed >= pages_short:
                return victims
        return None
