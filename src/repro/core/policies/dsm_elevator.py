"""The *elevator* policy for DSM (column) storage.

Section 6.2: "Just like in NSM, the DSM elevator policy still enforces a
global cursor that sequentially moves through the table.  Obviously, it only
loads the union of all columns needed for this position by the active
queries."
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bufman.slots import BlockKey
from repro.core.cscan import CScanHandle
from repro.core.policies.base import DSMSchedulingPolicy


class DSMElevatorPolicy(DSMSchedulingPolicy):
    """Single global sequential cursor over a column store."""

    name = "elevator"

    def __init__(self) -> None:
        super().__init__()
        self._cursor = 0

    def bind(self, abm) -> None:
        super().bind(abm)
        self._cursor = 0

    # ------------------------------------------------------------- delivery
    def select_chunk_to_consume(self, handle: CScanHandle, now: float) -> Optional[int]:
        ready = self.abm.tracker.ready_times(handle.query_id)
        if not ready:
            return None
        # The chunk that became ready first, ties to the lowest chunk id.
        return min(zip(ready.values(), ready))[1]

    # ----------------------------------------------------------------- loads
    def choose_load(self, now: float) -> Optional[Tuple[int, int, Tuple[str, ...]]]:
        abm = self.abm
        num_chunks = abm.num_chunks
        active = [handle for handle in abm.active_handles() if not handle.finished]
        if not active:
            return None
        tracker = abm.tracker
        for offset in range(num_chunks):
            chunk = (self._cursor + offset) % num_chunks
            columns = tracker.interested_columns(chunk)
            if not columns or not abm.missing_columns(chunk, columns):
                continue
            query = self._pick_beneficiary(abm.interested_handles(chunk))
            self._cursor = (chunk + 1) % num_chunks
            return query.query_id, chunk, tuple(sorted(columns))
        return None

    @staticmethod
    def _pick_beneficiary(interested: List[CScanHandle]) -> CScanHandle:
        blocked = [handle for handle in interested if handle.is_blocked]
        candidates = blocked or interested
        return min(candidates, key=lambda handle: handle.last_delivery_time)

    # -------------------------------------------------------------- eviction
    def choose_evictions(
        self, trigger_query: int, incoming_chunk: int, pages_short: int, now: float
    ) -> Optional[List[BlockKey]]:
        abm = self.abm
        victims: List[BlockKey] = []
        freed = 0
        # Blocks no query needs go first, least recently used first.
        for block in self._evictable_blocks_of(
            abm.tracker.unwanted_chunks(), protect_chunks=(incoming_chunk,)
        ):
            victims.append(block.key)
            freed += block.pages
            if freed >= pages_short:
                return victims
        # Stalling the cursor (returning None) is the authentic elevator
        # behaviour, and it is safe as long as the system can still make
        # progress without this load: some query is crunching a chunk, has a
        # ready chunk to pick up next, or another load is already in flight
        # (its completion re-enters the scheduler).
        if abm.pending_loads > 0:
            return None
        for handle in abm.active_handles():
            if handle.is_processing or abm.num_available_chunks(handle) > 0:
                return None
        # Last resort: nobody can progress.  Unlike NSM — where a buffered
        # chunk someone needs is always consumable — a DSM pool can fill up
        # with *partial* chunks that are needed by everyone yet ready for no
        # one; refusing to evict them would deadlock the run (reachable once
        # a multi-volume disk commits several loads per round).  Evict LRU
        # blocks even if still needed; the cursor re-reads them on its next
        # revolution.
        remaining = self._lru_block_victims(
            pages_short - freed,
            protect_chunks=(incoming_chunk,),
            exclude_keys=victims,
        )
        if remaining is None:
            return None
        return victims + remaining
