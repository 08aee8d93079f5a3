"""The *elevator* policy: one global, strictly sequential scan cursor.

The whole system reads chunks in table order with a single cursor that wraps
around; a chunk is read only if at least one active query still needs it.
This minimises the number of I/O requests and keeps the access pattern
perfectly sequential, but queries can only consume data in global cursor
order, so fast queries wait for slow ones and short range queries may wait a
long time for the cursor to reach their range — exactly the latency problems
Table 2 and Figure 5 of the paper show.

Eviction only considers chunks that no active query needs any more; if the
buffer fills up with chunks some slow query has not consumed yet, the cursor
stalls (the "query speed degenerates to the speed of the slowest query"
behaviour described in Section 3).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.cscan import CScanHandle
from repro.core.policies.base import SchedulingPolicy


class ElevatorPolicy(SchedulingPolicy):
    """Single global sequential cursor shared by every active scan."""

    name = "elevator"

    def __init__(self) -> None:
        super().__init__()
        self._cursor = 0

    def bind(self, abm) -> None:
        super().bind(abm)
        self._cursor = 0

    # ------------------------------------------------------------- delivery
    def select_chunk_to_consume(self, handle: CScanHandle, now: float) -> Optional[int]:
        pool = self.abm.pool
        candidates = [chunk for chunk in handle.needed if chunk in pool]
        if not candidates:
            return None
        # Deliver in the order the global cursor loaded the chunks.
        return min(candidates, key=lambda chunk: (pool.slot(chunk).loaded_at, chunk))

    # ----------------------------------------------------------------- loads
    def choose_load(self, now: float) -> Optional[Tuple[int, int]]:
        abm = self.abm
        pool = abm.pool
        num_chunks = abm.num_chunks
        active = [handle for handle in abm.active_handles() if not handle.finished]
        if not active:
            return None
        for offset in range(num_chunks):
            chunk = (self._cursor + offset) % num_chunks
            if chunk in pool or pool.is_loading(chunk):
                continue
            interested = abm.interested_handles(chunk)
            if not interested:
                continue
            query = self._pick_beneficiary(interested)
            self._cursor = (chunk + 1) % num_chunks
            return query.query_id, chunk
        return None

    @staticmethod
    def _pick_beneficiary(interested: List[CScanHandle]) -> CScanHandle:
        """Attribute the load to a blocked interested query if any, else the
        one that has been waiting for data the longest."""
        blocked = [handle for handle in interested if handle.is_blocked]
        candidates = blocked or interested
        return min(candidates, key=lambda handle: handle.last_delivery_time)

    # -------------------------------------------------------------- eviction
    def choose_evictions(
        self, trigger_query: int, incoming_chunk: int, now: float
    ) -> Optional[List[int]]:
        abm = self.abm
        for slot in abm.pool.evictable_slots():
            if abm.interested_count(slot.chunk) == 0:
                return [slot.chunk]
        # Every buffered chunk is still needed by some query; the cursor
        # stalls until the slowest interested query catches up.
        return None
