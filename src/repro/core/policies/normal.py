"""The *normal* policy: per-query sequential scans with LRU buffering.

This is the traditional baseline of Section 3: every query reads the chunks
it needs strictly in table order, the buffer manager applies LRU, and the
only sharing that happens is accidental (a chunk another query loaded happens
to still be cached when this query's cursor reaches it).  Outstanding
requests of blocked queries are served first-come-first-served, which yields
the round-robin servicing pattern the paper describes; queries additionally
prefetch one chunk ahead so that CPU work overlaps with I/O (the "factor 2
because of prefetching" buffer demand mentioned in Section 6.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.cscan import CScanHandle
from repro.core.policies.base import SchedulingPolicy


class SequentialCursorPolicy(SchedulingPolicy):
    """Shared machinery for policies that deliver chunks in a fixed per-query
    order (*normal* delivers in table order, *attach* in a rotated order)."""

    name = "sequential"

    def __init__(self, prefetch: bool = True) -> None:
        super().__init__()
        #: Whether queries prefetch one chunk ahead of their cursor (async
        #: I/O); disabling it models a fully synchronous scan, which is the
        #: cold standalone baseline used to normalise latencies.
        self._prefetch = prefetch
        #: Consumption order per query (list of chunk ids).
        self._order: Dict[int, List[int]] = {}
        #: Index of the next chunk (within the order list) each query expects.
        self._position: Dict[int, int] = {}
        #: Last time a load was issued on behalf of each query; makes the
        #: service of outstanding requests round-robin (FCFS per request, not
        #: per query lifetime).
        self._last_service: Dict[int, float] = {}

    # ---------------------------------------------------------------- hooks
    def on_register(self, handle: CScanHandle, now: float) -> None:
        self._order[handle.query_id] = self._initial_order(handle, now)
        self._position[handle.query_id] = 0

    def _initial_order(self, handle: CScanHandle, now: float) -> List[int]:
        """Consumption order for a new query; *normal* uses plain table order."""
        return sorted(handle.request.chunks)

    def on_unregister(self, handle: CScanHandle, now: float) -> None:
        self._order.pop(handle.query_id, None)
        self._position.pop(handle.query_id, None)
        self._last_service.pop(handle.query_id, None)

    def on_chunk_consumed(self, handle: CScanHandle, chunk: int, now: float) -> None:
        # The cursor is advanced when the chunk is *selected*; nothing to do.
        pass

    # ------------------------------------------------------------- delivery
    def _cursor_chunk(self, handle: CScanHandle) -> Optional[int]:
        """The next chunk (in this query's order) that is not yet consumed."""
        order = self._order[handle.query_id]
        position = self._position[handle.query_id]
        while position < len(order) and order[position] in handle.consumed:
            position += 1
        self._position[handle.query_id] = position
        if position >= len(order):
            return None
        return order[position]

    def _chunk_after_cursor(self, handle: CScanHandle) -> Optional[int]:
        """The chunk following the cursor (prefetch target), if any."""
        order = self._order[handle.query_id]
        position = self._position[handle.query_id] + 1
        while position < len(order) and order[position] in handle.consumed:
            position += 1
        if position >= len(order):
            return None
        return order[position]

    def select_chunk_to_consume(self, handle: CScanHandle, now: float) -> Optional[int]:
        chunk = self._cursor_chunk(handle)
        if chunk is None:
            return None
        if chunk not in self.abm.pool:
            return None
        self._position[handle.query_id] += 1
        return chunk

    # ----------------------------------------------------------------- loads
    def choose_load(self, now: float) -> Optional[Tuple[int, int]]:
        # First-come-first-served among blocked queries, then prefetches:
        # one pass keeps each bucket's least (queued_at, query_id, chunk),
        # the head a sort would give, since query ids are unique.
        occupied = self.abm.pool.occupies_slot
        prefetch = self._prefetch
        last_service = self._last_service
        cursor_chunk = self._cursor_chunk
        best_blocked: Optional[Tuple[float, int, int]] = None
        best_prefetch: Optional[Tuple[float, int, int]] = None
        for handle in self.abm.active_handles():
            if handle.finished:
                continue
            if not prefetch and handle.is_processing:
                # Synchronous scans only issue I/O once they actually block.
                continue
            wanted = cursor_chunk(handle)
            if wanted is None:
                continue
            if occupied(wanted):
                if not prefetch:
                    continue
                # Demand chunk already present/in flight; consider prefetching
                # one chunk ahead so processing overlaps with I/O.
                wanted = self._chunk_after_cursor(handle)
                if wanted is None or occupied(wanted):
                    continue
            query_id = handle.query_id
            blocked_since = handle.blocked_since
            entry = (
                max(
                    blocked_since or 0.0,
                    handle.last_delivery_time,
                    last_service.get(query_id, 0.0),
                ),
                query_id,
                wanted,
            )
            if blocked_since is not None:
                if best_blocked is None or entry < best_blocked:
                    best_blocked = entry
            elif best_prefetch is None or entry < best_prefetch:
                best_prefetch = entry
        best = best_blocked or best_prefetch
        if best is None:
            return None
        _, query_id, chunk = best
        last_service[query_id] = now
        return query_id, chunk

    # -------------------------------------------------------------- eviction
    def choose_evictions(
        self, trigger_query: int, incoming_chunk: int, now: float
    ) -> Optional[List[int]]:
        slot = next(self.abm.pool.evictable_slots(), None)
        return None if slot is None else [slot.chunk]


class NormalPolicy(SequentialCursorPolicy):
    """Traditional scan processing: sequential per-query order, LRU buffer."""

    name = "normal"
