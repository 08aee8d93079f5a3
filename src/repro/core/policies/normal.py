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
    def _wanted_chunk(self, handle: CScanHandle) -> Optional[int]:
        """The chunk this query wants loaded next (demand or one-ahead prefetch)."""
        pool = self.abm.pool
        candidate = self._cursor_chunk(handle)
        if candidate is None:
            return None
        if candidate in pool or pool.is_loading(candidate):
            if not self._prefetch:
                return None
            # Demand chunk already present/in flight; consider prefetching one
            # chunk ahead so processing overlaps with I/O.
            candidate = self._chunk_after_cursor(handle)
            if candidate is None or candidate in pool or pool.is_loading(candidate):
                return None
        return candidate

    def choose_load(self, now: float) -> Optional[Tuple[int, int]]:
        blocked: List[Tuple[float, int, int]] = []
        prefetch: List[Tuple[float, int, int]] = []
        for handle in self.abm.active_handles():
            if handle.finished:
                continue
            if handle.is_processing and not self._prefetch:
                # Synchronous scans only issue I/O once they actually block.
                continue
            wanted = self._wanted_chunk(handle)
            if wanted is None:
                continue
            queued_at = max(
                handle.blocked_since or 0.0,
                handle.last_delivery_time,
                self._last_service.get(handle.query_id, 0.0),
            )
            if handle.is_blocked:
                blocked.append((queued_at, handle.query_id, wanted))
            else:
                prefetch.append((queued_at, handle.query_id, wanted))
        # First-come-first-served among blocked queries, then prefetches.
        for bucket in (blocked, prefetch):
            if bucket:
                bucket.sort()
                _, query_id, chunk = bucket[0]
                self._last_service[query_id] = now
                return query_id, chunk
        return None

    # -------------------------------------------------------------- eviction
    def choose_evictions(
        self, trigger_query: int, incoming_chunk: int, now: float
    ) -> Optional[List[int]]:
        slot = next(self.abm.pool.evictable_slots(), None)
        return None if slot is None else [slot.chunk]


class NormalPolicy(SequentialCursorPolicy):
    """Traditional scan processing: sequential per-query order, LRU buffer."""

    name = "normal"
