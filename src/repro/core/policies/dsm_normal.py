"""The *normal* policy for DSM (column) storage.

Section 6.2: "In normal, the order of I/Os is strictly determined by the
query and LRU buffering is performed on a (chunk, column) level."  Every
query reads its chunks in table order; for each chunk only the query's own
columns are fetched; eviction is LRU over column blocks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bufman.slots import BlockKey
from repro.core.cscan import CScanHandle
from repro.core.policies.base import DSMSchedulingPolicy


class DSMSequentialCursorPolicy(DSMSchedulingPolicy):
    """Shared machinery for DSM policies with a fixed per-query chunk order."""

    name = "dsm-sequential"

    def __init__(self, prefetch: bool = True) -> None:
        super().__init__()
        #: Whether queries prefetch one chunk ahead of their cursor.
        self._prefetch = prefetch
        self._order: Dict[int, List[int]] = {}
        self._position: Dict[int, int] = {}
        #: Last time a load was issued on behalf of each query (round-robin).
        self._last_service: Dict[int, float] = {}

    # ---------------------------------------------------------------- hooks
    def on_register(self, handle: CScanHandle, now: float) -> None:
        self._order[handle.query_id] = self._initial_order(handle, now)
        self._position[handle.query_id] = 0

    def _initial_order(self, handle: CScanHandle, now: float) -> List[int]:
        """Consumption order for a new query; plain table order by default."""
        return sorted(handle.request.chunks)

    def on_unregister(self, handle: CScanHandle, now: float) -> None:
        self._order.pop(handle.query_id, None)
        self._position.pop(handle.query_id, None)
        self._last_service.pop(handle.query_id, None)

    # ------------------------------------------------------------- delivery
    def _cursor_chunk(self, handle: CScanHandle) -> Optional[int]:
        order = self._order[handle.query_id]
        position = self._position[handle.query_id]
        while position < len(order) and order[position] in handle.consumed:
            position += 1
        self._position[handle.query_id] = position
        if position >= len(order):
            return None
        return order[position]

    def _chunk_after_cursor(self, handle: CScanHandle) -> Optional[int]:
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
        if chunk not in self.abm.tracker.available_chunks(handle.query_id):
            return None
        self._position[handle.query_id] += 1
        return chunk

    # ----------------------------------------------------------------- loads
    def _wanted_chunk(self, handle: CScanHandle) -> Optional[int]:
        """The chunk this query wants loaded next (demand, else one-ahead)."""
        unrequested = self.abm.tracker.unrequested_count
        candidate = self._cursor_chunk(handle)
        if candidate is None:
            return None
        if not unrequested(handle.query_id, candidate):
            if not self._prefetch:
                return None
            candidate = self._chunk_after_cursor(handle)
            if candidate is None or not unrequested(handle.query_id, candidate):
                return None
        return candidate

    def _load_columns(self, handle: CScanHandle, chunk: int) -> Tuple[str, ...]:
        """Columns to fetch when loading ``chunk`` for ``handle``.

        The plain sequential policies fetch only the query's own columns.
        """
        return handle.columns

    def choose_load(self, now: float) -> Optional[Tuple[int, int, Tuple[str, ...]]]:
        blocked: List[Tuple[float, int]] = []
        prefetch: List[Tuple[float, int]] = []
        handles = {handle.query_id: handle for handle in self.abm.active_handles()}
        for handle in handles.values():
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
                blocked.append((queued_at, handle.query_id))
            else:
                prefetch.append((queued_at, handle.query_id))
        for bucket in (blocked, prefetch):
            if bucket:
                bucket.sort()
                _, query_id = bucket[0]
                handle = handles[query_id]
                wanted = self._wanted_chunk(handle)
                if wanted is None:
                    continue
                self._last_service[query_id] = now
                return query_id, wanted, self._load_columns(handle, wanted)
        return None

    # -------------------------------------------------------------- eviction
    def choose_evictions(
        self, trigger_query: int, incoming_chunk: int, pages_short: int, now: float
    ) -> Optional[List[BlockKey]]:
        return self._lru_block_victims(pages_short, protect_chunks=(incoming_chunk,))


class DSMNormalPolicy(DSMSequentialCursorPolicy):
    """Traditional DSM scan processing: per-query order, block-level LRU."""

    name = "normal"
