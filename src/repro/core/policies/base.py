"""Abstract interfaces of the scheduling policies.

A policy is a *strategy object* owned by an Active Buffer Manager.  The ABM
keeps all the state (registered scans, buffered chunks/blocks); the policy
only makes decisions:

* which buffered chunk a given query should consume next
  (:meth:`select_chunk_to_consume`, the paper's ``chooseAvailableChunk``),
* which chunk should be loaded next and on behalf of which query
  (:meth:`choose_load`, the paper's ``chooseQueryToProcess`` +
  ``chooseChunkToLoad``),
* which chunks/blocks to evict to make room
  (:meth:`choose_evictions`, the paper's ``findFreeSlot``).

Hook methods (``on_register``, ``on_chunk_loaded`` ...) let policies maintain
internal cursors (attach, elevator) without the ABM knowing about them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.bufman.slots import BlockKey
from repro.core.cscan import CScanHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.abm import ActiveBufferManager, DSMActiveBufferManager


class _PolicyBase(ABC):
    """Machinery shared by the NSM and DSM policy hierarchies."""

    #: Human-readable policy name ("normal", "attach", "elevator", "relevance").
    name: str = "abstract"

    def __init__(self) -> None:
        self._abm = None
        #: Number of counted scheduling decisions made over the policy's
        #: lifetime (used by the Figure 8 benchmark); the simulator reports
        #: per-run deltas in ``RunResult.scheduling_calls``.  Policies that
        #: count no decisions stay at 0.
        self.scheduling_calls = 0

    def bind(self, abm) -> None:
        """Attach the policy to its buffer manager (called once by the ABM)."""
        self._abm = abm

    # Hooks with default no-op implementations -------------------------------
    def on_register(self, handle: CScanHandle, now: float) -> None:
        """A new CScan registered with the ABM."""

    def on_unregister(self, handle: CScanHandle, now: float) -> None:
        """A CScan finished (or was cancelled) and left the ABM."""

    def on_chunk_loaded(self, chunk: int, now: float) -> None:
        """A chunk (or all blocks of a DSM load) finished loading."""

    def on_chunk_consumed(self, handle: CScanHandle, chunk: int, now: float) -> None:
        """A query finished consuming a chunk."""

    def on_query_blocked(self, handle: CScanHandle, now: float) -> None:
        """A query asked for a chunk and none was available."""


class SchedulingPolicy(_PolicyBase):
    """Interface of NSM (row-store) scheduling policies."""

    @property
    def abm(self) -> "ActiveBufferManager":
        """The buffer manager this policy is bound to."""
        if self._abm is None:
            raise RuntimeError(f"policy {self.name} is not bound to an ABM")
        return self._abm

    @abstractmethod
    def select_chunk_to_consume(self, handle: CScanHandle, now: float) -> Optional[int]:
        """Pick a buffered chunk for ``handle`` to consume next (or ``None``)."""

    @abstractmethod
    def choose_load(self, now: float) -> Optional[Tuple[int, int]]:
        """Pick the next ``(query_id, chunk)`` to load (or ``None`` to idle)."""

    @abstractmethod
    def choose_evictions(
        self, trigger_query: int, incoming_chunk: int, now: float
    ) -> Optional[List[int]]:
        """Pick chunk(s) to evict so ``incoming_chunk`` can be loaded.

        Returns ``None`` when no room can be made (the load is postponed).
        """

    # Shared helpers ----------------------------------------------------------
    def _lru_victims(self, count: int = 1, exclude: Sequence[int] = ()) -> Optional[List[int]]:
        """Pick up to ``count`` least-recently-used unpinned chunks."""
        pool = self.abm.pool
        excluded = set(exclude)
        candidates = [
            pool.slot(chunk)
            for chunk in pool.unpinned_chunks()
            if chunk not in excluded
        ]
        if len(candidates) < count:
            return None
        candidates.sort(key=lambda slot: slot.last_used)
        return [slot.chunk for slot in candidates[:count]]


class DSMSchedulingPolicy(_PolicyBase):
    """Interface of DSM (column-store) scheduling policies."""

    @property
    def abm(self) -> "DSMActiveBufferManager":
        """The buffer manager this policy is bound to."""
        if self._abm is None:
            raise RuntimeError(f"policy {self.name} is not bound to an ABM")
        return self._abm

    @abstractmethod
    def select_chunk_to_consume(self, handle: CScanHandle, now: float) -> Optional[int]:
        """Pick a *ready* chunk for ``handle`` to consume next (or ``None``)."""

    @abstractmethod
    def choose_load(self, now: float) -> Optional[Tuple[int, int, Tuple[str, ...]]]:
        """Pick the next ``(query_id, chunk, columns)`` to load (or ``None``)."""

    @abstractmethod
    def choose_evictions(
        self, trigger_query: int, incoming_chunk: int, pages_short: int, now: float
    ) -> Optional[List[BlockKey]]:
        """Pick blocks to evict to free at least ``pages_short`` pages.

        Returns ``None`` when not enough room can be made.
        """

    # Shared helpers ----------------------------------------------------------
    def _evictable_blocks(self, protect_chunks: Sequence[int] = ()) -> List:
        """All unpinned, unreserved blocks excluding the given chunks."""
        pool = self.abm.pool
        protected = set(protect_chunks)
        return [
            block
            for block in pool
            if not block.pinned
            and block.chunk not in protected
            and not pool.is_reserved(block.chunk)
        ]

    def _lru_block_victims(
        self,
        pages_short: int,
        protect_chunks: Sequence[int] = (),
        exclude_keys: Sequence[BlockKey] = (),
    ) -> Optional[List[BlockKey]]:
        """Free at least ``pages_short`` pages by evicting LRU blocks.

        ``exclude_keys`` skips blocks a caller has already claimed in an
        earlier eviction pass.
        """
        candidates = self._evictable_blocks(protect_chunks)
        if exclude_keys:
            excluded = set(exclude_keys)
            candidates = [
                block for block in candidates if block.key not in excluded
            ]
        candidates.sort(key=lambda block: block.last_used)
        victims: List[BlockKey] = []
        freed = 0
        for block in candidates:
            victims.append(block.key)
            freed += block.pages
            if freed >= pages_short:
                return victims
        return None
