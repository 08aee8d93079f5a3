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

Eviction candidates come from the pool's LRU index
(:class:`repro.bufman.slots.LRUIndex`), least recently used first: NSM
policies walk ``pool.evictable_slots()`` and DSM policies
:meth:`DSMSchedulingPolicy._evictable_blocks`, each stopping at the first
victim that serves.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.bufman.slots import BlockKey, BlockState
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
        """Attach the policy to its buffer manager (called once per ABM).

        A policy object may serve several runs in turn, one ABM each, so
        subclasses that keep per-run state reset it here.
        """
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
    def _evictable_blocks(
        self, protect_chunks: Sequence[int] = ()
    ) -> Iterator[BlockState]:
        """Unpinned, unreserved blocks outside ``protect_chunks``, least
        recently used first: a lazy walk of the pool's LRU index."""
        return self.abm.pool.evictable_blocks(protect_chunks)

    def _evictable_blocks_of(
        self, chunks: Iterable[int], protect_chunks: Sequence[int] = ()
    ) -> List[BlockState]:
        """The :meth:`_evictable_blocks` of ``chunks``, in the same order,
        without walking the rest of the index."""
        return self.abm.pool.evictable_blocks_of(chunks, protect_chunks)

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
        excluded = set(exclude_keys)
        victims: List[BlockKey] = []
        freed = 0
        for block in self._evictable_blocks(protect_chunks):
            key = block.key
            if key in excluded:
                continue
            victims.append(key)
            freed += block.pages
            if freed >= pages_short:
                return victims
        return None
