"""Chunk-slot and column-block pools used by the Active Buffer Manager.

The ABM does not cache pages for their own sake: it tracks *chunks* (NSM) or
per-column *blocks of logical chunks* (DSM), together with which queries are
still interested in them and which queries are currently consuming them.
Those two pools are implemented here; the scheduling policies consult them
and the simulator mutates them as loads complete and queries consume data.
Both pools keep their eviction order in one :class:`LRUIndex`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.errors import BufferPoolError

#: Key of a DSM column block: (logical chunk id, column name).
BlockKey = Tuple[int, str]


@dataclass
class ChunkSlot:
    """State of one buffered NSM chunk; the base of :class:`BlockState`."""

    chunk: int
    loaded_at: float
    last_used: float
    #: The pool's load counter at ``complete_load``: the unit's position in
    #: load order, used to break ``last_used`` ties.
    load_seq: int
    pin_count: int = field(default=0, init=False)

    @property
    def pinned(self) -> bool:
        """Whether some query is currently consuming this unit."""
        return self.pin_count > 0


class LRUIndex:
    """The unpinned units of one pool, least recently used first.

    Units are ordered by :meth:`key`, ``(last_used, load_seq)``.  A pool
    stamps ``load_seq`` from its load counter, so ``load_seq`` is unique and
    rises in load order, and the index order equals a stable
    ``sort(key=last_used)`` of the buffered units taken in load order.
    Invariant: a unit is in the index exactly when it is buffered and its
    pin count is zero, under the key it had when its pin count last reached
    zero.  The owning pool keeps it: ``add`` on ``complete_load`` and on
    ``unpin`` to zero, ``remove`` on ``pin`` from zero and on ``evict``
    (``last_used`` only changes on ``pin`` / ``unpin``).
    """

    def __init__(self) -> None:
        self._keys: List[Tuple[float, int]] = []
        self._units: List[ChunkSlot] = []

    @staticmethod
    def key(unit: ChunkSlot) -> Tuple[float, int]:
        """The eviction order of a unit: older ``last_used`` first, ties in
        load order."""
        return (unit.last_used, unit.load_seq)

    def __iter__(self) -> Iterator[ChunkSlot]:
        return iter(self._units)

    def add(self, unit: ChunkSlot) -> None:
        key = self.key(unit)
        position = bisect_left(self._keys, key)
        self._keys.insert(position, key)
        self._units.insert(position, unit)

    def remove(self, unit: ChunkSlot) -> None:
        position = bisect_left(self._keys, self.key(unit))
        del self._keys[position]
        del self._units[position]


class ChunkSlotPool:
    """Fixed-capacity pool of NSM chunk slots.

    Capacity accounting includes in-flight loads, so that the scheduler never
    over-commits the buffer: ``len(buffered) + len(loading) <= capacity``.
    The unpinned slots sit in an :class:`LRUIndex`.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise BufferPoolError("chunk slot pool needs capacity >= 1")
        self._capacity = capacity
        self._slots: Dict[int, ChunkSlot] = {}
        self._loading: Set[int] = set()
        self._lru = LRUIndex()
        self.loads_completed: int = 0
        self.evictions: int = 0
        #: Optional observer (the ABM's interest tracker) notified whenever a
        #: chunk becomes buffered or is evicted, so incrementally-maintained
        #: availability stays consistent even when a driver mutates the pool
        #: directly.  Must provide ``on_chunk_loaded(chunk)`` and
        #: ``on_chunk_evicted(chunk)``; it may additionally provide
        #: ``on_load_started(chunk)`` (used by the vectorised tracker to
        #: maintain its loading mask) — an absent hook is simply skipped.
        self.listener = None

    # ------------------------------------------------------------ inspection

    def __contains__(self, chunk: int) -> bool:
        return chunk in self._slots

    def buffered_chunks(self) -> List[int]:
        """Chunks currently fully loaded."""
        return list(self._slots)

    def is_loading(self, chunk: int) -> bool:
        """Whether the chunk is currently being loaded."""
        return chunk in self._loading

    def loading_chunks(self) -> List[int]:
        """Chunks currently in flight."""
        return list(self._loading)

    def in_use(self) -> int:
        """Number of occupied slots (buffered plus in flight)."""
        return len(self._slots) + len(self._loading)

    def free_slots(self) -> int:
        """Number of slots available without eviction."""
        return self._capacity - self.in_use()

    def has_free_slot(self) -> bool:
        """Whether a load can start without evicting."""
        return self.free_slots() > 0

    def slot(self, chunk: int) -> ChunkSlot:
        """Return the slot of a buffered chunk (raises if absent)."""
        try:
            return self._slots[chunk]
        except KeyError as exc:
            raise BufferPoolError(f"chunk {chunk} is not buffered") from exc

    def evictable_slots(self) -> Iterator[ChunkSlot]:
        """Slots not currently consumed by any query, least recently used
        first (ties in load order).

        A lazy walk of the LRU index: a caller that stops early pays only
        for the slots it looked at.  Do not change the pool while the walk
        is open.
        """
        return iter(self._lru)

    # ------------------------------------------------------------- mutation
    def start_load(self, chunk: int) -> None:
        """Reserve a slot for an in-flight load."""
        if chunk in self._slots or chunk in self._loading:
            raise BufferPoolError(f"chunk {chunk} is already buffered or loading")
        if not self.has_free_slot():
            raise BufferPoolError("no free slot: evict before starting a load")
        self._loading.add(chunk)
        hook = getattr(self.listener, "on_load_started", None)
        if hook is not None:
            hook(chunk)

    def complete_load(self, chunk: int, now: float) -> ChunkSlot:
        """Mark an in-flight load as finished; the chunk becomes buffered."""
        if chunk not in self._loading:
            raise BufferPoolError(f"chunk {chunk} is not being loaded")
        self._loading.discard(chunk)
        slot = ChunkSlot(
            chunk=chunk, loaded_at=now, last_used=now, load_seq=self.loads_completed
        )
        self._slots[chunk] = slot
        self._lru.add(slot)
        self.loads_completed += 1
        if self.listener is not None:
            self.listener.on_chunk_loaded(chunk)
        return slot

    def pin(self, chunk: int, now: float) -> None:
        """A query starts consuming the chunk."""
        slot = self.slot(chunk)
        if slot.pin_count == 0:
            self._lru.remove(slot)
        slot.pin_count += 1
        slot.last_used = now

    def unpin(self, chunk: int, now: float) -> None:
        """A query finished consuming the chunk."""
        slot = self.slot(chunk)
        if slot.pin_count <= 0:
            raise BufferPoolError(f"chunk {chunk} pin count already zero")
        slot.pin_count -= 1
        slot.last_used = now
        if slot.pin_count == 0:
            self._lru.add(slot)

    def evict(self, chunk: int) -> None:
        """Remove an unpinned buffered chunk."""
        slot = self.slot(chunk)
        if slot.pinned:
            raise BufferPoolError(f"cannot evict pinned chunk {chunk}")
        del self._slots[chunk]
        self._lru.remove(slot)
        self.evictions += 1
        if self.listener is not None:
            self.listener.on_chunk_evicted(chunk)


@dataclass
class BlockState(ChunkSlot):
    """State of one buffered DSM column block (one column of one chunk)."""

    column: str
    pages: int

    @property
    def key(self) -> BlockKey:
        """The (chunk, column) key of this block."""
        return (self.chunk, self.column)


class DSMBlockPool:
    """Page-accounted pool of DSM column blocks.

    Unlike the NSM pool the capacity is expressed in *pages*, because column
    blocks have widely varying physical sizes (Section 6.1).  Blocks are keyed
    by ``(chunk, column)``; pinning happens per block so a query only protects
    the columns it actually reads.

    The unpinned blocks sit in an :class:`LRUIndex`, so eviction walks
    candidates oldest first and stops as soon as it has freed enough pages
    instead of sorting the whole pool.  Blocks of reserved chunks stay in
    the index; :meth:`evictable_blocks` skips them.
    """

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 1:
            raise BufferPoolError("DSM block pool needs capacity >= 1 page")
        self._capacity_pages = capacity_pages
        self._blocks: Dict[BlockKey, BlockState] = {}
        #: Per-chunk index of the buffered blocks (column -> state), so that
        #: chunk-granularity questions (``blocks_of_chunk``,
        #: ``chunk_cached_pages``) cost O(blocks of that chunk) instead of a
        #: walk over the whole pool.  Per-chunk insertion order matches the
        #: global insertion order restricted to the chunk.
        self._by_chunk: Dict[int, Dict[str, BlockState]] = {}
        self._loading: Dict[BlockKey, int] = {}
        #: Chunks protected from eviction because a query has already chosen
        #: them as its next chunk (the DSM "avoid data waste" rule).
        self._reserved_chunks: Dict[int, int] = {}
        #: Running page counter covering buffered blocks and in-flight loads,
        #: kept incrementally because ``used_pages`` sits on the hot path of
        #: every load and eviction decision.
        self._used_pages: int = 0
        self._lru = LRUIndex()
        self.loads_completed: int = 0
        self.evictions: int = 0
        #: Optional observer (the DSM ABM's interest tracker) notified when a
        #: block becomes buffered or is evicted; must provide
        #: ``on_block_loaded(chunk, column, pages)`` and
        #: ``on_block_evicted(chunk, column, pages)``; it may additionally
        #: provide ``on_block_load_started(chunk, column)`` (used by the
        #: tracker's unrequested-block counts) -- an absent hook is skipped.
        self.listener = None

    # ------------------------------------------------------------ inspection
    def block(self, key: BlockKey) -> BlockState:
        """Return a buffered block (raises if absent)."""
        try:
            return self._blocks[key]
        except KeyError as exc:
            raise BufferPoolError(f"block {key} is not buffered") from exc

    def is_loading(self, key: BlockKey) -> bool:
        """Whether the block is currently in flight."""
        return key in self._loading

    def has_block(self, chunk: int, column: str) -> bool:
        """Whether the block is fully buffered."""
        return (chunk, column) in self._blocks

    def holds_chunk(self, chunk: int) -> bool:
        """Whether at least one block of the chunk is buffered."""
        return chunk in self._by_chunk

    def blocks_of_chunk(self, chunk: int) -> List[BlockState]:
        """All buffered blocks belonging to one logical chunk."""
        per_chunk = self._by_chunk.get(chunk)
        if not per_chunk:
            return []
        return list(per_chunk.values())

    def used_pages(self) -> int:
        """Pages occupied by buffered blocks plus in-flight loads."""
        return self._used_pages

    def free_pages(self) -> int:
        """Pages available without eviction."""
        return self._capacity_pages - self.used_pages()

    def chunk_cached_pages(self, chunk: int, columns: Optional[Iterable[str]] = None) -> int:
        """Buffered pages of a chunk, optionally restricted to some columns."""
        per_chunk = self._by_chunk.get(chunk)
        if not per_chunk:
            return 0
        if columns is None:
            return sum(state.pages for state in per_chunk.values())
        wanted = set(columns)
        return sum(
            per_chunk[column].pages for column in wanted if column in per_chunk
        )

    def evictable_blocks(
        self, protect_chunks: Sequence[int] = ()
    ) -> Iterator[BlockState]:
        """Unpinned blocks of unreserved chunks outside ``protect_chunks``,
        least recently used first (ties in load order).

        A lazy walk of the LRU index: a caller that stops early pays only
        for the blocks it looked at.  Do not change the pool while the walk
        is open.
        """
        reserved = self._reserved_chunks
        for block in self._lru:
            chunk = block.chunk
            if chunk not in reserved and chunk not in protect_chunks:
                yield block

    def evictable_blocks_of(
        self, chunks: Iterable[int], protect_chunks: Sequence[int] = ()
    ) -> List[BlockState]:
        """The :meth:`evictable_blocks` that belong to ``chunks``, in the same
        order, gathered from the per-chunk index and sorted: the cost follows
        the blocks of ``chunks``, not the size of the pool."""
        reserved = self._reserved_chunks
        blocks = [
            state
            for chunk in chunks
            if chunk not in reserved and chunk not in protect_chunks
            for state in self._by_chunk.get(chunk, {}).values()
            if not state.pinned
        ]
        # An unpinned block sits in the index under its current key.
        blocks.sort(key=LRUIndex.key)
        return blocks

    # ----------------------------------------------------------- reservation
    def reserve_chunk(self, chunk: int) -> None:
        """Protect a chunk from eviction (a query picked it as its next chunk)."""
        self._reserved_chunks[chunk] = self._reserved_chunks.get(chunk, 0) + 1

    def release_chunk(self, chunk: int) -> None:
        """Drop one reservation on a chunk."""
        count = self._reserved_chunks.get(chunk, 0)
        if count <= 0:
            raise BufferPoolError(f"chunk {chunk} is not reserved")
        if count == 1:
            del self._reserved_chunks[chunk]
        else:
            self._reserved_chunks[chunk] = count - 1

    def is_reserved(self, chunk: int) -> bool:
        """Whether the chunk is protected from eviction."""
        return self._reserved_chunks.get(chunk, 0) > 0

    # ------------------------------------------------------------- mutation
    def start_load(self, key: BlockKey, pages: int) -> None:
        """Reserve pages for an in-flight block load."""
        if pages <= 0:
            raise BufferPoolError("block load must cover at least one page")
        if key in self._blocks or key in self._loading:
            raise BufferPoolError(f"block {key} is already buffered or loading")
        if pages > self.free_pages():
            raise BufferPoolError(
                f"not enough free pages for block {key}: need {pages}, "
                f"have {self.free_pages()}"
            )
        self._loading[key] = pages
        self._used_pages += pages
        hook = getattr(self.listener, "on_block_load_started", None)
        if hook is not None:
            hook(*key)

    def complete_load(self, key: BlockKey, now: float) -> BlockState:
        """Mark an in-flight block load as finished."""
        if key not in self._loading:
            raise BufferPoolError(f"block {key} is not being loaded")
        pages = self._loading.pop(key)
        chunk, column = key
        state = BlockState(
            chunk=chunk,
            column=column,
            pages=pages,
            loaded_at=now,
            last_used=now,
            load_seq=self.loads_completed,
        )
        self._blocks[key] = state
        self._by_chunk.setdefault(chunk, {})[column] = state
        self._lru.add(state)
        self.loads_completed += 1
        if self.listener is not None:
            self.listener.on_block_loaded(chunk, column, pages)
        return state

    def pin(self, key: BlockKey, now: float) -> None:
        """A query starts consuming this block."""
        state = self.block(key)
        if state.pin_count == 0:
            self._lru.remove(state)
        state.pin_count += 1
        state.last_used = now

    def unpin(self, key: BlockKey, now: float) -> None:
        """A query finished consuming this block."""
        state = self.block(key)
        if state.pin_count <= 0:
            raise BufferPoolError(f"block {key} pin count already zero")
        state.pin_count -= 1
        state.last_used = now
        if state.pin_count == 0:
            self._lru.add(state)

    def evict(self, key: BlockKey) -> int:
        """Evict an unpinned block; returns the number of pages freed."""
        state = self.block(key)
        if state.pinned:
            raise BufferPoolError(f"cannot evict pinned block {key}")
        if self.is_reserved(state.chunk):
            raise BufferPoolError(
                f"cannot evict block {key}: chunk {state.chunk} is reserved"
            )
        del self._blocks[key]
        self._lru.remove(state)
        per_chunk = self._by_chunk[state.chunk]
        del per_chunk[state.column]
        if not per_chunk:
            del self._by_chunk[state.chunk]
        self._used_pages -= state.pages
        self.evictions += 1
        if self.listener is not None:
            self.listener.on_block_evicted(state.chunk, state.column, state.pages)
        return state.pages
