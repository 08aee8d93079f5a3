"""Chunk-slot and column-block pools used by the Active Buffer Manager.

The ABM does not cache pages for their own sake: it tracks *chunks* (NSM) or
per-column *blocks of logical chunks* (DSM), together with which queries are
still interested in them and which queries are currently consuming them.
Those two pools are implemented here; the scheduling policies consult them
and the simulator mutates them as loads complete and queries consume data.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.errors import BufferPoolError

#: Key of a DSM column block: (logical chunk id, column name).
BlockKey = Tuple[int, str]


@dataclass
class ChunkSlot:
    """State of one buffered NSM chunk."""

    chunk: int
    loaded_at: float
    last_used: float
    pin_count: int = 0

    @property
    def pinned(self) -> bool:
        """Whether some query is currently consuming this chunk."""
        return self.pin_count > 0


class ChunkSlotPool:
    """Fixed-capacity pool of NSM chunk slots.

    Capacity accounting includes in-flight loads, so that the scheduler never
    over-commits the buffer: ``len(buffered) + len(loading) <= capacity``.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise BufferPoolError("chunk slot pool needs capacity >= 1")
        self._capacity = capacity
        self._slots: Dict[int, ChunkSlot] = {}
        self._loading: Set[int] = set()
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

    def unpinned_chunks(self) -> List[int]:
        """Buffered chunks not currently consumed by any query."""
        return [chunk for chunk, slot in self._slots.items() if not slot.pinned]

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
        slot = ChunkSlot(chunk=chunk, loaded_at=now, last_used=now)
        self._slots[chunk] = slot
        self.loads_completed += 1
        if self.listener is not None:
            self.listener.on_chunk_loaded(chunk)
        return slot

    def pin(self, chunk: int, now: float) -> None:
        """A query starts consuming the chunk."""
        slot = self.slot(chunk)
        slot.pin_count += 1
        slot.last_used = now

    def unpin(self, chunk: int, now: float) -> None:
        """A query finished consuming the chunk."""
        slot = self.slot(chunk)
        if slot.pin_count <= 0:
            raise BufferPoolError(f"chunk {chunk} pin count already zero")
        slot.pin_count -= 1
        slot.last_used = now

    def evict(self, chunk: int) -> None:
        """Remove an unpinned buffered chunk."""
        slot = self.slot(chunk)
        if slot.pinned:
            raise BufferPoolError(f"cannot evict pinned chunk {chunk}")
        del self._slots[chunk]
        self.evictions += 1
        if self.listener is not None:
            self.listener.on_chunk_evicted(chunk)


@dataclass
class BlockState:
    """State of one buffered DSM column block (one column of one chunk)."""

    chunk: int
    column: str
    pages: int
    loaded_at: float
    last_used: float
    #: The pool's load counter at ``complete_load``: the block's position in
    #: load order, used to break ``last_used`` ties.
    load_seq: int
    pin_count: int = 0

    @property
    def key(self) -> BlockKey:
        """The (chunk, column) key of this block."""
        return (self.chunk, self.column)

    @property
    def pinned(self) -> bool:
        """Whether some query is currently consuming this block."""
        return self.pin_count > 0


class DSMBlockPool:
    """Page-accounted pool of DSM column blocks.

    Unlike the NSM pool the capacity is expressed in *pages*, because column
    blocks have widely varying physical sizes (Section 6.1).  Blocks are keyed
    by ``(chunk, column)``; pinning happens per block so a query only protects
    the columns it actually reads.

    The pool keeps its unpinned blocks in an LRU index ordered by
    ``(last_used, load_seq)``, so eviction walks candidates oldest first and
    stops as soon as it has freed enough pages instead of sorting the whole
    pool.  ``load_seq`` is stamped from a per-pool counter at
    ``complete_load``, so it increases in load order and the index order
    equals a stable ``sort(key=last_used)`` of the buffered blocks in load
    order.
    Invariant: a block is in the index exactly when it is buffered and its
    pin count is zero, under the key it had when its pin count last reached
    zero (``last_used`` only changes on ``pin`` / ``unpin``).  Blocks of
    reserved chunks stay in the index; :meth:`evictable_blocks` skips them.
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
        #: The LRU index of unpinned blocks: sort keys ``(last_used,
        #: load_seq)`` and, at the same positions, the blocks themselves.
        self._lru_keys: List[Tuple[float, int]] = []
        self._lru_blocks: List[BlockState] = []
        self._next_load_seq: int = 0
        self.loads_completed: int = 0
        self.evictions: int = 0
        #: Optional observer (the DSM ABM's interest tracker) notified when a
        #: block becomes buffered or is evicted; must provide
        #: ``on_block_loaded(chunk, column, pages)`` and
        #: ``on_block_evicted(chunk, column, pages)``.
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
        for block in self._lru_blocks:
            chunk = block.chunk
            if chunk not in reserved and chunk not in protect_chunks:
                yield block

    def _index_add(self, state: BlockState) -> None:
        entry = (state.last_used, state.load_seq)
        position = bisect_left(self._lru_keys, entry)
        self._lru_keys.insert(position, entry)
        self._lru_blocks.insert(position, state)

    def _index_remove(self, state: BlockState) -> None:
        position = bisect_left(self._lru_keys, (state.last_used, state.load_seq))
        del self._lru_keys[position]
        del self._lru_blocks[position]

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
            load_seq=self._next_load_seq,
        )
        self._next_load_seq += 1
        self._blocks[key] = state
        self._by_chunk.setdefault(chunk, {})[column] = state
        self._index_add(state)
        self.loads_completed += 1
        if self.listener is not None:
            self.listener.on_block_loaded(chunk, column, pages)
        return state

    def pin(self, key: BlockKey, now: float) -> None:
        """A query starts consuming this block."""
        state = self.block(key)
        if state.pin_count == 0:
            self._index_remove(state)
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
            self._index_add(state)

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
        self._index_remove(state)
        per_chunk = self._by_chunk[state.chunk]
        del per_chunk[state.column]
        if not per_chunk:
            del self._by_chunk[state.chunk]
        self._used_pages -= state.pages
        self.evictions += 1
        if self.listener is not None:
            self.listener.on_block_evicted(state.chunk, state.column, state.pages)
        return state.pages
