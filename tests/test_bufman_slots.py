"""Tests for the ABM chunk-slot and DSM block pools."""

import pytest

from repro.bufman.slots import ChunkSlotPool, DSMBlockPool
from repro.common.errors import BufferPoolError


class TestChunkSlotPool:
    def test_load_lifecycle(self):
        pool = ChunkSlotPool(capacity=2)
        pool.start_load(5)
        assert pool.loading_chunks() == [5]
        assert 5 not in pool
        slot = pool.complete_load(5, now=1.0)
        assert slot.chunk == 5
        assert 5 in pool
        assert pool.loads_completed == 1

    def test_capacity_counts_inflight_loads(self):
        pool = ChunkSlotPool(capacity=2)
        pool.start_load(0)
        pool.start_load(1)
        assert not pool.has_free_slot()
        with pytest.raises(BufferPoolError):
            pool.start_load(2)

    def test_double_load_raises(self):
        pool = ChunkSlotPool(capacity=2)
        pool.start_load(0)
        with pytest.raises(BufferPoolError):
            pool.start_load(0)
        pool.complete_load(0, now=0.0)
        with pytest.raises(BufferPoolError):
            pool.start_load(0)

    def test_pin_prevents_eviction(self):
        pool = ChunkSlotPool(capacity=2)
        pool.start_load(0)
        pool.complete_load(0, now=0.0)
        pool.pin(0, now=1.0)
        with pytest.raises(BufferPoolError):
            pool.evict(0)
        pool.unpin(0, now=2.0)
        pool.evict(0)
        assert 0 not in pool
        assert pool.evictions == 1

    def test_unpin_without_pin_raises(self):
        pool = ChunkSlotPool(capacity=1)
        pool.start_load(0)
        pool.complete_load(0, now=0.0)
        with pytest.raises(BufferPoolError):
            pool.unpin(0, now=0.0)

    def test_evictable_slots_in_lru_order(self):
        """Unpinned slots only, least recently used first, ties in load
        order -- also for a slot pinned and unpinned at the tied time."""
        pool = ChunkSlotPool(capacity=4)
        for chunk in (3, 0, 2, 1):
            pool.start_load(chunk)
            pool.complete_load(chunk, now=1.0)
        pool.pin(1, now=5.0)
        pool.pin(3, now=1.0)
        pool.unpin(3, now=1.0)
        pool.pin(0, now=0.5)
        pool.unpin(0, now=0.5)
        assert [slot.chunk for slot in pool.evictable_slots()] == [0, 3, 2]
        pool.unpin(1, now=6.0)
        pool.evict(3)
        assert [slot.chunk for slot in pool.evictable_slots()] == [0, 2, 1]

    def test_last_used_updates_on_pin_unpin(self):
        pool = ChunkSlotPool(capacity=1)
        pool.start_load(0)
        slot = pool.complete_load(0, now=0.0)
        pool.pin(0, now=3.0)
        assert slot.last_used == 3.0
        pool.unpin(0, now=7.0)
        assert slot.last_used == 7.0

    def test_rejects_zero_capacity(self):
        with pytest.raises(BufferPoolError):
            ChunkSlotPool(capacity=0)


    def test_slot_of_unbuffered_chunk_raises(self):
        pool = ChunkSlotPool(capacity=1)
        with pytest.raises(BufferPoolError):
            pool.slot(0)
        pool.start_load(0)
        with pytest.raises(BufferPoolError):
            pool.slot(0)  # in flight is not buffered yet

    def test_complete_load_without_start_raises(self):
        pool = ChunkSlotPool(capacity=1)
        with pytest.raises(BufferPoolError):
            pool.complete_load(0, now=0.0)

    def test_pin_and_evict_of_unbuffered_chunk_raise(self):
        pool = ChunkSlotPool(capacity=1)
        pool.start_load(0)
        with pytest.raises(BufferPoolError):
            pool.pin(0, now=0.0)
        with pytest.raises(BufferPoolError):
            pool.evict(0)
        assert pool.loading_chunks() == [0]

    def test_free_slots_accounting(self):
        pool = ChunkSlotPool(capacity=3)
        assert pool.free_slots() == 3
        pool.start_load(0)
        pool.start_load(1)
        pool.complete_load(0, now=0.0)
        assert pool.in_use() == 2
        assert pool.free_slots() == 1
        pool.evict(0)
        assert pool.free_slots() == 2

    def test_loading_chunks_lists_inflight_only(self):
        pool = ChunkSlotPool(capacity=3)
        pool.start_load(4)
        pool.start_load(9)
        pool.complete_load(4, now=0.0)
        assert pool.loading_chunks() == [9]
        assert pool.buffered_chunks() == [4]

    def test_occupies_slot_while_loading_or_buffered(self):
        pool = ChunkSlotPool(capacity=2)
        assert not pool.occupies_slot(3)
        pool.start_load(3)
        assert pool.occupies_slot(3)
        pool.complete_load(3, now=0.0)
        assert pool.occupies_slot(3)
        pool.evict(3)
        assert not pool.occupies_slot(3)

    def test_pins_nest(self):
        pool = ChunkSlotPool(capacity=1)
        pool.start_load(0)
        slot = pool.complete_load(0, now=0.0)
        pool.pin(0, now=1.0)
        pool.pin(0, now=2.0)
        pool.unpin(0, now=3.0)
        assert slot.pinned
        with pytest.raises(BufferPoolError):
            pool.evict(0)
        pool.unpin(0, now=4.0)
        assert not slot.pinned
        pool.evict(0)

    def test_iteration_yields_slots_in_load_order(self):
        pool = ChunkSlotPool(capacity=3)
        for chunk in (7, 2, 5):
            pool.start_load(chunk)
        for now, chunk in enumerate((5, 7, 2)):
            pool.complete_load(chunk, now=float(now))
        assert pool.buffered_chunks() == [5, 7, 2]
        assert [pool.slot(chunk).loaded_at for chunk in (5, 7, 2)] == [0.0, 1.0, 2.0]
        assert pool.in_use() == 3

    def test_listener_sees_loads_and_evictions(self):
        events = []

        class Listener:
            def on_chunk_loaded(self, chunk):
                events.append(("loaded", chunk))

            def on_chunk_evicted(self, chunk):
                events.append(("evicted", chunk))

            def on_load_started(self, chunk):
                events.append(("started", chunk))

        pool = ChunkSlotPool(capacity=2)
        pool.listener = Listener()
        pool.start_load(0)
        pool.start_load(1)
        pool.complete_load(0, now=0.0)
        pool.evict(0)
        pool.complete_load(1, now=1.0)
        assert events == [
            ("started", 0),
            ("started", 1),
            ("loaded", 0),
            ("evicted", 0),
            ("loaded", 1),
        ]

    def test_listener_optional_hooks_may_be_absent(self):
        events = []

        class MinimalListener:
            def on_chunk_loaded(self, chunk):
                events.append(("loaded", chunk))

            def on_chunk_evicted(self, chunk):
                events.append(("evicted", chunk))

        pool = ChunkSlotPool(capacity=2)
        pool.listener = MinimalListener()
        pool.start_load(0)
        pool.start_load(1)
        pool.complete_load(0, now=0.0)
        pool.evict(0)
        assert events == [("loaded", 0), ("evicted", 0)]

class TestDSMBlockPool:
    def test_load_lifecycle_and_page_accounting(self):
        pool = DSMBlockPool(capacity_pages=100)
        pool.start_load((0, "a"), pages=30)
        assert pool.used_pages() == 30
        pool.complete_load((0, "a"), now=1.0)
        assert pool.used_pages() == 30
        assert pool.has_block(0, "a")
        assert pool.free_pages() == 70

    def test_start_load_over_capacity_raises(self):
        pool = DSMBlockPool(capacity_pages=10)
        with pytest.raises(BufferPoolError):
            pool.start_load((0, "a"), pages=11)

    def test_eviction_returns_pages(self):
        pool = DSMBlockPool(capacity_pages=100)
        pool.start_load((0, "a"), pages=40)
        pool.complete_load((0, "a"), now=0.0)
        freed = pool.evict((0, "a"))
        assert freed == 40
        assert pool.used_pages() == 0
        assert pool.evictions == 1

    def test_pinned_block_cannot_be_evicted(self):
        pool = DSMBlockPool(capacity_pages=100)
        pool.start_load((0, "a"), pages=10)
        pool.complete_load((0, "a"), now=0.0)
        pool.pin((0, "a"), now=1.0)
        with pytest.raises(BufferPoolError):
            pool.evict((0, "a"))
        pool.unpin((0, "a"), now=2.0)
        pool.evict((0, "a"))

    def test_reserved_chunk_blocks_eviction(self):
        pool = DSMBlockPool(capacity_pages=100)
        pool.start_load((3, "a"), pages=10)
        pool.complete_load((3, "a"), now=0.0)
        pool.reserve_chunk(3)
        assert pool.is_reserved(3)
        with pytest.raises(BufferPoolError):
            pool.evict((3, "a"))
        pool.release_chunk(3)
        pool.evict((3, "a"))

    def test_reservation_counts_nest(self):
        pool = DSMBlockPool(capacity_pages=10)
        pool.reserve_chunk(1)
        pool.reserve_chunk(1)
        pool.release_chunk(1)
        assert pool.is_reserved(1)
        pool.release_chunk(1)
        assert not pool.is_reserved(1)
        with pytest.raises(BufferPoolError):
            pool.release_chunk(1)

    def test_chunk_cached_pages(self):
        pool = DSMBlockPool(capacity_pages=100)
        for column, pages in (("a", 10), ("b", 20)):
            pool.start_load((0, column), pages=pages)
            pool.complete_load((0, column), now=0.0)
        assert pool.chunk_cached_pages(0) == 30
        assert pool.chunk_cached_pages(0, ["a"]) == 10
        assert pool.chunk_cached_pages(1) == 0

    def test_blocks_of_chunk(self):
        pool = DSMBlockPool(capacity_pages=100)
        pool.start_load((0, "a"), pages=5)
        pool.complete_load((0, "a"), now=0.0)
        pool.start_load((2, "b"), pages=5)
        pool.complete_load((2, "b"), now=0.0)
        assert [block.column for block in pool.blocks_of_chunk(0)] == ["a"]
        assert [block.column for block in pool.blocks_of_chunk(2)] == ["b"]
        assert pool.blocks_of_chunk(1) == []

    def test_double_load_raises(self):
        pool = DSMBlockPool(capacity_pages=100)
        pool.start_load((0, "a"), pages=5)
        with pytest.raises(BufferPoolError):
            pool.start_load((0, "a"), pages=5)

    def test_zero_page_load_rejected(self):
        pool = DSMBlockPool(capacity_pages=100)
        with pytest.raises(BufferPoolError):
            pool.start_load((0, "a"), pages=0)

    def test_rejects_zero_capacity(self):
        with pytest.raises(BufferPoolError):
            DSMBlockPool(capacity_pages=0)

    def test_block_of_unbuffered_key_raises(self):
        pool = DSMBlockPool(capacity_pages=10)
        with pytest.raises(BufferPoolError):
            pool.block((0, "a"))
        pool.start_load((0, "a"), pages=2)
        with pytest.raises(BufferPoolError):
            pool.block((0, "a"))  # in flight is not buffered yet
        with pytest.raises(BufferPoolError):
            pool.evict((0, "a"))

    def test_complete_load_without_start_raises(self):
        pool = DSMBlockPool(capacity_pages=10)
        with pytest.raises(BufferPoolError):
            pool.complete_load((0, "a"), now=0.0)

    def test_loading_and_buffered_are_distinct_states(self):
        pool = DSMBlockPool(capacity_pages=10)
        pool.start_load((1, "a"), pages=3)
        assert pool.is_loading((1, "a"))
        assert not pool.has_block(1, "a")
        assert pool.blocks_of_chunk(1) == []
        state = pool.complete_load((1, "a"), now=2.0)
        assert not pool.is_loading((1, "a"))
        assert pool.has_block(1, "a")
        assert state.key == (1, "a")
        assert state.loaded_at == state.last_used == 2.0
        assert pool.loads_completed == 1

    def test_inflight_loads_count_against_capacity(self):
        pool = DSMBlockPool(capacity_pages=10)
        pool.start_load((0, "a"), pages=6)
        assert pool.free_pages() == 4
        with pytest.raises(BufferPoolError):
            pool.start_load((0, "b"), pages=5)
        pool.start_load((0, "b"), pages=4)
        assert pool.free_pages() == 0

    def test_pins_nest(self):
        pool = DSMBlockPool(capacity_pages=10)
        pool.start_load((0, "a"), pages=1)
        state = pool.complete_load((0, "a"), now=0.0)
        pool.pin((0, "a"), now=1.0)
        pool.pin((0, "a"), now=2.0)
        pool.unpin((0, "a"), now=3.0)
        assert state.pinned
        assert state.last_used == 3.0
        with pytest.raises(BufferPoolError):
            pool.evict((0, "a"))
        pool.unpin((0, "a"), now=4.0)
        assert pool.evict((0, "a")) == 1

    def test_unpin_without_pin_raises(self):
        pool = DSMBlockPool(capacity_pages=10)
        pool.start_load((0, "a"), pages=1)
        pool.complete_load((0, "a"), now=0.0)
        with pytest.raises(BufferPoolError):
            pool.unpin((0, "a"), now=0.0)

    def test_evicting_last_block_drops_the_chunk(self):
        pool = DSMBlockPool(capacity_pages=10)
        for column in ("a", "b"):
            pool.start_load((0, column), pages=2)
            pool.complete_load((0, column), now=0.0)
        pool.evict((0, "a"))
        assert [block.column for block in pool.blocks_of_chunk(0)] == ["b"]
        pool.evict((0, "b"))
        assert pool.blocks_of_chunk(0) == []
        assert pool.chunk_cached_pages(0) == 0

    def test_chunk_cached_pages_ignores_columns_not_buffered(self):
        pool = DSMBlockPool(capacity_pages=100)
        pool.start_load((0, "a"), pages=10)
        pool.complete_load((0, "a"), now=0.0)
        pool.start_load((0, "b"), pages=20)  # in flight: not cached yet
        assert pool.chunk_cached_pages(0, ["a", "b", "zzz"]) == 10
        assert pool.chunk_cached_pages(0, []) == 0

    def test_listener_sees_loads_and_evictions(self):
        events = []

        class Listener:
            def on_block_loaded(self, chunk, column, pages):
                events.append(("loaded", chunk, column, pages))

            def on_block_evicted(self, chunk, column, pages):
                events.append(("evicted", chunk, column, pages))

        pool = DSMBlockPool(capacity_pages=100)
        pool.listener = Listener()
        pool.start_load((0, "a"), pages=3)
        pool.start_load((1, "b"), pages=4)
        pool.complete_load((0, "a"), now=0.0)
        pool.complete_load((1, "b"), now=0.0)
        pool.evict((0, "a"))
        assert events == [
            ("loaded", 0, "a", 3),
            ("loaded", 1, "b", 4),
            ("evicted", 0, "a", 3),
        ]
