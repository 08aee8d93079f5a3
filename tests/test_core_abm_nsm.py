"""Tests for the NSM Active Buffer Manager (policy-independent behaviour)."""

import pytest

from repro.common.errors import SchedulingError
from repro.core.abm import ActiveBufferManager
from repro.core.policies import make_policy
from repro.core.cscan import ScanRequest
from tests.conftest import make_request


def make_abm(policy="relevance", num_chunks=16, capacity=4) -> ActiveBufferManager:
    return ActiveBufferManager(
        num_chunks=num_chunks,
        capacity_chunks=capacity,
        policy=make_policy(policy),
        chunk_bytes=1024,
    )


class TestRegistration:
    def test_register_and_unregister(self):
        abm = make_abm()
        handle = abm.register(make_request(1, range(4)), now=0.0)
        assert abm.num_active() == 1
        assert abm.handle(1) is handle
        abm.unregister(1, now=1.0)
        assert abm.num_active() == 0

    def test_duplicate_registration_raises(self):
        abm = make_abm()
        abm.register(make_request(1, range(4)), now=0.0)
        with pytest.raises(SchedulingError):
            abm.register(make_request(1, range(2)), now=0.0)

    def test_unknown_query_raises(self):
        with pytest.raises(SchedulingError):
            make_abm().handle(99)

    def test_interested_counts(self):
        abm = make_abm()
        abm.register(make_request(1, [0, 1, 2]), now=0.0)
        abm.register(make_request(2, [2, 3]), now=0.0)
        assert abm.interested_count(2) == 2
        assert abm.interested_count(0) == 1
        assert abm.interested_count(9) == 0
        assert {handle.query_id for handle in abm.interested_handles(2)} == {1, 2}


class TestDataPath:
    def test_select_blocks_until_load(self):
        abm = make_abm()
        abm.register(make_request(1, [0, 1]), now=0.0)
        assert abm.select_chunk(1, now=0.0) is None
        assert abm.handle(1).is_blocked
        operation = abm.next_load(now=0.0)
        assert operation is not None
        woken = abm.complete_load(operation, now=1.0)
        assert woken == [1]
        chunk = abm.select_chunk(1, now=1.0)
        assert chunk == operation.chunk
        assert abm.pool.slot(chunk).pinned

    def test_finish_chunk_unpins_and_marks_consumed(self):
        abm = make_abm()
        abm.register(make_request(1, [0]), now=0.0)
        abm.select_chunk(1, now=0.0)
        operation = abm.next_load(now=0.0)
        abm.complete_load(operation, now=1.0)
        chunk = abm.select_chunk(1, now=1.0)
        abm.finish_chunk(1, now=2.0)
        assert not abm.pool.slot(chunk).pinned
        assert abm.handle(1).finished

    def test_loads_attributed_to_trigger_query(self):
        abm = make_abm()
        abm.register(make_request(1, [0, 1]), now=0.0)
        abm.register(make_request(2, [0, 1]), now=0.0)
        abm.select_chunk(1, now=0.0)
        abm.select_chunk(2, now=0.0)
        operation = abm.next_load(now=0.0)
        abm.complete_load(operation, now=1.0)
        assert abm.io_requests == 1
        assert abm.loads_triggered[operation.triggered_by] == 1

    def test_next_load_idle_when_no_queries(self):
        abm = make_abm()
        assert abm.next_load(now=0.0) is None

    def test_load_counts_only_once_per_chunk(self):
        abm = make_abm()
        abm.register(make_request(1, [5]), now=0.0)
        abm.register(make_request(2, [5]), now=0.0)
        abm.select_chunk(1, now=0.0)
        abm.select_chunk(2, now=0.0)
        first = abm.next_load(now=0.0)
        assert first.chunk == 5
        # Chunk 5 is in flight; no other chunk is needed, so the disk idles.
        assert abm.next_load(now=0.0) is None
        abm.complete_load(first, now=1.0)
        assert abm.io_requests == 1

    def test_chunk_sizes_respected(self):
        abm = ActiveBufferManager(
            num_chunks=3,
            capacity_chunks=2,
            policy=make_policy("normal"),
            chunk_bytes=1000,
            chunk_sizes=[1000, 1000, 123],
        )
        abm.register(make_request(1, [2]), now=0.0)
        abm.select_chunk(1, now=0.0)
        operation = abm.next_load(now=0.0)
        assert operation.num_bytes == 123

    def test_chunk_sizes_length_validated(self):
        with pytest.raises(SchedulingError):
            ActiveBufferManager(
                num_chunks=3,
                capacity_chunks=2,
                policy=make_policy("normal"),
                chunk_bytes=1000,
                chunk_sizes=[1000],
            )


class TestStarvation:
    def test_starved_until_two_chunks_available(self):
        abm = make_abm(capacity=8)
        handle = abm.register(make_request(1, range(8)), now=0.0)
        assert abm.is_starved(handle)
        for expected_available in (1, 2):
            operation = abm.next_load(now=0.0)
            abm.complete_load(operation, now=1.0)
            assert abm.num_available_chunks(handle) == expected_available
        assert not abm.is_starved(handle)
        assert abm.almost_starved_interested_count(7) == 1

    def test_starved_handles_listing(self):
        abm = make_abm(capacity=8)
        starving = abm.register(make_request(1, range(8)), now=0.0)
        abm.register(make_request(2, range(4, 8), name="other"), now=0.0)
        assert {handle.query_id for handle in abm.starved_handles()} == {1, 2}
        for _ in range(3):
            operation = abm.next_load(now=0.0)
            if operation is None:
                break
            abm.complete_load(operation, now=1.0)
        # At least one query should have escaped starvation by now.
        assert len(abm.starved_handles()) < 2 or not abm.is_starved(starving)


class TestEvictionPath:
    def test_eviction_happens_when_pool_full(self):
        abm = make_abm(policy="normal", num_chunks=8, capacity=2)
        abm.register(make_request(1, range(8), cpu_per_chunk=0.0), now=0.0)
        abm.select_chunk(1, now=0.0)
        loaded = []
        for _ in range(3):
            operation = abm.next_load(now=0.0)
            if operation is None:
                break
            abm.complete_load(operation, now=1.0)
            loaded.append(operation.chunk)
            chunk = abm.select_chunk(1, now=1.0)
            if chunk is not None:
                abm.finish_chunk(1, now=2.0)
        # The pool never exceeds its capacity.
        assert abm.pool.in_use() <= 2
