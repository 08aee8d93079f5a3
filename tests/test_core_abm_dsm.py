"""Tests for the DSM Active Buffer Manager and DSM policies."""

import pytest

from repro.common.errors import ConfigurationError, SchedulingError
from repro.core.abm import DSMActiveBufferManager
from repro.core.policies import POLICY_NAMES, make_dsm_policy
from tests.conftest import make_request


def make_abm(dsm_layout, policy="relevance", capacity_pages=400, **kwargs):
    return DSMActiveBufferManager(
        layout=dsm_layout,
        capacity_pages=capacity_pages,
        policy=make_dsm_policy(policy, **kwargs),
    )


def drive_to_completion(abm, query_ids, max_steps=5000):
    """Round-robin all queries, loading when nobody can progress."""
    pending = set(query_ids)
    orders = {query_id: [] for query_id in query_ids}
    step = 0
    while pending:
        step += 1
        assert step < max_steps, "queries did not finish"
        progressed = False
        for query_id in list(pending):
            chunk = abm.select_chunk(query_id, now=float(step))
            if chunk is None:
                continue
            progressed = True
            orders[query_id].append(chunk)
            abm.finish_chunk(query_id, now=float(step))
            if abm.handle(query_id).finished:
                abm.unregister(query_id, now=float(step))
                pending.discard(query_id)
        if pending and not progressed:
            operation = abm.next_load(now=float(step))
            assert operation is not None, "DSM deadlock"
            abm.complete_load(operation, now=float(step))
    return orders


class TestDSMFactory:
    def test_all_policies_construct(self):
        for name in POLICY_NAMES:
            assert make_dsm_policy(name).name == name

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            make_dsm_policy("mystery")


class TestChunkReadiness:
    def test_chunk_ready_requires_all_columns(self, dsm_layout):
        abm = make_abm(dsm_layout)
        handle = abm.register(
            make_request(1, [0, 1], columns=("key", "price")), now=0.0
        )
        assert not abm.chunk_ready(handle, 0)
        operation = abm.next_load(now=0.0)
        assert operation.chunk in (0, 1)
        assert {block.column for block in operation.blocks} == {"key", "price"}
        abm.complete_load(operation, now=1.0)
        assert abm.chunk_ready(handle, operation.chunk)
        assert abm.num_available_chunks(handle) == 1

    def test_missing_columns_excludes_loading(self, dsm_layout):
        abm = make_abm(dsm_layout)
        abm.register(make_request(1, [0], columns=("key", "price")), now=0.0)
        operation = abm.next_load(now=0.0)
        # While the load is in flight nothing is missing (it is all on the way).
        assert abm.missing_columns(0, ("key", "price")) == []
        abm.complete_load(operation, now=1.0)
        assert abm.missing_columns(0, ("key", "price")) == []

    def test_select_pins_all_query_columns(self, dsm_layout):
        abm = make_abm(dsm_layout)
        abm.register(make_request(1, [0], columns=("key", "flag")), now=0.0)
        operation = abm.next_load(now=0.0)
        abm.complete_load(operation, now=1.0)
        chunk = abm.select_chunk(1, now=1.0)
        assert chunk == 0
        assert abm.pool.block((0, "key")).pinned
        assert abm.pool.block((0, "flag")).pinned
        abm.finish_chunk(1, now=2.0)
        assert not abm.pool.block((0, "key")).pinned

    def test_io_requests_counted_per_operation(self, dsm_layout):
        abm = make_abm(dsm_layout)
        abm.register(make_request(1, [0], columns=("key", "price", "flag")), now=0.0)
        operation = abm.next_load(now=0.0)
        assert len(operation.blocks) == 3
        assert abm.io_requests == 1
        assert abm.column_block_requests == 3

    def test_blocks_sorted_smallest_first(self, dsm_layout):
        abm = make_abm(dsm_layout)
        abm.register(make_request(1, [0], columns=("price", "key", "flag")), now=0.0)
        operation = abm.next_load(now=0.0)
        pages = [block.pages for block in operation.blocks]
        assert pages == sorted(pages)


class TestDSMPolicies:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_every_policy_completes_all_queries(self, dsm_layout, policy):
        abm = make_abm(dsm_layout, policy=policy, capacity_pages=300)
        abm.register(
            make_request(1, range(0, 12), columns=("key", "price"), cpu_per_chunk=0.0),
            now=0.0,
        )
        abm.register(
            make_request(2, range(6, 18), columns=("price", "flag"), cpu_per_chunk=0.0),
            now=0.0,
        )
        orders = drive_to_completion(abm, [1, 2])
        assert sorted(orders[1]) == list(range(0, 12))
        assert sorted(orders[2]) == list(range(6, 18))

    def test_normal_delivers_in_order(self, dsm_layout):
        abm = make_abm(dsm_layout, policy="normal", capacity_pages=300)
        abm.register(make_request(1, [2, 5, 9], columns=("key",)), now=0.0)
        orders = drive_to_completion(abm, [1])
        assert orders[1] == [2, 5, 9]

    def test_attach_starts_at_partner_position(self, dsm_layout):
        abm = make_abm(dsm_layout, policy="attach", capacity_pages=600)
        abm.register(
            make_request(1, range(0, 20), columns=("key", "price")), now=0.0
        )
        # advance query 1 a bit
        for _ in range(5):
            chunk = abm.select_chunk(1, now=0.0)
            if chunk is None:
                operation = abm.next_load(now=0.0)
                abm.complete_load(operation, now=0.0)
                chunk = abm.select_chunk(1, now=0.0)
            abm.finish_chunk(1, now=0.0)
        abm.register(
            make_request(2, range(0, 20), columns=("price", "flag")), now=1.0
        )
        order = abm.policy._order[2]
        assert order[0] > 0
        assert set(order) == set(range(0, 20))

    def test_attach_ignores_column_disjoint_queries(self, dsm_layout):
        abm = make_abm(dsm_layout, policy="attach", capacity_pages=600)
        abm.register(make_request(1, range(0, 20), columns=("key",)), now=0.0)
        for _ in range(4):
            chunk = abm.select_chunk(1, now=0.0)
            if chunk is None:
                operation = abm.next_load(now=0.0)
                abm.complete_load(operation, now=0.0)
                chunk = abm.select_chunk(1, now=0.0)
            abm.finish_chunk(1, now=0.0)
        abm.register(make_request(2, range(0, 20), columns=("price",)), now=1.0)
        # No shared columns: no attach, natural order.
        assert abm.policy._order[2][0] == 0

    def test_elevator_loads_union_of_columns(self, dsm_layout):
        abm = make_abm(dsm_layout, policy="elevator", capacity_pages=600)
        abm.register(make_request(1, [3, 4], columns=("key",)), now=0.0)
        abm.register(make_request(2, [3, 4], columns=("price",)), now=0.0)
        operation = abm.next_load(now=0.0)
        assert operation.chunk == 3
        assert {block.column for block in operation.blocks} == {"key", "price"}

    def test_relevance_reserves_partially_loaded_chunk(self, dsm_layout):
        abm = make_abm(dsm_layout, policy="relevance", capacity_pages=400)
        abm.register(make_request(1, [0, 1], columns=("key", "price")), now=0.0)
        operation = abm.next_load(now=0.0)
        abm.complete_load(operation, now=0.5)
        # Simulate a partially loaded second chunk by loading only one column.
        other = 1 if operation.chunk == 0 else 0
        abm.pool.start_load((other, "key"), pages=abm.block_pages(other, "key"))
        abm.pool.complete_load((other, "key"), now=0.6)
        # Query consumes the ready chunk, then blocks on the partial one.
        abm.select_chunk(1, now=1.0)
        abm.finish_chunk(1, now=1.5)
        assert abm.select_chunk(1, now=2.0) is None
        assert abm.pool.is_reserved(other)

    def test_relevance_prefers_cheap_shared_loads(self, dsm_layout):
        abm = make_abm(dsm_layout, policy="relevance", capacity_pages=800)
        # Two starved queries share chunk 5 on a narrow column; chunk 0 is
        # only wanted by one query on a wide column.
        abm.register(make_request(1, [0, 5], columns=("price",)), now=0.0)
        abm.register(make_request(2, [5], columns=("key",)), now=0.0)
        operation = abm.next_load(now=0.0)
        assert operation.chunk == 5

    def test_relevance_evicts_useless_blocks_first(self, dsm_layout):
        capacity = dsm_layout.chunk_pages(0, ("price",)) * 3
        abm = make_abm(dsm_layout, policy="relevance", capacity_pages=capacity)
        abm.register(
            make_request(1, list(range(0, 8)), columns=("price",), cpu_per_chunk=0.0),
            now=0.0,
        )
        orders = drive_to_completion(abm, [1])
        assert sorted(orders[1]) == list(range(0, 8))
        # Pages never exceeded capacity.
        assert abm.pool.used_pages() <= capacity
