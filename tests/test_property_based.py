"""Property-based tests (hypothesis) over the core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bufman.slots import ChunkSlotPool
from repro.core.abm import ActiveBufferManager
from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.cscan import ScanRequest
from repro.engine import AggregateSpec, CScan, ColumnTable, HashAggregate, OrderedAggregate, Scan, col
from repro.metrics.analytic import buffer_reuse_probability
from repro.storage.dsm import DSMTableLayout
from repro.storage.nsm import NSMTableLayout
from repro.storage.schema import ColumnSpec, DataType, TableSchema
from repro.storage.zonemap import ZoneMap, build_zonemap

SLOW_SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestEquationOneProperties:
    @given(
        table=st.integers(min_value=1, max_value=200),
        query=st.integers(min_value=0, max_value=200),
        buffer=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_probability_is_a_probability(self, table, query, buffer):
        query = min(query, table)
        buffer = min(buffer, table)
        probability = buffer_reuse_probability(table, query, buffer)
        assert 0.0 <= probability <= 1.0 + 1e-12

    @given(
        table=st.integers(min_value=2, max_value=100),
        query=st.integers(min_value=1, max_value=100),
        buffer=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_buffer(self, table, query, buffer):
        query = min(query, table)
        buffer = min(buffer, table - 1)
        smaller = buffer_reuse_probability(table, query, buffer)
        larger = buffer_reuse_probability(table, query, buffer + 1)
        assert larger >= smaller - 1e-12


class TestZoneMapProperties:
    @given(
        values=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=300),
        chunk_size=st.integers(min_value=1, max_value=50),
        low=st.integers(min_value=-1000, max_value=1000),
        span=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=150, deadline=None)
    def test_zonemap_never_misses_matching_chunks(self, values, chunk_size, low, span):
        array = np.array(values, dtype=float)
        zonemap = build_zonemap("x", array, chunk_size)
        high = low + span
        selected = set(zonemap.chunks_for_range(low, high))
        # Every chunk that truly contains a matching value must be selected.
        for chunk in range(zonemap.num_chunks):
            block = array[chunk * chunk_size : (chunk + 1) * chunk_size]
            if np.any((block >= low) & (block <= high)):
                assert chunk in selected

    @given(
        bounds=st.lists(
            st.tuples(
                st.integers(min_value=-100, max_value=100),
                st.integers(min_value=0, max_value=50),
            ),
            min_size=1,
            max_size=40,
        ),
        low=st.integers(min_value=-150, max_value=150),
        span=st.integers(min_value=-10, max_value=100),
    )
    @settings(max_examples=150, deadline=None)
    def test_chunks_for_range_is_exactly_the_overlapping_chunks(self, bounds, low, span):
        zonemap = ZoneMap(
            "x",
            minima=tuple(float(lo) for lo, _ in bounds),
            maxima=tuple(float(lo + width) for lo, width in bounds),
        )
        high = low + span
        selected = zonemap.chunks_for_range(low, high)
        # Sorted and unique, so it can serve directly as ScanRequest.chunks.
        assert selected == sorted(set(selected))
        expected = [
            chunk
            for chunk, (lo, width) in enumerate(bounds)
            if low <= high and lo <= high and lo + width >= low
        ]
        assert selected == expected


class TestChunkSlotPoolProperties:
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        operations=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_pool_never_exceeds_capacity(self, capacity, operations):
        pool = ChunkSlotPool(capacity)
        for chunk in operations:
            if chunk in pool:
                pool.evict(chunk)
                continue
            if chunk in pool.loading_chunks():
                pool.complete_load(chunk, now=0.0)
                continue
            if not pool.has_free_slot():
                buffered = pool.buffered_chunks()
                if buffered:
                    pool.evict(buffered[0])
                else:
                    continue
            pool.start_load(chunk)
            assert pool.in_use() <= capacity


class TestOrderedAggregationProperty:
    @given(
        num_rows=st.integers(min_value=1, max_value=400),
        tuples_per_chunk=st.integers(min_value=1, max_value=64),
        num_keys=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @SLOW_SETTINGS
    def test_matches_hash_aggregate_for_any_delivery_order(
        self, num_rows, tuples_per_chunk, num_keys, seed
    ):
        rng = np.random.default_rng(seed)
        keys = np.sort(rng.integers(0, num_keys, size=num_rows))
        values = rng.uniform(-5, 5, size=num_rows)
        table = ColumnTable("t", {"k": keys, "v": values}, tuples_per_chunk)
        order = list(rng.permutation(table.num_chunks))
        aggregates = [AggregateSpec("s", "sum", col("v")), AggregateSpec("n", "count")]
        ordered = OrderedAggregate(
            CScan(table, order, columns=["k", "v"]), ["k"], aggregates
        ).result()
        expected = HashAggregate(
            Scan(table, columns=["k", "v"]), ["k"], aggregates
        ).result()
        assert set(ordered) == set(expected)
        for key, stats in expected.items():
            assert ordered[key]["s"] == pytest.approx(stats["s"], rel=1e-9, abs=1e-9)
            assert ordered[key]["n"] == stats["n"]


class TestPolicyCompletenessProperty:
    @given(
        policy=st.sampled_from(POLICY_NAMES),
        capacity=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @SLOW_SETTINGS
    def test_every_query_receives_exactly_its_chunks(self, policy, capacity, seed):
        rng = np.random.default_rng(seed)
        num_chunks = 20
        abm = ActiveBufferManager(
            num_chunks=num_chunks,
            capacity_chunks=capacity,
            policy=make_policy(policy),
            chunk_bytes=1,
        )
        requests = []
        for query_id in range(3):
            start = int(rng.integers(0, num_chunks - 1))
            length = int(rng.integers(1, num_chunks - start))
            requests.append(
                ScanRequest(query_id, f"q{query_id}", tuple(range(start, start + length)))
            )
            abm.register(requests[-1], now=float(query_id))
        delivered = {request.query_id: [] for request in requests}
        pending = {request.query_id for request in requests}
        step = 0
        while pending:
            step += 1
            assert step < 5000, f"policy {policy} livelocked"
            progressed = False
            for query_id in sorted(pending):
                chunk = abm.select_chunk(query_id, now=float(step))
                if chunk is None:
                    continue
                progressed = True
                delivered[query_id].append(chunk)
                abm.finish_chunk(query_id, now=float(step))
                if abm.handle(query_id).finished:
                    abm.unregister(query_id, now=float(step))
                    pending.discard(query_id)
            if pending and not progressed:
                operation = abm.next_load(now=float(step))
                assert operation is not None, f"policy {policy} deadlocked"
                abm.complete_load(operation, now=float(step))
        for request in requests:
            assert sorted(delivered[request.query_id]) == list(request.chunks)
            assert len(delivered[request.query_id]) == len(set(delivered[request.query_id]))


class TestLayoutProperties:
    @given(
        num_tuples=st.integers(min_value=1, max_value=2_000_000),
        tuple_bytes=st.sampled_from([8, 16, 32, 64, 128]),
    )
    @settings(max_examples=100, deadline=None)
    def test_nsm_chunks_partition_the_table(self, num_tuples, tuple_bytes):
        columns = tuple(
            ColumnSpec(f"c{i}", DataType.INT64) for i in range(tuple_bytes // 8)
        )
        schema = TableSchema("t", columns)
        layout = NSMTableLayout(
            schema=schema, num_tuples=num_tuples, chunk_bytes=1 << 20, page_bytes=1 << 16
        )
        total = sum(layout.chunk_tuple_count(c) for c in layout.all_chunks())
        assert total == num_tuples

    @given(
        num_tuples=st.integers(min_value=1, max_value=500_000),
        tuples_per_chunk=st.integers(min_value=100, max_value=100_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_dsm_block_pages_at_least_column_total(self, num_tuples, tuples_per_chunk):
        schema = TableSchema(
            "t",
            (
                ColumnSpec("narrow", DataType.OID, compressed_bits=3),
                ColumnSpec("wide", DataType.DECIMAL),
            ),
        )
        layout = DSMTableLayout(
            schema=schema,
            num_tuples=num_tuples,
            tuples_per_chunk=tuples_per_chunk,
            page_bytes=1 << 16,
        )
        for column in ("narrow", "wide"):
            summed = sum(
                layout.block_pages(column, chunk) for chunk in range(layout.num_chunks)
            )
            assert summed >= layout.column_total_pages(column)
