"""Unit tests of the incremental interest trackers and their ABM wiring.

Beyond the golden-trace equivalence suite (which proves end-to-end that the
trackers change no scheduling decision), these tests cross-check the
maintained aggregates against the recompute-from-scratch oracle in
``tests/naive_relevance.py`` after every lifecycle event, and pin the
satellite fixes: the ABM's starvation predicates follow the bound policy's
``RelevanceParameters`` instead of a hardcoded 2, and ``loads_triggered``
has an entry for every registered query.
"""

from __future__ import annotations

import pytest

from repro.core.abm import (
    VECTOR_TRACKER_MIN_CHUNKS,
    ActiveBufferManager,
    DSMActiveBufferManager,
)
from repro.core.interest import (
    DSMInterestTracker,
    InterestTracker,
    VectorInterestTracker,
)
from repro.core.policies import POLICY_NAMES, make_dsm_policy, make_policy
from repro.core.policies.relevance import RelevanceParameters
from repro.sim.runner import run_simulation
from repro.sim.setup import make_nsm_abm
from repro.storage.dsm import DSMTableLayout
from repro.workload.queries import QueryFamily, QueryTemplate
from repro.workload.streams import build_streams

from tests.conftest import make_request
from tests.naive_relevance import NaiveTracker, use_naive_bookkeeping

#: Parametrisation over the two bookkeeping paths: the ABM's own tracker
#: and the recompute-from-scratch oracle.
BOOKKEEPING = pytest.mark.parametrize(
    "naive", [False, True], ids=["incremental", "naive"]
)


def _nsm_abm(num_chunks=16, capacity=4, naive=False, parameters=None):
    policy = make_policy("relevance", parameters=parameters)
    abm = ActiveBufferManager(
        num_chunks=num_chunks,
        capacity_chunks=capacity,
        policy=policy,
        chunk_bytes=1 << 20,
    )
    return use_naive_bookkeeping(abm) if naive else abm


def _check_consistency(abm) -> None:
    """Every tracker aggregate must equal the oracle's recomputation."""
    tracker = abm.tracker
    oracle = NaiveTracker(abm)
    for chunk in range(abm.num_chunks):
        assert tracker.interested_count(chunk) == oracle.interested_count(chunk)
        assert tracker.interested_ids(chunk) == oracle.interested_ids(chunk)
        assert tracker.starved_interested_count(
            chunk
        ) == oracle.starved_interested_count(chunk)
        assert tracker.almost_starved_interested_count(
            chunk
        ) == oracle.almost_starved_interested_count(chunk)
    assert tracker.starved_ids_ordered() == oracle.starved_ids_ordered()
    for handle in abm.active_handles():
        query_id = handle.query_id
        assert tracker.available_chunks(query_id) == oracle.available_chunks(query_id)
        assert tracker.available_count(query_id) == oracle.available_count(query_id)
        assert tracker._starved_flag[query_id] == oracle.is_starved(query_id)
        assert tracker._almost_flag[query_id] == oracle.is_almost_starved(query_id)
        if isinstance(abm, DSMActiveBufferManager):
            for chunk in handle.needed:
                assert tracker.cached_pages(query_id, chunk) == oracle.cached_pages(
                    query_id, chunk
                )


def _drive(abm, query_ids, steps=40) -> None:
    """Run loads, consumption and unregistration through the ABM, checking
    the tracker against the oracle after every step."""
    _check_consistency(abm)
    for step in range(steps):
        operation = abm.next_load(now=float(step))
        if operation is not None:
            abm.complete_load(operation, now=float(step) + 0.1)
        _check_consistency(abm)
        for query_id in query_ids:
            if abm.handle(query_id).finished:
                continue
            chunk = abm.select_chunk(query_id, now=float(step) + 0.2)
            _check_consistency(abm)
            if chunk is not None:
                abm.finish_chunk(query_id, now=float(step) + 0.3)
                _check_consistency(abm)
        if all(abm.handle(query_id).finished for query_id in query_ids):
            break
    for query_id in query_ids:
        if abm.handle(query_id).finished:
            abm.unregister(query_id, now=99.0)
            _check_consistency(abm)


class TestInterestTracker:
    def test_aggregates_track_full_lifecycle(self):
        abm = _nsm_abm()
        abm.register(make_request(1, range(0, 8)), now=0.0)
        abm.register(make_request(2, range(4, 12)), now=0.0)
        _drive(abm, (1, 2), steps=20)

    def test_dsm_aggregates_track_full_lifecycle(self, dsm_layout):
        """The DSM tracker (ready chunks, cached pages per needed chunk)
        agrees with the oracle through loads, evictions and consumption."""
        abm = DSMActiveBufferManager(
            layout=dsm_layout,
            capacity_pages=64,
            policy=make_dsm_policy("relevance"),
        )
        abm.register(
            make_request(1, range(0, 10), columns=("key", "price")), now=0.0
        )
        abm.register(
            make_request(2, range(5, 15), columns=("price", "flag")), now=0.0
        )
        abm.register(make_request(3, range(0, 15), columns=("ref",)), now=0.0)
        _drive(abm, (1, 2, 3))
        # Every query finished and left, and the small pool had to evict.
        assert abm.num_active() == 0
        assert abm.pool.evictions > 0

    def test_direct_pool_mutation_keeps_tracker_consistent(self):
        abm = _nsm_abm()
        abm.register(make_request(1, range(0, 6)), now=0.0)
        # Bypass the ABM: mutate the pool directly, like some drivers do.
        abm.pool.start_load(3)
        abm.pool.complete_load(3, now=0.5)
        assert abm.tracker.available_chunks(1) == {3}
        abm.pool.evict(3)
        assert abm.tracker.available_chunks(1) == set()
        _check_consistency(abm)

    def test_naive_oracle_is_pinned(self):
        """The oracle replaces the tracker and stops listening to the pool."""
        abm = _nsm_abm(naive=True)
        assert isinstance(abm.tracker, NaiveTracker)
        assert abm.pool.listener is None
        abm.register(make_request(1, range(0, 4)), now=0.0)
        assert abm.num_available_chunks(abm.handle(1)) == 0

    def test_oracle_must_precede_registration(self):
        abm = _nsm_abm()
        abm.register(make_request(1, range(0, 4)), now=0.0)
        with pytest.raises(ValueError, match="before any query registers"):
            use_naive_bookkeeping(abm)


class TestTrackerChoice:
    """The ABM picks its tracker once, at construction: the vector tracker
    only for NSM relevance on a table of at least
    ``VECTOR_TRACKER_MIN_CHUNKS`` chunks, the scalar one everywhere else."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize(
        "num_chunks", [VECTOR_TRACKER_MIN_CHUNKS - 1, VECTOR_TRACKER_MIN_CHUNKS]
    )
    def test_nsm(self, policy, num_chunks):
        abm = ActiveBufferManager(
            num_chunks=num_chunks,
            capacity_chunks=8,
            policy=make_policy(policy),
            chunk_bytes=1 << 20,
        )
        large_relevance = (
            policy == "relevance" and num_chunks >= VECTOR_TRACKER_MIN_CHUNKS
        )
        expected = VectorInterestTracker if large_relevance else InterestTracker
        assert type(abm.tracker) is expected
        assert abm.pool.listener is abm.tracker

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_dsm_is_always_scalar(self, dsm_schema, policy):
        layout = DSMTableLayout(
            schema=dsm_schema,
            num_tuples=VECTOR_TRACKER_MIN_CHUNKS * 1_000,
            tuples_per_chunk=1_000,
            page_bytes=64 * 1024,
        )
        assert layout.num_chunks >= VECTOR_TRACKER_MIN_CHUNKS
        abm = DSMActiveBufferManager(
            layout=layout, capacity_pages=256, policy=make_dsm_policy(policy)
        )
        assert type(abm.tracker) is DSMInterestTracker


class TestStarvationThresholdRouting:
    """Satellite fix: ``is_starved``, the almost-starved counts and
    ``starved_handles`` follow the bound policy's parameters instead of a
    hardcoded 2."""

    @BOOKKEEPING
    def test_threshold_three_starves_with_two_available(self, naive):
        parameters = RelevanceParameters(
            starvation_threshold=3, almost_starved_threshold=3
        )
        abm = _nsm_abm(naive=naive, parameters=parameters)
        assert abm.starvation_threshold == 3
        assert abm.almost_starved_threshold == 3
        handle = abm.register(make_request(1, range(0, 8)), now=0.0)
        for chunk in (0, 1):
            abm.pool.start_load(chunk)
            abm.pool.complete_load(chunk, now=0.1)
        # Two available chunks: starved under threshold 3, not under the
        # default 2.
        assert abm.num_available_chunks(handle) == 2
        assert abm.is_starved(handle)
        assert abm.almost_starved_interested_count(7) == 1
        assert [h.query_id for h in abm.starved_handles()] == [1]
        abm.pool.start_load(2)
        abm.pool.complete_load(2, now=0.2)
        assert not abm.is_starved(handle)
        assert abm.almost_starved_interested_count(7) == 1

    @BOOKKEEPING
    def test_default_threshold_without_parameters(self, naive):
        abm = ActiveBufferManager(
            num_chunks=8,
            capacity_chunks=4,
            policy=make_policy("elevator"),
            chunk_bytes=1 << 20,
        )
        if naive:
            use_naive_bookkeeping(abm)
        assert abm.starvation_threshold == 2
        assert abm.almost_starved_threshold == 2

    def test_dsm_threshold_routing(self, dsm_layout):
        parameters = RelevanceParameters(
            starvation_threshold=3, almost_starved_threshold=4
        )
        abm = DSMActiveBufferManager(
            layout=dsm_layout,
            capacity_pages=512,
            policy=make_dsm_policy("relevance", parameters=parameters),
        )
        assert abm.starvation_threshold == 3
        assert abm.almost_starved_threshold == 4

    def test_threshold_changes_scheduling_behaviour(self, nsm_layout, small_config):
        """The ablation knob must reach the whole starvation logic: a higher
        threshold changes which loads the relevance policy schedules."""
        fast = QueryFamily("F", cpu_per_chunk=0.002)
        templates = [QueryTemplate(fast, 50), QueryTemplate(fast, 100)]

        def run(parameters):
            streams = build_streams(templates, nsm_layout, 4, 2, seed=5)
            abm = make_nsm_abm(
                nsm_layout,
                small_config,
                "relevance",
                capacity_chunks=8,
                parameters=parameters,
            )
            return run_simulation(streams, small_config, abm)

        base = run(RelevanceParameters())
        wide = run(
            RelevanceParameters(starvation_threshold=3, almost_starved_threshold=3)
        )
        fingerprint = lambda r: [
            (q.query_id, q.finish_time, tuple(q.delivery_order)) for q in r.queries
        ]
        assert fingerprint(base) != fingerprint(wide)


class TestLoadsTriggeredAccounting:
    """Satellite fix: every registered query owns a ``loads_triggered``
    entry (possibly 0), and ``next_load`` bumps it without re-defaulting."""

    def test_entry_exists_for_every_registered_query(self):
        abm = _nsm_abm()
        abm.register(make_request(1, range(0, 4)), now=0.0)
        abm.register(make_request(2, range(0, 4)), now=0.0)
        assert abm.loads_triggered == {1: 0, 2: 0}
        operation = abm.next_load(now=0.0)
        assert operation is not None
        assert abm.loads_triggered[operation.triggered_by] == 1
        # The other query never triggered anything but still has its entry.
        other = 2 if operation.triggered_by == 1 else 1
        assert abm.loads_triggered[other] == 0

    def test_entries_survive_unregister(self, nsm_layout, small_config):
        fast = QueryFamily("F", cpu_per_chunk=0.001)
        streams = build_streams(
            [QueryTemplate(fast, 50)], nsm_layout, 3, 2, seed=11
        )
        specs = [spec for stream in streams for spec in stream]
        abm = make_nsm_abm(nsm_layout, small_config, "relevance", capacity_chunks=8)
        result = run_simulation(streams, small_config, abm)
        assert len(result.queries) == len(specs)
        for spec in specs:
            assert spec.query_id in abm.loads_triggered
