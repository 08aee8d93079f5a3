"""Golden-trace equivalence: incremental bookkeeping changes no decision.

The incremental interest trackers (:mod:`repro.core.interest`) and the
virtual-time event core exist purely to make scheduling cheaper; they must
not change a single scheduling decision.  These tests run the same workload
once with the ABM's own trackers and once with the recompute-from-scratch
oracle of ``tests/naive_relevance.py`` swapped in, across the full matrix
of storage model (NSM / DSM), disk shape (1 and 4 volumes) and workload
source (closed streams, a closed run large enough to select the numpy
engine, and open-system arrivals), and assert the outcomes are bit-for-bit
identical: same query finish times, same delivery orders, same I/O trace
records.
"""

from __future__ import annotations

import pytest

from repro.common.config import ServiceConfig
from repro.core.interest import VectorInterestTracker
from repro.service.admission import AdmissionController
from repro.service.arrivals import Arrival
from repro.service.server import OpenSystemSource
from repro.sim.results import scheduling_fingerprint as _fingerprint
from repro.sim.runner import ScanSimulator, run_simulation
from repro.sim.setup import make_dsm_abm, make_nsm_abm
from repro.sim.vector import AUTO_NUMPY_THRESHOLD, numpy_available
from repro.workload.queries import QueryFamily, QueryTemplate
from repro.workload.streams import build_streams

from tests.naive_relevance import NaiveTracker, use_naive_bookkeeping

NUM_STREAMS = 5
QUERIES_PER_STREAM = 2
SEED = 1234
#: Streams of the ``"closed-large"`` workload: 48 queries, enough for the
#: default ``engine="auto"`` to resolve numpy and try the vector tracker.
LARGE_STREAMS = 24
assert LARGE_STREAMS * QUERIES_PER_STREAM >= AUTO_NUMPY_THRESHOLD


def _nsm_workload():
    fast = QueryFamily("F", cpu_per_chunk=0.002)
    slow = QueryFamily("S", cpu_per_chunk=0.02)
    return [
        QueryTemplate(fast, 10),
        QueryTemplate(fast, 50),
        QueryTemplate(slow, 100),
    ]


def _dsm_workload():
    narrow = QueryFamily("F", cpu_per_chunk=0.002, columns=("key", "price"))
    medium = QueryFamily("G", cpu_per_chunk=0.002, columns=("price", "flag"))
    wide = QueryFamily("S", cpu_per_chunk=0.02, columns=("key", "ref", "date"))
    return [
        QueryTemplate(narrow, 10),
        QueryTemplate(medium, 50),
        QueryTemplate(wide, 100),
    ]


def _closed_streams(templates, layout, num_streams=NUM_STREAMS):
    return build_streams(
        templates, layout, num_streams, QUERIES_PER_STREAM, seed=SEED
    )


def _open_source(templates, layout):
    """A deterministic open-system arrival sequence through admission."""
    specs = [
        spec
        for stream in _closed_streams(templates, layout)
        for spec in stream
    ]
    arrivals = [
        Arrival(time=0.3 * index, spec=spec) for index, spec in enumerate(specs)
    ]
    admission = AdmissionController(
        ServiceConfig(max_concurrent=4, queue_capacity=64)
    )
    return OpenSystemSource(arrivals, admission)


def _workload(templates, layout, workload_kind):
    if workload_kind == "closed":
        return _closed_streams(templates, layout)
    if workload_kind == "closed-large":
        return _closed_streams(templates, layout, LARGE_STREAMS)
    return _open_source(templates, layout)


def _simulate(abm, workload, config, naive):
    """Run ``workload`` on ``abm`` (with the oracle swapped in when
    ``naive``); returns the result, the resolved engine and the tracker
    that answered the run."""
    if naive:
        use_naive_bookkeeping(abm)
    simulator = ScanSimulator(workload, config, abm, record_trace=True)
    return simulator.run(), simulator.resolved_engine, abm.tracker


def _run_nsm(nsm_layout, config, workload_kind, naive, policy="relevance"):
    abm = make_nsm_abm(nsm_layout, config, policy, capacity_chunks=8)
    workload = _workload(_nsm_workload(), nsm_layout, workload_kind)
    return _simulate(abm, workload, config, naive)


def _run_dsm(dsm_layout, config, workload_kind, naive, policy="relevance"):
    capacity_pages = max(64, int(dsm_layout.table_pages() * 0.3))
    abm = make_dsm_abm(dsm_layout, config, policy, capacity_pages=capacity_pages)
    workload = _workload(_dsm_workload(), dsm_layout, workload_kind)
    return _simulate(abm, workload, config, naive)


def _assert_equivalent(run, *args, **kwargs):
    """Run both bookkeeping paths; assert identical decisions and that the
    oracle really answered the naive side's every query."""
    naive, naive_engine, naive_tracker = run(*args, naive=True, **kwargs)
    incremental, engine, tracker = run(*args, naive=False, **kwargs)
    assert _fingerprint(naive) == _fingerprint(incremental)
    assert isinstance(naive_tracker, NaiveTracker)
    assert not isinstance(tracker, NaiveTracker)
    return naive_engine, engine, tracker


class TestNSMEquivalence:
    @pytest.mark.parametrize("volumes", [1, 4])
    @pytest.mark.parametrize("workload_kind", ["closed", "open", "closed-large"])
    def test_relevance_decisions_identical(
        self, nsm_layout, small_config, volumes, workload_kind
    ):
        config = small_config.with_volumes(volumes)
        naive_engine, engine, tracker = _assert_equivalent(
            _run_nsm, nsm_layout, config, workload_kind
        )
        if workload_kind == "closed-large" and numpy_available():
            # The numpy engine resolved on both sides: the oracle survived
            # the simulator's tracker swap, the incremental side took it.
            assert naive_engine == engine == "numpy"
            assert isinstance(tracker, VectorInterestTracker)

    @pytest.mark.parametrize("policy", ["normal", "attach", "elevator"])
    def test_other_policies_identical(self, nsm_layout, small_config, policy):
        _assert_equivalent(_run_nsm, nsm_layout, small_config, "closed", policy=policy)


class TestDSMEquivalence:
    @pytest.mark.parametrize("volumes", [1, 4])
    @pytest.mark.parametrize("workload_kind", ["closed", "open"])
    def test_relevance_decisions_identical(
        self, dsm_layout, small_config, volumes, workload_kind
    ):
        config = small_config.with_volumes(volumes)
        _assert_equivalent(_run_dsm, dsm_layout, config, workload_kind)

    @pytest.mark.parametrize("policy", ["normal", "attach", "elevator"])
    def test_other_policies_identical(self, dsm_layout, small_config, policy):
        _assert_equivalent(_run_dsm, dsm_layout, small_config, "closed", policy=policy)


class TestSchedulingInstrumentation:
    def test_scheduling_calls_reported(self, nsm_layout, small_config):
        result, _, _ = _run_nsm(nsm_layout, small_config, "closed", naive=False)
        assert result.scheduling_calls > 0
        assert result.per_decision_seconds >= 0.0
        # Non-counting policies report zero calls without breaking the result.
        normal, _, _ = _run_nsm(
            nsm_layout, small_config, "closed", naive=False, policy="normal"
        )
        assert normal.scheduling_calls == 0
        assert normal.per_decision_seconds == 0.0

    def test_scheduling_calls_are_per_run_for_reused_policy(
        self, nsm_layout, small_config
    ):
        """A policy object reused across simulations must report per-run
        decision counts, not its lifetime total."""
        from repro.core.policies import make_policy

        policy = make_policy("relevance")
        templates = _nsm_workload()

        def run():
            streams = build_streams(
                templates, nsm_layout, NUM_STREAMS, QUERIES_PER_STREAM, seed=SEED
            )
            abm = make_nsm_abm(nsm_layout, small_config, policy, capacity_chunks=8)
            return run_simulation(streams, small_config, abm)

        first = run()
        second = run()
        assert first.scheduling_calls > 0
        assert second.scheduling_calls == first.scheduling_calls
        assert policy.scheduling_calls == first.scheduling_calls * 2

    @pytest.mark.skipif(not numpy_available(), reason="numpy engine unavailable")
    def test_reused_policy_rebinds_its_vector_tracker(
        self, nsm_layout, small_config
    ):
        """A relevance policy reused across two numpy-engine runs must score
        with the current ABM's vector tracker, not the previous run's."""
        from repro.core.policies import make_policy

        policy = make_policy("relevance")
        templates = _nsm_workload()

        def run():
            streams = _closed_streams(templates, nsm_layout, LARGE_STREAMS)
            abm = make_nsm_abm(nsm_layout, small_config, policy, capacity_chunks=8)
            result = run_simulation(
                streams, small_config, abm, record_trace=True, engine="numpy"
            )
            assert isinstance(abm.tracker, VectorInterestTracker)
            assert policy._vector_tracker_cache is abm.tracker
            return result

        first = run()
        second = run()
        assert _fingerprint(second) == _fingerprint(first)
