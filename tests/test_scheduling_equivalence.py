"""Golden-trace equivalence: incremental bookkeeping changes no decision.

The interest trackers (:mod:`repro.core.interest`) and the virtual-time
event core exist purely to make scheduling cheaper; they must not change a
single scheduling decision.  These tests run the same workload once with a
real tracker and once with the recompute-from-scratch oracle of
``tests/naive_relevance.py`` swapped in, across the full matrix of storage
model (NSM / DSM), disk shape (1 and 4 volumes), workload source (closed
streams, a larger closed run and open-system arrivals) and, for NSM
relevance, both the dict-counter and the numpy-counter tracker, and assert
the outcomes are bit-for-bit identical: same query finish times, same
delivery orders, same I/O trace records.
"""

from __future__ import annotations

import pytest

from repro.common.config import ServiceConfig
from repro.core.interest import InterestTracker, VectorInterestTracker
from repro.service.admission import AdmissionController
from repro.service.arrivals import Arrival
from repro.service.server import OpenSystemSource
from repro.sim.results import scheduling_fingerprint as _fingerprint
from repro.sim.runner import run_simulation
from repro.sim.setup import make_dsm_abm, make_nsm_abm
from repro.workload.queries import QueryFamily, QueryTemplate
from repro.workload.streams import build_streams

from tests.naive_relevance import (
    NaiveTracker,
    use_naive_bookkeeping,
    use_scalar_tracker,
    use_vector_tracker,
)

NUM_STREAMS = 5
QUERIES_PER_STREAM = 2
SEED = 1234
#: Streams of the ``"closed-large"`` workload (48 queries).
LARGE_STREAMS = 24

#: How an ABM answers relevance queries in one run: the oracle, one of the
#: two real trackers pinned, or whichever tracker the ABM picked itself.
BOOKKEEPING = {
    "naive": use_naive_bookkeeping,
    "scalar": use_scalar_tracker,
    "vector": use_vector_tracker,
    "own": lambda abm: abm,
}
TRACKER_CLASSES = {"scalar": InterestTracker, "vector": VectorInterestTracker}


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


def _simulate(abm, workload, config, bookkeeping):
    """Run ``workload`` on ``abm`` with the ``bookkeeping`` swapped in;
    returns the result and the tracker that answered the run."""
    BOOKKEEPING[bookkeeping](abm)
    return run_simulation(workload, config, abm, record_trace=True), abm.tracker


def _run_nsm(nsm_layout, config, workload_kind, bookkeeping, policy="relevance"):
    abm = make_nsm_abm(nsm_layout, config, policy, capacity_chunks=8)
    workload = _workload(_nsm_workload(), nsm_layout, workload_kind)
    return _simulate(abm, workload, config, bookkeeping)


def _run_dsm(dsm_layout, config, workload_kind, bookkeeping, policy="relevance"):
    capacity_pages = max(64, int(dsm_layout.table_pages() * 0.3))
    abm = make_dsm_abm(dsm_layout, config, policy, capacity_pages=capacity_pages)
    workload = _workload(_dsm_workload(), dsm_layout, workload_kind)
    return _simulate(abm, workload, config, bookkeeping)


def _assert_equivalent(run, *args, tracker="own", **kwargs):
    """Run the oracle and ``tracker``; assert identical decisions and that
    the oracle really answered the naive side's every query.  Returns the
    tracker that answered the other side."""
    naive, naive_tracker = run(*args, bookkeeping="naive", **kwargs)
    result, used = run(*args, bookkeeping=tracker, **kwargs)
    assert _fingerprint(naive) == _fingerprint(result)
    assert isinstance(naive_tracker, NaiveTracker)
    assert not isinstance(used, NaiveTracker)
    return used


class TestNSMEquivalence:
    @pytest.mark.parametrize("volumes", [1, 4])
    @pytest.mark.parametrize("workload_kind", ["closed", "open", "closed-large"])
    @pytest.mark.parametrize("tracker", ["scalar", "vector"])
    def test_relevance_decisions_identical(
        self, nsm_layout, small_config, volumes, workload_kind, tracker
    ):
        config = small_config.with_volumes(volumes)
        used = _assert_equivalent(
            _run_nsm, nsm_layout, config, workload_kind, tracker=tracker
        )
        assert type(used) is TRACKER_CLASSES[tracker]

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
        result, _ = _run_nsm(nsm_layout, small_config, "closed", "own")
        assert result.scheduling_calls > 0
        assert result.per_decision_seconds >= 0.0
        # Non-counting policies report zero calls without breaking the result.
        normal, _ = _run_nsm(
            nsm_layout, small_config, "closed", "own", policy="normal"
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

    def test_reused_policy_rebinds_its_vector_tracker(
        self, nsm_layout, small_config
    ):
        """A relevance policy reused across two vector-tracker runs must
        score with the current ABM's tracker, not the previous run's."""
        from repro.core.policies import make_policy

        policy = make_policy("relevance")
        templates = _nsm_workload()

        def run():
            streams = _closed_streams(templates, nsm_layout, LARGE_STREAMS)
            abm = make_nsm_abm(nsm_layout, small_config, policy, capacity_chunks=8)
            use_vector_tracker(abm)
            result = run_simulation(streams, small_config, abm, record_trace=True)
            assert policy._vector_tracker() is abm.tracker
            return result

        first = run()
        second = run()
        assert _fingerprint(second) == _fingerprint(first)
