"""Tests for the sweep helpers used by the figure benchmarks."""

from repro.core.policies import POLICY_NAMES
from repro.sim.sweeps import (
    compare_nsm_policies,
    compare_dsm_policies,
    standalone_times,
)
from repro.sim.setup import nsm_abm_factory
from tests.conftest import make_request


def small_streams():
    return [
        [make_request(0, range(0, 16), cpu_per_chunk=0.002, name="A-50")],
        [make_request(1, range(16, 32), cpu_per_chunk=0.004, name="B-50")],
        [make_request(2, range(8, 24), cpu_per_chunk=0.002, name="A-50b")],
    ]


class TestComparePolicies:
    def test_compare_runs_all_policies(self, nsm_layout, small_config):
        results = compare_nsm_policies(small_streams(), small_config, nsm_layout)
        assert set(results) == set(POLICY_NAMES)
        for result in results.values():
            assert len(result.queries) == 3

    def test_subset_of_policies(self, nsm_layout, small_config):
        results = compare_nsm_policies(
            small_streams(), small_config, nsm_layout, policies=("normal", "relevance")
        )
        assert set(results) == {"normal", "relevance"}

    def test_dsm_compare(self, dsm_layout, small_config):
        streams = [
            [make_request(0, range(0, 8), columns=("key", "price"), cpu_per_chunk=0.001)],
            [make_request(1, range(4, 12), columns=("price",), cpu_per_chunk=0.001)],
        ]
        results = compare_dsm_policies(
            streams, small_config, dsm_layout, policies=("normal", "relevance"),
            capacity_pages=500,
        )
        assert set(results) == {"normal", "relevance"}


class TestStandaloneTimes:
    def test_one_time_per_query_name(self, nsm_layout, small_config):
        specs = [spec for stream in small_streams() for spec in stream]
        times = standalone_times(
            specs, small_config, nsm_abm_factory(nsm_layout, small_config, "normal")
        )
        assert set(times) == {"A-50", "B-50", "A-50b"}
        assert all(value > 0 for value in times.values())
