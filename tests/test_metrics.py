"""Tests for the analytic models, statistics and report rendering."""

import math

import pytest

from repro.metrics.analytic import (
    buffer_reuse_probability,
    buffer_reuse_probability_curve,
    monte_carlo_reuse_probability,
)
from repro.metrics.reference import (
    TPCH_2006_RESULTS,
    average_disk_count,
    average_total_storage_tb,
    concurrency_slowdown,
    disk_fill_fraction,
    storage_cost_share,
)
from repro.metrics.report import format_table, render_policy_comparison, render_query_table
from repro.metrics.stats import (
    PolicyComparison,
    QueryTypeStats,
    compare_runs,
    per_query_type_stats,
    summarise_run,
)
from repro.sim.results import QueryResult, RunResult, StreamResult
from repro.common.errors import ConfigurationError


class TestEquationOne:
    def test_matches_figure2_anchor_point(self):
        # "over 50% for a 10% scan with a buffer pool holding 10% of the relation"
        probability = buffer_reuse_probability(100, 10, 10)
        assert probability > 0.5

    def test_zero_buffer_or_demand(self):
        assert buffer_reuse_probability(100, 10, 0) == 0.0
        assert buffer_reuse_probability(100, 0, 10) == 0.0

    def test_full_buffer_certain(self):
        assert buffer_reuse_probability(100, 1, 100) == pytest.approx(1.0)

    def test_monotone_in_buffer_size(self):
        probabilities = [
            buffer_reuse_probability(100, 10, buffer) for buffer in (1, 5, 10, 20, 50)
        ]
        assert probabilities == sorted(probabilities)

    def test_monotone_in_query_demand(self):
        probabilities = [
            buffer_reuse_probability(100, demand, 10) for demand in (1, 5, 10, 50, 100)
        ]
        assert probabilities == sorted(probabilities)

    def test_matches_monte_carlo(self):
        analytic = buffer_reuse_probability(50, 5, 10)
        simulated = monte_carlo_reuse_probability(50, 5, 10, trials=30_000, seed=1)
        assert analytic == pytest.approx(simulated, abs=0.02)

    def test_curve_shape(self):
        curves = buffer_reuse_probability_curve(
            100, buffer_fractions=[0.01, 0.5], query_demands=[1, 10, 100]
        )
        assert set(curves) == {0.01, 0.5}
        # Larger buffer fraction dominates pointwise.
        small = dict(curves[0.01])
        large = dict(curves[0.5])
        assert all(large[demand] >= small[demand] for demand in (1, 10, 100))

    def test_overlap_certain_when_demand_and_buffer_exceed_table(self):
        # 60 + 50 > 100: any 50 buffered chunks must include a wanted one.
        assert buffer_reuse_probability(100, 60, 50) == 1.0

    def test_symmetric_in_demand_and_buffer(self):
        # Both are uniformly random subsets, so swapping their sizes keeps
        # the chance that they are disjoint.
        for demand, buffer in ((3, 17), (10, 25), (1, 99)):
            assert buffer_reuse_probability(100, demand, buffer) == pytest.approx(
                buffer_reuse_probability(100, buffer, demand)
            )

    def test_monte_carlo_is_seeded(self):
        first = monte_carlo_reuse_probability(40, 4, 6, trials=500, seed=7)
        assert first == monte_carlo_reuse_probability(40, 4, 6, trials=500, seed=7)
        assert monte_carlo_reuse_probability(40, 0, 6, trials=500) == 0.0
        assert monte_carlo_reuse_probability(40, 4, 0, trials=500) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            buffer_reuse_probability(0, 0, 0)
        with pytest.raises(ConfigurationError):
            buffer_reuse_probability(100, 101, 10)
        with pytest.raises(ConfigurationError):
            monte_carlo_reuse_probability(10, 1, 1, trials=0)


class TestReferenceTable:
    def test_four_systems(self):
        assert len(TPCH_2006_RESULTS) == 4

    def test_average_disk_count_matches_paper(self):
        assert average_disk_count() == pytest.approx(149.25, abs=0.01)

    def test_average_storage_matches_paper(self):
        assert average_total_storage_tb() == pytest.approx(3.8, abs=0.05)

    def test_storage_cost_share_high(self):
        assert storage_cost_share() > 0.6

    def test_disks_less_than_ten_percent_full(self):
        assert all(fraction < 0.1 for fraction in disk_fill_fraction())

    def test_concurrency_hurts_throughput(self):
        assert all(ratio >= 1.0 for ratio in concurrency_slowdown())


def build_run(policy: str, scale: float = 1.0) -> RunResult:
    queries = [
        QueryResult(0, "F-10", 0, 0.0, 10.0 * scale, 4, 1.0, 4),
        QueryResult(1, "F-10", 1, 3.0, 18.0 * scale, 4, 1.0, 3),
        QueryResult(2, "S-50", 0, 10.0, 40.0 * scale, 16, 8.0, 10),
    ]
    streams = [
        StreamResult(0, 0.0, 40.0 * scale, ["F-10", "S-50"]),
        StreamResult(1, 3.0, 18.0 * scale, ["F-10"]),
    ]
    return RunResult(
        policy=policy,
        total_time=40.0 * scale,
        io_requests=int(17 * scale),
        bytes_read=1000,
        cpu_utilisation=0.8,
        queries=queries,
        streams=streams,
    )


STANDALONE = {"F-10": 5.0, "S-50": 20.0}


class TestStats:
    def test_summarise_run(self):
        stats = summarise_run(build_run("relevance"), STANDALONE)
        assert stats.policy == "relevance"
        assert stats.avg_stream_time == pytest.approx((40.0 + 15.0) / 2)
        assert stats.io_requests == 17

    def test_per_query_type_stats(self):
        stats = {s.name: s for s in per_query_type_stats(build_run("x"), STANDALONE)}
        assert stats["F-10"].count == 2
        assert stats["F-10"].avg_latency == pytest.approx((10.0 + 15.0) / 2)
        assert stats["F-10"].stddev_latency > 0
        assert stats["S-50"].avg_normalized_latency == pytest.approx(30.0 / 20.0)
        assert stats["F-10"].avg_ios == pytest.approx(3.5)

    def test_normalized_latency_infinite_without_baseline(self):
        stats = QueryTypeStats.from_results(
            "q", [QueryResult(0, "q", 0, 0.0, 5.0, 1, 0.1, 1)], standalone_time=0.0
        )
        assert math.isinf(stats.avg_normalized_latency)

    def test_policy_comparison_relative(self):
        comparison = PolicyComparison(standalone_times=STANDALONE)
        comparison.add(build_run("relevance"))
        comparison.add(build_run("normal", scale=2.0))
        relative = comparison.relative_to("relevance")
        assert relative["relevance"]["stream_time_ratio"] == pytest.approx(1.0)
        # The scaled run doubles finish times (but not stream start offsets),
        # so its stream-time ratio is a bit above 2.
        assert relative["normal"]["stream_time_ratio"] == pytest.approx(2.05, abs=0.05)

    def test_relative_to_missing_reference(self):
        comparison = PolicyComparison(standalone_times=STANDALONE)
        comparison.add(build_run("normal"))
        with pytest.raises(KeyError):
            comparison.relative_to("relevance")

    def test_compare_runs_builder(self):
        runs = {"normal": build_run("normal"), "relevance": build_run("relevance")}
        comparison = compare_runs(runs, STANDALONE)
        assert set(comparison.runs) == {"normal", "relevance"}


class TestReport:
    def make_comparison(self) -> PolicyComparison:
        comparison = PolicyComparison(standalone_times=STANDALONE)
        comparison.add(build_run("normal", scale=2.0))
        comparison.add(build_run("relevance"))
        return comparison

    def test_format_table_alignment(self):
        table = format_table(["a", "b"], [[1, 2.5], ["xx", 1234.0]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5

    def test_format_table_validates_width(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_render_policy_comparison_contains_metrics(self):
        text = render_policy_comparison(self.make_comparison(), policies=["normal", "relevance"])
        assert "Avg. stream time" in text
        assert "I/O requests" in text
        assert "normal" in text and "relevance" in text

    def test_render_query_table_lists_all_query_types(self):
        text = render_query_table(self.make_comparison(), policies=["normal", "relevance"])
        assert "F-10" in text
        assert "S-50" in text
