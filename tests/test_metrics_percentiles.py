"""Tests for the percentile helpers used by the SLO reporting."""

import numpy as np
import pytest

from repro.metrics.stats import LatencySummary, percentile


class TestPercentile:
    def test_single_value(self):
        assert percentile([42.0], 0) == 42.0
        assert percentile([42.0], 50) == 42.0
        assert percentile([42.0], 100) == 42.0

    def test_endpoints_are_min_and_max(self):
        values = [5.0, 1.0, 9.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_median_of_even_sample_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_median_of_odd_sample_is_middle(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_linear_interpolation_exact(self):
        # Rank of p95 in 11 values is 9.5: halfway between the 10th and 11th.
        values = list(range(11))
        assert percentile(values, 95) == pytest.approx(9.5)

    def test_matches_numpy_linear_method(self):
        rng = np.random.default_rng(123)
        values = rng.exponential(3.0, size=257).tolist()
        for q in (0, 10, 50, 90, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q)), rel=1e-12
            )

    def test_input_order_is_irrelevant(self):
        values = [9.0, 2.0, 7.0, 4.0, 1.0]
        assert percentile(values, 95) == percentile(sorted(values), 95)

    def test_deterministic(self):
        values = [0.5, 1.5, 2.5, 9.5]
        assert percentile(values, 95) == percentile(list(values), 95)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], -1)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestLatencySummary:
    def test_from_values(self):
        summary = LatencySummary.from_values([4.0, 1.0, 3.0, 2.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.p50 == pytest.approx(2.5)

    def test_empty_sample_is_all_zeros(self):
        summary = LatencySummary.from_values([])
        assert summary.count == 0
        assert summary.mean == 0.0
        assert summary.p95 == 0.0
        assert summary.maximum == 0.0

    def test_tail_percentiles_of_1_to_100(self):
        summary = LatencySummary.from_values(list(range(1, 101)))
        assert summary.p50 == pytest.approx(50.5)
        assert summary.p95 == pytest.approx(95.05)
        assert summary.p99 == pytest.approx(99.01)

    def test_single_value_fills_every_field(self):
        summary = LatencySummary.from_values([3.5])
        assert summary.count == 1
        assert (summary.mean, summary.p50, summary.p95, summary.p99) == (3.5,) * 4
        assert (summary.minimum, summary.maximum) == (3.5, 3.5)

    def test_input_is_not_reordered(self):
        values = [4.0, 1.0, 3.0]
        LatencySummary.from_values(values)
        assert values == [4.0, 1.0, 3.0]
