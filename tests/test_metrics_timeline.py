"""Validated timelines, windowed aggregation, and the metrics registry."""

import math

import pytest

from repro.common.errors import SimulationError
from repro.metrics.timeline import (
    Timeline,
    default_window,
    render_timeline,
    validate_timeline,
)
from repro.obs import MetricsRegistry


class TestValidateTimeline:
    def test_accepts_monotone_points(self):
        points = [(0.0, 1.0), (1.0, 2.0), (2.5, 0.0)]
        assert validate_timeline(points) == tuple(points)

    def test_accepts_equal_timestamps(self):
        # A step function may change twice at one instant (a completion
        # and the admission it releases).
        points = [(1.0, 2.0), (1.0, 3.0)]
        assert validate_timeline(points) == tuple(points)

    def test_accepts_empty(self):
        assert validate_timeline([]) == ()

    def test_rejects_backwards_timestamps(self):
        with pytest.raises(SimulationError, match="backwards"):
            validate_timeline([(1.0, 0.0), (0.5, 1.0)], where="mpl")

    def test_rejects_negative_timestamps(self):
        with pytest.raises(SimulationError, match="negative"):
            validate_timeline([(-0.1, 0.0)])

    def test_rejects_non_finite_points(self):
        with pytest.raises(SimulationError, match="non-finite"):
            validate_timeline([(0.0, math.nan)])
        with pytest.raises(SimulationError, match="non-finite"):
            validate_timeline([(math.inf, 1.0)])

    def test_error_names_the_offending_series(self):
        with pytest.raises(SimulationError, match="cluster MPL timeline"):
            validate_timeline(
                [(1.0, 0.0), (0.0, 0.0)], where="cluster MPL timeline"
            )


class TestTimeline:
    @pytest.fixture
    def timeline(self):
        return Timeline([(0.0, 0.0), (1.0, 2.0), (3.0, 1.0)])

    def test_value_at_steps(self, timeline):
        assert timeline.value_at(-0.5) == 0.0
        assert timeline.value_at(0.5) == 0.0
        assert timeline.value_at(1.0) == 2.0
        assert timeline.value_at(2.9) == 2.0
        assert timeline.value_at(10.0) == 1.0

    def test_mean_over_is_time_weighted(self, timeline):
        # [0,2): one second at 0.0, one second at 2.0.
        assert timeline.mean_over(0.0, 2.0) == pytest.approx(1.0)
        # [1,4): two seconds at 2.0, one second at 1.0.
        assert timeline.mean_over(1.0, 4.0) == pytest.approx(5.0 / 3.0)

    def test_max_over_window(self, timeline):
        assert timeline.max_over(0.0, 0.5) == 0.0
        assert timeline.max_over(0.0, 2.0) == 2.0
        assert timeline.max_over(3.5, 9.0) == 1.0

    def test_windows_cover_the_run(self, timeline):
        rows = timeline.windows(1.0)
        assert [(row[0], row[1]) for row in rows] == [
            (0.0, 1.0), (1.0, 2.0), (2.0, 3.0),
        ]

    def test_windows_reject_nonpositive_width(self, timeline):
        with pytest.raises(SimulationError):
            timeline.windows(0.0)

    def test_empty_timeline(self):
        timeline = Timeline([])
        assert not timeline.points
        assert timeline.value_at(1.0) == 0.0
        assert timeline.windows(1.0) == []


class TestDefaultWindow:
    def test_targets_about_twelve_windows(self):
        assert default_window(120.0) == pytest.approx(10.0)

    def test_degenerate_duration(self):
        assert default_window(0.0) == 1.0


class TestRenderTimeline:
    def test_renders_one_column_per_series(self):
        text = render_timeline({
            "mpl": [(0.0, 2.0), (5.0, 4.0)],
            "depth": [(0.0, 0.0), (2.0, 3.0), (8.0, 0.0)],
        }, window_s=5.0)
        assert "mpl" in text and "depth" in text
        # Windows run to the latest point across all series (t = 8).
        assert "0.00-5.00s" in text and "5.00-8.00s" in text

    def test_flags_peaks_that_exceed_the_mean(self):
        text = render_timeline(
            {"depth": [(0.0, 0.0), (5.0, 10.0), (9.0, 0.0)]}, window_s=10.0
        )
        assert "max 10.00" in text

    def test_rejects_invalid_series(self):
        with pytest.raises(SimulationError, match="depth"):
            render_timeline({"depth": [(1.0, 0.0), (0.0, 0.0)]})

    def test_empty_series_mapping(self):
        assert "window" in render_timeline({})


class TestMetricsRegistry:
    def test_instruments_created_on_first_use(self):
        registry = MetricsRegistry()
        registry.counter("shed").inc(1.0)
        registry.gauge("mpl").set(0.0, 3.0)
        registry.histogram("latency").observe(0.0, 0.5)
        assert registry.names() == ["latency", "mpl", "shed"]

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.gauge("mpl")
        with pytest.raises(KeyError, match="already registered as gauge"):
            registry.counter("mpl")

    def test_counter_series_is_cumulative(self):
        registry = MetricsRegistry()
        counter = registry.counter("loads")
        counter.inc(0.0)
        counter.inc(1.0, 2.0)
        assert registry.series("loads") == [(0.0, 1.0), (1.0, 3.0)]

    def test_unknown_series_raises(self):
        with pytest.raises(KeyError):
            MetricsRegistry().series("nope")

    def test_series_feed_timelines(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(0.0, 1.0)
        gauge.set(2.0, 5.0)
        timeline = Timeline(registry.series("depth"), where="depth")
        assert timeline.value_at(1.0) == 1.0
        assert timeline.value_at(2.0) == 5.0
