"""Validated step-function timelines and windowed rendering.

`ServiceResult.mpl_timeline`, `ClusterResult.mpl_timeline` and every series
recorded by the flight recorder's metrics registry share one shape: a
sequence of ``(time, value)`` points sampled on the simulated clock.  This
module gives them a single validated representation:

* :func:`validate_timeline` — rejects non-finite or backwards timestamps
  (the invariant every renderer and aggregation below relies on);
* :class:`Timeline` — a step function with ``value_at`` lookup and
  time-weighted windowed aggregation;
* :func:`render_timeline` — a text drill-down: one row per window, one
  column per series, so an SLO violation can be localised to a time window
  and component without leaving the terminal.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.metrics.report import format_table

Point = Tuple[float, float]


def validate_timeline(
    points: Sequence[Tuple[float, float]], where: str = "timeline"
) -> Tuple[Point, ...]:
    """Check a ``(time, value)`` sequence and return it as a tuple.

    Raises :class:`~repro.common.errors.SimulationError` if any timestamp
    is non-finite, negative, or earlier than its predecessor (equal
    timestamps are fine: a step function may change twice at one instant,
    e.g. a query completing and its successor being admitted).
    """
    validated: List[Point] = []
    previous = None
    for index, point in enumerate(points):
        time, value = float(point[0]), float(point[1])
        if not math.isfinite(time) or not math.isfinite(value):
            raise SimulationError(
                f"{where}: non-finite point ({time!r}, {value!r}) at index {index}"
            )
        if time < 0:
            raise SimulationError(
                f"{where}: negative timestamp {time!r} at index {index}"
            )
        if previous is not None and time < previous:
            raise SimulationError(
                f"{where}: timestamps go backwards at index {index} "
                f"({time!r} < {previous!r})"
            )
        previous = time
        validated.append((time, value))
    return tuple(validated)


class Timeline:
    """A validated step function over the simulated clock.

    The value at time ``t`` is the value of the last point at or before
    ``t`` (0.0 before the first point).
    """

    __slots__ = ("points", "_times")

    def __init__(
        self, points: Sequence[Tuple[float, float]], where: str = "timeline"
    ) -> None:
        self.points = validate_timeline(points, where=where)
        self._times = [time for time, _ in self.points]

    @property
    def end(self) -> float:
        return self.points[-1][0] if self.points else 0.0

    def value_at(self, time: float) -> float:
        index = bisect_right(self._times, time)
        return self.points[index - 1][1] if index else 0.0

    def mean_over(self, start: float, end: float) -> float:
        """Time-weighted mean value over ``[start, end)``."""
        if end <= start:
            return self.value_at(start)
        total = 0.0
        cursor = start
        value = self.value_at(start)
        index = bisect_right(self._times, start)
        while index < len(self.points) and self.points[index][0] < end:
            time, next_value = self.points[index]
            total += value * (time - cursor)
            cursor, value = time, next_value
            index += 1
        total += value * (end - cursor)
        return total / (end - start)

    def max_over(self, start: float, end: float) -> float:
        """Maximum value attained over ``[start, end)``."""
        best = self.value_at(start)
        index = bisect_right(self._times, start)
        while index < len(self.points) and self.points[index][0] < end:
            best = max(best, self.points[index][1])
            index += 1
        return best

    def windows(
        self, window_s: float, t_end: Optional[float] = None
    ) -> List[Tuple[float, float, float, float]]:
        """Aggregate into ``(start, end, time-weighted mean, max)`` rows."""
        if window_s <= 0:
            raise SimulationError("window_s must be positive")
        end = self.end if t_end is None else t_end
        if end <= 0:
            return []
        rows = []
        cursor = 0.0
        while cursor < end:
            upper = min(cursor + window_s, end)
            rows.append((cursor, upper,
                         self.mean_over(cursor, upper),
                         self.max_over(cursor, upper)))
            cursor = upper
        return rows


def default_window(duration: float, target_windows: int = 12) -> float:
    """A readable window width: ~``target_windows`` rows over ``duration``."""
    if duration <= 0:
        return 1.0
    return max(duration / target_windows, 1e-9)


def render_timeline(
    series: Mapping[str, Sequence[Tuple[float, float]]],
    window_s: Optional[float] = None,
    t_end: Optional[float] = None,
    title: str = "Timeline",
) -> str:
    """Render several timelines side by side, one row per window.

    Each cell shows the series' time-weighted mean over the window, with
    the window maximum in parentheses when it differs meaningfully.
    """
    timelines: Dict[str, Timeline] = {
        name: Timeline(points, where=name) for name, points in series.items()
    }
    if not timelines:
        return format_table(["window"], [], title=title)
    end = t_end if t_end is not None else max(
        timeline.end for timeline in timelines.values()
    )
    width = window_s if window_s is not None else default_window(end)
    names = sorted(timelines)
    rows = []
    reference = Timeline([(0.0, 0.0)])
    spans = reference.windows(width, t_end=end) if end > 0 else []
    for start, upper, _, _ in spans:
        cells = [f"{start:.2f}-{upper:.2f}s"]
        for name in names:
            timeline = timelines[name]
            mean = timeline.mean_over(start, upper)
            peak = timeline.max_over(start, upper)
            if peak > mean * 1.05 + 1e-12:
                cells.append(f"{mean:.2f} (max {peak:.2f})")
            else:
                cells.append(f"{mean:.2f}")
        rows.append(cells)
    return format_table(["window"] + names, rows, title=title)
