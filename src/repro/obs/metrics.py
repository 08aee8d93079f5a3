"""Metric timelines sampled on the simulated clock.

Three instrument kinds, all recording ``(time, value)`` points:

* :class:`Counter` — monotone cumulative total (`inc`), e.g. queries shed;
* :class:`Gauge` — last-write-wins level (`set`), e.g. queue depth, MPL;
* :class:`Histogram` — individual observations (`observe`), e.g. per-class
  latency samples.

A :class:`MetricsRegistry` creates instruments on first use so call sites
never pre-declare anything.  Points are appended in emission order; the
timeline helpers in :mod:`repro.metrics.timeline` validate monotonicity
when a series is rendered or windowed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class Counter:
    """Cumulative monotone counter; each `inc` appends the running total."""

    __slots__ = ("name", "points", "_total")

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: List[Tuple[float, float]] = []
        self._total = 0.0

    def inc(self, now: float, delta: float = 1.0) -> None:
        self._total += delta
        self.points.append((now, self._total))


class Gauge:
    """Last-write-wins level; each `set` appends the new value."""

    __slots__ = ("name", "points")

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def set(self, now: float, value: float) -> None:
        self.points.append((now, value))


class Histogram:
    """Raw observations, one point each."""

    __slots__ = ("name", "points")

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def observe(self, now: float, value: float) -> None:
        self.points.append((now, value))


class MetricsRegistry:
    """Name-indexed instruments, created on first use.

    A name belongs to exactly one instrument kind; asking for the same name
    with a different kind raises ``KeyError`` rather than silently mixing
    semantics.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_free(self, name: str, kind: str) -> None:
        for label, table in (("counter", self._counters),
                             ("gauge", self._gauges),
                             ("histogram", self._histograms)):
            if label != kind and name in table:
                raise KeyError(f"metric {name!r} already registered as {label}")

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(name, "counter")
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(name, "gauge")
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_free(name, "histogram")
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def names(self) -> List[str]:
        return sorted(
            list(self._counters) + list(self._gauges) + list(self._histograms)
        )

    def series(self, name: str) -> List[Tuple[float, float]]:
        """The ``(time, value)`` points of any instrument by name."""
        for table in (self._counters, self._gauges, self._histograms):
            if name in table:
                return table[name].points
        raise KeyError(f"unknown metric {name!r}")
