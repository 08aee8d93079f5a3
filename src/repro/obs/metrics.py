"""Metric timelines sampled on the simulated clock.

Three instrument kinds, all recording ``(time, value)`` points:

* :class:`Counter` — monotone cumulative total (`inc`), e.g. queries shed;
* :class:`Gauge` — last-write-wins level (`set`), e.g. queue depth, MPL;
* :class:`Histogram` — individual observations (`observe`), e.g. per-class
  latency samples.

A :class:`MetricsRegistry` creates instruments on first use so call sites
never pre-declare anything.  Points are appended in emission order, kept
in flat columns and built as ``(time, value)`` tuples when a series is
read; the timeline helpers in :mod:`repro.metrics.timeline` validate
monotonicity when a series is rendered or windowed.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional, Tuple


class _Series:
    """``(time, value)`` points kept in two flat columns.

    Times live in an ``array('d')`` and values in another while every
    sample is an exact ``float``; the first sample of any other type
    (an ``int`` count, say) turns that column into a plain list for the
    rest of the series, so :attr:`points` returns every sample exactly as
    it was passed.  Neither column holds a per-point tuple, so the cyclic
    garbage collector has nothing to traverse.

    A series handed out by :meth:`MetricsRegistry.gauge_writer` before its
    first sample is *pending*: it joins the registry when that sample
    arrives, so a gauge that never fires leaves no series behind.
    """

    __slots__ = ("name", "_times", "_values", "_boxed", "_clock", "_pending")

    def __init__(self, name: str,
                 pending: "Optional[MetricsRegistry]" = None) -> None:
        self.name = name
        self._times = array("d")
        self._values = array("d")
        #: Whether ``_values`` became a list (any value type is then stored).
        self._boxed = False
        #: The time type the fast path of :meth:`_add` takes; ``None``
        #: sends the first sample down the slow path.
        self._clock: Optional[type] = None
        #: The registry a pending series joins on its first sample.
        self._pending = pending

    def _add(self, now: float, value: float) -> None:
        if type(now) is self._clock and (self._boxed or type(value) is float):
            self._times.append(now)
            self._values.append(value)
        else:
            self._add_slow(now, value)

    def _add_slow(self, now: float, value: float) -> None:
        registry = self._pending
        if registry is not None:
            registry.gauge(self.name)  # joins the registry
        self._clock = float
        if type(now) is not float and type(self._times) is array:
            self._times = list(self._times)
        if not self._boxed and type(value) is not float:
            self._values = list(self._values)
            self._boxed = True
        self._times.append(now)
        self._values.append(value)

    @property
    def points(self) -> List[Tuple[float, float]]:
        """The samples in emission order, built on each read."""
        return list(zip(self._times, self._values))


class Counter(_Series):
    """Cumulative monotone counter; each `inc` appends the running total."""

    __slots__ = ("_total",)

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._total = 0.0

    def inc(self, now: float, delta: float = 1.0) -> None:
        self._total += delta
        self._add(now, self._total)


class Gauge(_Series):
    """Last-write-wins level; each `set` appends the new value."""

    __slots__ = ()

    set = _Series._add


class Histogram(_Series):
    """Raw observations, one point each."""

    __slots__ = ()

    observe = _Series._add


class MetricsRegistry:
    """Name-indexed instruments, created on first use.

    A name belongs to exactly one instrument kind; asking for the same name
    with a different kind raises ``KeyError`` rather than silently mixing
    semantics.
    """

    __slots__ = ("_counters", "_gauges", "_histograms", "_pending_gauges")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: Gauges handed out by :meth:`gauge_writer` that have no sample
        #: yet; they are not listed until they do.
        self._pending_gauges: Dict[str, Gauge] = {}

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
            instrument = self._pending_gauges.pop(name, None)
            if instrument is None:
                instrument = Gauge(name)
            instrument._pending = None
            self._gauges[name] = instrument
        return instrument

    def gauge_writer(self, name: str) -> Callable[[float, float], None]:
        """The ``set`` of the named gauge, without creating its series:
        the gauge joins the registry on its first sample."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._pending_gauges.get(name)
            if instrument is None:
                instrument = self._pending_gauges[name] = Gauge(name, self)
        return instrument.set

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
