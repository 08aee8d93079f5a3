"""Reference oracles for the flight recorder's fast paths.

:class:`KeywordFlightRecorder` is the oracle for the fixed-shape writers:
every row goes through the keyword emitters into one eagerly built
:class:`TraceEvent` per event, and every gauge sample is looked up by name
in a registry of plain ``(time, value)`` lists -- the recorder as it was
before the writers and the column stores.

:func:`use_sweep_oracle` is the oracle for the ABM's starvation-flip
events: sweep every query.

With a flight recorder attached, an ABM emits an ``abm.starved`` /
``abm.unstarved`` instant and a ``<process>.abm.starved_queries`` gauge
sample each time a query's starvation state flips.  After each eviction
and each load completion it re-checks only the queries whose starved flag
the interest tracker saw flip (:meth:`_BaseABM._obs_starvation_flips`),
and after each finished chunk it re-checks the query only if the tracker
noted its flag flip or the query finished.  The oracle here answers the
same questions the obvious way -- re-check every registered query, in
registration order, and re-check the query after every finished chunk
(a re-check of an unchanged query emits nothing, so the ABM's own
conditional one before it changes nothing) -- so it is correct by
inspection: it is what the ABM did before the tracker noted flips.

:func:`use_sweep_oracle` swaps it in on an ABM; the starvation oracle tests
then compare the recorded events and gauge series.

This module imports nothing from pytest or ``tests/conftest.py``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs import FlightRecorder, TraceEvent


class EagerTrace:
    """One :class:`TraceEvent` per :meth:`record` call, built at the call
    (the :class:`repro.obs.recorder.TraceRecorder` interface)."""

    def __init__(self, max_events: int) -> None:
        self.events: List[TraceEvent] = []
        self.max_events = max_events
        self.dropped = 0

    def record(self, name, cat, ph, ts, pid, tid, dur, id, args) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(TraceEvent(name, cat, ph, ts, pid, tid, dur, id,
                                      dict(args)))

    def __len__(self) -> int:
        return len(self.events)


class _ListSeries:
    def __init__(self) -> None:
        self.points: List[Tuple[float, float]] = []
        self.total = 0.0

    def set(self, now, value) -> None:
        self.points.append((now, value))

    observe = set

    def inc(self, now, delta=1.0) -> None:
        self.total += delta
        self.points.append((now, self.total))


class ListMetrics:
    """Name-indexed ``(time, value)`` lists, one per series, created on
    first use (the :class:`repro.obs.metrics.MetricsRegistry` interface
    the emitters and the comparisons use)."""

    def __init__(self) -> None:
        self._series: Dict[str, _ListSeries] = {}

    def _get(self, name: str) -> _ListSeries:
        return self._series.setdefault(name, _ListSeries())

    gauge = counter = histogram = _get

    def names(self) -> List[str]:
        return sorted(self._series)

    def series(self, name: str) -> List[Tuple[float, float]]:
        return self._series[name].points


def _lists(value):
    """What the keyword call sites passed for a tuple the writers store:
    a list, nested tuples too."""
    if type(value) is tuple:
        return [_lists(item) for item in value]
    return value


class KeywordFlightRecorder(FlightRecorder):
    """A :class:`FlightRecorder` whose fixed-shape writers take the keyword
    path: each row becomes an ``instant``/``complete`` call with a keyword
    dict (tuples passed as lists, as the call sites did) and each gauge
    sample a ``set_gauge`` by name.  Events are stored in an
    :class:`EagerTrace` and metrics in :class:`ListMetrics`."""

    __slots__ = ()

    def __init__(self, config=None) -> None:
        super().__init__(config)
        if self.trace is not None:
            self.trace = EagerTrace(self.config.max_trace_events)
        if self.metrics is not None:
            self.metrics = ListMetrics()

    def instant_writer(self, name, cat, pid, tid, *names):
        def write(ts, *values):
            args = {key: _lists(value) for key, value in zip(names, values)}
            self.instant(name, cat, ts, pid, tid, **args)

        return write

    def complete_writer(self, name, cat, pid, tid, *names):
        def write(ts, dur, *values):
            args = {key: _lists(value) for key, value in zip(names, values)}
            self.complete(name, cat, ts, dur, pid, tid, **args)

        return write

    def gauge_writer(self, name):
        def write(now, value):
            self.set_gauge(name, now, value)

        return write


def use_sweep_oracle(abm):
    """Make ``abm`` re-check every registered handle where it would
    re-check only the noted flips, and every query that finished a chunk.
    Returns ``abm`` for chaining."""

    def sweep(now: float) -> None:
        for handle in abm._handles.values():
            abm._obs_starvation_update(handle, now)

    finish_chunk = abm.finish_chunk

    def finish_and_recheck(query_id: int, now: float) -> int:
        chunk = finish_chunk(query_id, now)
        if abm._obs is not None:
            abm._obs_starvation_update(abm._handles[query_id], now)
        return chunk

    abm._obs_starvation_flips = sweep
    abm.finish_chunk = finish_and_recheck
    return abm
