"""The flight recorder: bounded trace buffer + metrics registry.

:class:`TraceRecorder` is an append-only, bounded buffer of trace events,
stored column-wise in flat arrays and turned into
:class:`~repro.obs.events.TraceEvent` records only when they are read.
:class:`FlightRecorder` bundles a trace recorder with a
:class:`~repro.obs.metrics.MetricsRegistry` and is the single handle
threaded through the stack: the front door, admission controller, cluster
coordinator, event core, disk models and ABMs all hold an
``Optional[FlightRecorder]`` and guard every emission with a ``None``
check, so a disabled recorder costs one attribute test per potential event
and changes no simulation state whatsoever.  The hot emitters resolve their
event kinds and gauge series once, when the recorder is attached, and then
append one fixed-shape row per event.

The recorder does not time itself.  Its wall-clock cost is measured from
outside: ``benchmarks/bench_obs_overhead.py`` compares a traced run with its
untraced twin, and ``python -m benchmarks.e2e --trace 1`` reports the
``recorder`` layer of the outside-in trace.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.common.config import ObservabilityConfig
from repro.obs.events import (
    PH_ASYNC_BEGIN,
    PH_ASYNC_END,
    PH_COMPLETE,
    PH_INSTANT,
    TraceEvent,
)
from repro.obs.metrics import MetricsRegistry

#: A fixed-shape event writer: ``(ts, *values)`` for instants,
#: ``(ts, dur, *values)`` for complete spans.
RowWriter = Callable[..., None]
#: A resolved gauge series: ``(now, value)``.
GaugeWriter = Callable[[float, float], None]


def _ignore(*_: object) -> None:
    """The writer handed out when its half of the recorder is off."""


def _as_list(value: tuple) -> list:
    """A stored tuple as the events report it: a list, nested tuples too."""
    return [_as_list(item) if type(item) is tuple else item for item in value]


class TraceRecorder:
    """Bounded, append-only buffer of trace events.

    Events are stored column-wise.  Each call shape -- ``(name, cat, ph,
    pid, tid, arg names)`` -- is interned once as a *kind*; per event the
    recorder appends the kind's index and the timestamp to two arrays, the
    duration to a third (complete spans only) and the async id (when given)
    plus the argument values, in order, to one flat list.  No per-event
    container is left behind, so the cyclic garbage collector has nothing
    to traverse; the :attr:`events` property rebuilds the
    :class:`TraceEvent` records, ``args`` in the order the emitter passed
    them.  Timestamps and durations are stored as floats, and a tuple
    value comes back as a list (nested tuples too), as it does from the
    JSONL export: an emitter can store a tuple it already holds, such as
    a load's evicted chunks, where it used to copy it into a list.

    Two ways in write the same store.  :meth:`record` takes a keyword
    ``args`` dict and interns its shape on every call (the cold and the
    dynamically named call sites).  :meth:`writer` interns one shape up
    front and returns a function that appends a fixed-shape row (the hot
    emitters).

    Events past ``max_events`` are counted in :attr:`dropped` instead of
    stored, so a runaway run degrades to a truncated trace rather than
    unbounded memory growth.
    """

    __slots__ = ("_kinds", "_kind_ids", "_kind_of", "_ts", "_dur", "_values",
                 "max_events", "dropped")

    def __init__(self, max_events: int = 1_000_000) -> None:
        #: Interned kinds: ``(name, cat, ph, pid, tid, arg names, has_dur,
        #: has_id)``.
        self._kinds: List[tuple] = []
        self._kind_ids: Dict[tuple, int] = {}
        self._kind_of = array("I")
        self._ts = array("d")
        self._dur = array("d")
        self._values: List[object] = []
        self.max_events = max_events
        self.dropped = 0

    def _intern(self, name: str, cat: str, ph: str, pid: str, tid: str,
                names: Tuple[str, ...], has_id: bool) -> int:
        shape = (name, cat, ph, pid, tid, names, has_id)
        kind = self._kind_ids.get(shape)
        if kind is None:
            kind = self._kind_ids[shape] = len(self._kinds)
            self._kinds.append(
                (name, cat, ph, pid, tid, names, ph == PH_COMPLETE, has_id)
            )
        return kind

    def record(self, name: str, cat: str, ph: str, ts: float, pid: str,
               tid: str, dur: float, id: Optional[int],
               args: Dict[str, object]) -> None:
        """Append one event (or count it as dropped at the cap).

        ``dur`` is kept for complete spans and ``id`` whenever it is not
        ``None``.
        """
        kind_of = self._kind_of
        if len(kind_of) >= self.max_events:
            self.dropped += 1
            return
        has_id = id is not None
        kind_of.append(
            self._intern(name, cat, ph, pid, tid, tuple(args), has_id)
        )
        self._ts.append(ts)
        if ph == PH_COMPLETE:
            self._dur.append(dur)
        if has_id:
            self._values.append(id)
        self._values.extend(args.values())

    def writer(self, name: str, cat: str, ph: str, pid: str, tid: str,
               names: Tuple[str, ...]) -> RowWriter:
        """A function appending fixed-shape rows of one kind.

        The returned writer takes ``(ts, *values)``, or ``(ts, dur,
        *values)`` when ``ph`` is a complete span, with exactly one value
        per name in ``names``.
        """
        kind = self._intern(name, cat, ph, pid, tid, tuple(names), False)
        kind_of = self._kind_of
        add_kind = kind_of.append
        add_ts = self._ts.append
        add_values = self._values.extend
        recorder = self
        if ph == PH_COMPLETE:
            add_dur = self._dur.append

            def write_span(ts: float, dur: float, *values: object) -> None:
                if len(kind_of) >= recorder.max_events:
                    recorder.dropped += 1
                    return
                add_kind(kind)
                add_ts(ts)
                add_dur(dur)
                add_values(values)

            return write_span

        def write(ts: float, *values: object) -> None:
            if len(kind_of) >= recorder.max_events:
                recorder.dropped += 1
                return
            add_kind(kind)
            add_ts(ts)
            add_values(values)

        return write

    def __len__(self) -> int:
        return len(self._kind_of)

    @property
    def events(self) -> List[TraceEvent]:
        """The recorded events in emission order, built on each read."""
        kinds = self._kinds
        values = self._values
        durations = iter(self._dur)
        position = 0
        events = []
        for kind, ts in zip(self._kind_of, self._ts):
            name, cat, ph, pid, tid, names, has_dur, has_id = kinds[kind]
            id = None
            if has_id:
                id = values[position]
                position += 1
            end = position + len(names)
            args = dict(zip(names, values[position:end]))
            position = end
            for key, value in args.items():
                if type(value) is tuple:
                    args[key] = _as_list(value)
            events.append(TraceEvent(
                name, cat, ph, ts, pid, tid,
                next(durations) if has_dur else 0.0, id, args,
            ))
        return events


class FlightRecorder:
    """One recorder per run: trace events + metric timelines.

    Built from an :class:`~repro.common.config.ObservabilityConfig`; either
    half (tracing, metrics) can be switched off independently, in which case
    the corresponding attribute is ``None`` and the emitters below become
    no-ops.

    The keyword emitters (:meth:`instant`, :meth:`complete`,
    :meth:`async_begin`, :meth:`async_end`, :meth:`set_gauge`) resolve the
    event's kind or the gauge's series on every call.  The hot call sites
    resolve them once instead, when they are attached: :meth:`instant_writer`
    and :meth:`complete_writer` hand out fixed-shape row writers and
    :meth:`gauge_writer` a gauge series resolved on its first sample.
    """

    __slots__ = ("config", "trace", "metrics")

    def __init__(self, config: Optional[ObservabilityConfig] = None) -> None:
        self.config = config if config is not None else ObservabilityConfig()
        self.trace: Optional[TraceRecorder] = (
            TraceRecorder(self.config.max_trace_events)
            if self.config.trace else None
        )
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.config.metrics else None
        )

    # -- trace emitters (no-ops when tracing is off) ---------------------

    def instant(self, name: str, cat: str, ts: float, pid: str, tid: str,
                **args: object) -> None:
        trace = self.trace
        if trace is None:
            return
        trace.record(name, cat, PH_INSTANT, ts, pid, tid, 0.0, None, args)

    def complete(self, name: str, cat: str, ts: float, dur: float, pid: str,
                 tid: str, **args: object) -> None:
        trace = self.trace
        if trace is None:
            return
        trace.record(name, cat, PH_COMPLETE, ts, pid, tid, dur, None, args)

    def async_begin(self, name: str, cat: str, ts: float, id: int, pid: str,
                    tid: str, **args: object) -> None:
        trace = self.trace
        if trace is None:
            return
        trace.record(name, cat, PH_ASYNC_BEGIN, ts, pid, tid, 0.0, id, args)

    def async_end(self, name: str, cat: str, ts: float, id: int, pid: str,
                  tid: str, **args: object) -> None:
        trace = self.trace
        if trace is None:
            return
        trace.record(name, cat, PH_ASYNC_END, ts, pid, tid, 0.0, id, args)

    # -- fixed-shape writers (resolved once per call site) ---------------

    def instant_writer(self, name: str, cat: str, pid: str, tid: str,
                       *names: str) -> RowWriter:
        """A ``(ts, *values)`` writer recording what ``instant(name, cat,
        ts, pid, tid, **dict(zip(names, values)))`` would; a no-op when
        tracing is off."""
        trace = self.trace
        if trace is None:
            return _ignore
        return trace.writer(name, cat, PH_INSTANT, pid, tid, names)

    def complete_writer(self, name: str, cat: str, pid: str, tid: str,
                        *names: str) -> RowWriter:
        """A ``(ts, dur, *values)`` writer recording what ``complete(name,
        cat, ts, dur, pid, tid, **dict(zip(names, values)))`` would; a
        no-op when tracing is off."""
        trace = self.trace
        if trace is None:
            return _ignore
        return trace.writer(name, cat, PH_COMPLETE, pid, tid, names)

    def gauge_writer(self, name: str) -> GaugeWriter:
        """A ``(now, value)`` writer for one gauge; a no-op when metrics
        are off.  The series is created on its first sample, so a gauge
        that never fires leaves no series behind."""
        metrics = self.metrics
        if metrics is None:
            return _ignore
        return metrics.gauge_writer(name)

    # -- metric emitters (no-ops when metrics are off) -------------------

    def set_gauge(self, name: str, now: float, value: float) -> None:
        metrics = self.metrics
        if metrics is None:
            return
        metrics.gauge(name).set(now, value)

    def inc_counter(self, name: str, now: float, delta: float = 1.0) -> None:
        metrics = self.metrics
        if metrics is None:
            return
        metrics.counter(name).inc(now, delta)

    def observe(self, name: str, now: float, value: float) -> None:
        metrics = self.metrics
        if metrics is None:
            return
        metrics.histogram(name).observe(now, value)

    # -- introspection ---------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """All recorded trace events, built on each read (empty when
        tracing is off)."""
        return [] if self.trace is None else self.trace.events

    def summary_lines(self) -> List[str]:
        """Human-readable one-liners about what the recorder captured."""
        lines = []
        if self.trace is not None:
            detail = f"{len(self.trace)} trace events"
            if self.trace.dropped:
                detail += f" ({self.trace.dropped} dropped at cap)"
            lines.append(detail)
        if self.metrics is not None:
            lines.append(f"{len(self.metrics.names())} metric series")
        return lines


#: Anything the entry points accept as an observability argument.
ObservabilityLike = Union[ObservabilityConfig, FlightRecorder, None]


def build_flight_recorder(obs: ObservabilityLike) -> Optional[FlightRecorder]:
    """Normalise the ``obs`` argument of the run entry points.

    ``None`` yields ``None`` — the zero-overhead path.  A config builds a
    fresh recorder; an existing :class:`FlightRecorder` is passed through
    so one recorder can span multiple runs (the cluster path shares one
    across shards).
    """
    if obs is None:
        return None
    if isinstance(obs, FlightRecorder):
        return obs
    if isinstance(obs, ObservabilityConfig):
        return FlightRecorder(obs)
    raise TypeError(
        f"obs must be ObservabilityConfig, FlightRecorder or None, "
        f"got {type(obs).__name__}"
    )
