"""The flight recorder: bounded trace buffer + metrics registry.

:class:`TraceRecorder` is an append-only, bounded buffer of
:class:`~repro.obs.events.TraceEvent` records.  :class:`FlightRecorder`
bundles a trace recorder with a :class:`~repro.obs.metrics.MetricsRegistry`
and is the single handle threaded through the stack: the front door,
admission controller, cluster coordinator, event core, disk models and ABMs
all hold an ``Optional[FlightRecorder]`` and guard every emission with a
``None`` check, so a disabled recorder costs one attribute test per
potential event and changes no simulation state whatsoever.

The recorder does not time itself.  Its wall-clock cost is measured from
outside: ``benchmarks/bench_obs_overhead.py`` compares a traced run with its
untraced twin, and ``python -m benchmarks.e2e --trace 1`` reports the
``recorder`` layer of the outside-in trace.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.common.config import ObservabilityConfig
from repro.obs.events import (
    PH_ASYNC_BEGIN,
    PH_ASYNC_END,
    PH_COMPLETE,
    PH_INSTANT,
    TraceEvent,
)
from repro.obs.metrics import MetricsRegistry


class TraceRecorder:
    """Bounded, append-only buffer of trace events.

    Events past ``max_events`` are counted in :attr:`dropped` instead of
    stored, so a runaway run degrades to a truncated trace rather than
    unbounded memory growth.
    """

    __slots__ = ("events", "max_events", "dropped")

    def __init__(self, max_events: int = 1_000_000) -> None:
        self.events: List[TraceEvent] = []
        self.max_events = max_events
        self.dropped = 0

    def emit(self, event: TraceEvent) -> None:
        if len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self.dropped += 1


class FlightRecorder:
    """One recorder per run: trace events + metric timelines.

    Built from an :class:`~repro.common.config.ObservabilityConfig`; either
    half (tracing, metrics) can be switched off independently, in which case
    the corresponding attribute is ``None`` and the emitters below become
    no-ops.  Each emitter is one ``None`` check plus one emission.
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
        trace.emit(TraceEvent(name, cat, PH_INSTANT, ts, pid, tid, args=args))

    def complete(self, name: str, cat: str, ts: float, dur: float, pid: str,
                 tid: str, **args: object) -> None:
        trace = self.trace
        if trace is None:
            return
        trace.emit(TraceEvent(name, cat, PH_COMPLETE, ts, pid, tid,
                              dur=dur, args=args))

    def async_begin(self, name: str, cat: str, ts: float, id: int, pid: str,
                    tid: str, **args: object) -> None:
        trace = self.trace
        if trace is None:
            return
        trace.emit(TraceEvent(name, cat, PH_ASYNC_BEGIN, ts, pid, tid,
                              id=id, args=args))

    def async_end(self, name: str, cat: str, ts: float, id: int, pid: str,
                  tid: str, **args: object) -> None:
        trace = self.trace
        if trace is None:
            return
        trace.emit(TraceEvent(name, cat, PH_ASYNC_END, ts, pid, tid,
                              id=id, args=args))

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
        """All recorded trace events (empty when tracing is off)."""
        return [] if self.trace is None else self.trace.events

    def summary_lines(self) -> List[str]:
        """Human-readable one-liners about what the recorder captured."""
        lines = []
        if self.trace is not None:
            detail = f"{len(self.trace.events)} trace events"
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
