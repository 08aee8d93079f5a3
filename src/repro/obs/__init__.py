"""Flight recorder: tracing, metric timelines and postmortem reports.

The observability layer of the repo.  Everything here is opt-in: the run
entry points (:func:`repro.sim.runner.run_simulation`,
:func:`repro.service.server.run_service`,
:func:`repro.cluster.coordinator.run_cluster_service`) take an ``obs``
argument — an :class:`~repro.common.config.ObservabilityConfig` or a
pre-built :class:`FlightRecorder` — and with ``obs=None`` (the default) no
recorder exists and simulation outcomes are bit-for-bit identical to the
uninstrumented code.

* :mod:`repro.obs.events` / :mod:`repro.obs.recorder` -- typed trace events
  on the simulated clock, buffered by the :class:`FlightRecorder` as one
  compact row per event and built as :class:`TraceEvent` records when read;
* :mod:`repro.obs.metrics` -- counters/gauges/histograms sampled on the
  shared clock (queue depth, MPL, volume utilisation, hit rate, ...);
* :mod:`repro.obs.export` -- JSONL and Perfetto-loadable Chrome trace-event
  JSON exporters plus a structural validator;
* :mod:`repro.obs.postmortem` -- always-on per-query
  :class:`LatencyBreakdown` (critical-path latency attribution; phase
  seconds sum exactly to end-to-end latency) and the per-class
  :class:`BlameReport` aggregation — the one subsystem here that is *on*
  by default, because its stamps are plain floats on existing events;
* :mod:`repro.obs.alerts` -- multi-window SLO error-budget burn-rate
  detectors and windowed utilisation threshold alerts over the run's busy
  timelines, rendered as a health digest naming the top-blamed phase.

Wall-clock self-timing of the simulator is not part of this package: a run
reports only Figure 8's two counters, ``RunResult.scheduling_seconds`` and
``RunResult.scheduling_calls``.  The per-layer and per-ABM-call split comes
from the outside-in tracer, ``python -m benchmarks.e2e --trace 1``, which
costs nothing when it is off.
"""

from typing import Optional

from repro.metrics.timeline import default_window, render_timeline
from repro.obs.alerts import (
    Alert,
    AlertPolicy,
    BurnRateRule,
    QueryCompletion,
    ThresholdRule,
    burn_rate_points,
    evaluate_alerts,
    render_health_digest,
    utilisation_points,
)
from repro.obs.events import TraceEvent
from repro.obs.export import (
    chrome_trace,
    read_jsonl,
    to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.postmortem import (
    BREAKDOWN_PHASES,
    CONSERVATION_TOL,
    BlameReport,
    ClassBlame,
    LatencyBreakdown,
    assemble_cluster_breakdown,
    build_blame_report,
    build_breakdown,
    build_single_node_breakdown,
)
from repro.obs.recorder import (
    FlightRecorder,
    ObservabilityLike,
    TraceRecorder,
    build_flight_recorder,
)


def render_run_timelines(
    flight: FlightRecorder,
    t_end: Optional[float] = None,
    window_s: Optional[float] = None,
    title: str = "Run timelines",
) -> str:
    """Drill-down view of a traced run: every metric series, windowed.

    One row per time window, one column per recorded series (queue depths,
    MPL, volume utilisation, hit rate, starvation count), each cell the
    time-weighted mean (and peak) over the window — enough to localise an
    SLO violation to a window and component.  ``window_s=None`` picks
    ~12 windows over the run.
    """
    if flight.metrics is None:
        return "(metrics recording was disabled)"
    series = {
        name: flight.metrics.series(name) for name in flight.metrics.names()
    }
    return render_timeline(series, window_s=window_s, t_end=t_end, title=title)


__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "FlightRecorder",
    "ObservabilityLike",
    "build_flight_recorder",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "to_jsonl",
    "write_jsonl",
    "read_jsonl",
    "render_run_timelines",
    "render_timeline",
    "default_window",
    "LatencyBreakdown",
    "BlameReport",
    "ClassBlame",
    "build_breakdown",
    "build_single_node_breakdown",
    "assemble_cluster_breakdown",
    "build_blame_report",
    "BREAKDOWN_PHASES",
    "CONSERVATION_TOL",
    "Alert",
    "AlertPolicy",
    "BurnRateRule",
    "ThresholdRule",
    "QueryCompletion",
    "evaluate_alerts",
    "render_health_digest",
    "burn_rate_points",
    "utilisation_points",
]
