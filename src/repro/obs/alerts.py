"""SLO burn-rate and utilisation-threshold alerting on simulated time.

The classic SRE recipe, run against the simulator's own clock: a latency
SLO defines an *error budget* (at most ``budget`` of queries may exceed
``threshold_s``), and an alert fires when the budget is being spent too
fast over **two** windows at once — a short window catching the spike and
a long window filtering noise (the "fast 5%/1h + slow 10%/6h" multiwindow
pattern, scaled to simulated seconds).  Threshold rules watch resource
busy-seconds timelines (shard disks, coordinator CPU/NIC) and fire when
windowed utilisation stays above a level.

Every input series is routed through
:func:`repro.metrics.timeline.validate_timeline` first — a NaN latency or
a backwards timestamp is a :class:`~repro.common.errors.SimulationError`,
never a silently wrong burn rate.  Firing alerts are emitted as
flight-recorder instants (when a recorder is attached) and folded into a
rendered **health digest** that names each alert's top-blamed latency
phase, courtesy of :mod:`repro.obs.postmortem`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.metrics.timeline import validate_timeline
from repro.obs.postmortem import BREAKDOWN_PHASES, LatencyBreakdown


def _require_positive(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise ConfigurationError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class BurnRateRule:
    """Multi-window error-budget burn-rate detector for one latency SLO.

    A completed query is *bad* when its end-to-end latency exceeds
    ``threshold_s``; the burn rate over a trailing window is
    ``bad_fraction / budget`` (1.0 = spending the budget exactly as fast
    as allowed).  The rule fires only while **both** windows burn above
    their thresholds, the standard fast+slow multiwindow guard.
    """

    name: str
    #: Latency SLO threshold in simulated seconds.
    threshold_s: float
    #: Tolerated bad-query fraction (the error budget).
    budget: float = 0.05
    fast_window_s: float = 60.0
    fast_burn: float = 6.0
    slow_window_s: float = 360.0
    slow_burn: float = 3.0
    #: Restrict to one workload class (``None`` = every query).
    query_class: Optional[str] = None

    def __post_init__(self) -> None:
        _require_positive("threshold_s", self.threshold_s)
        if not math.isfinite(self.budget) or not (0.0 < self.budget <= 1.0):
            raise ConfigurationError(
                f"budget must be in (0, 1], got {self.budget!r}"
            )
        _require_positive("fast_window_s", self.fast_window_s)
        _require_positive("slow_window_s", self.slow_window_s)
        _require_positive("fast_burn", self.fast_burn)
        _require_positive("slow_burn", self.slow_burn)
        if self.fast_window_s > self.slow_window_s:
            raise ConfigurationError(
                f"fast window ({self.fast_window_s}s) must not exceed the "
                f"slow window ({self.slow_window_s}s)"
            )


@dataclass(frozen=True)
class ThresholdRule:
    """Windowed-utilisation threshold on one busy-seconds timeline."""

    name: str
    #: Key into the cumulative busy-seconds series mapping
    #: (e.g. ``"shard1.disk"`` or ``"coordinator.cpu"``).
    series: str
    #: Utilisation level in [0, 1] that trips the rule.
    threshold: float
    #: Trailing window the utilisation is computed over.
    window_s: float = 10.0
    #: The level must hold at least this long before the rule fires.
    for_s: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.threshold) or not (0.0 < self.threshold <= 1.0):
            raise ConfigurationError(
                f"threshold must be in (0, 1], got {self.threshold!r}"
            )
        _require_positive("window_s", self.window_s)
        if not math.isfinite(self.for_s) or self.for_s < 0.0:
            raise ConfigurationError(
                f"for_s must be finite and >= 0, got {self.for_s!r}"
            )


@dataclass(frozen=True)
class AlertPolicy:
    """The rules one run is evaluated against."""

    burn_rules: Tuple[BurnRateRule, ...] = ()
    threshold_rules: Tuple[ThresholdRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "burn_rules", tuple(self.burn_rules))
        object.__setattr__(self, "threshold_rules", tuple(self.threshold_rules))
        names = [rule.name for rule in self.burn_rules] + [
            rule.name for rule in self.threshold_rules
        ]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate alert rule names in {names}")

    @property
    def is_empty(self) -> bool:
        return not self.burn_rules and not self.threshold_rules


@dataclass(frozen=True)
class Alert:
    """One firing episode of one rule, on the simulated clock."""

    rule: str
    #: ``"burn-rate"`` or ``"threshold"``.
    kind: str
    #: When the rule started firing.
    start: float
    #: When it stopped (the run's end for still-active alerts).
    end: float
    #: Whether the alert was still firing when the run ended.
    active: bool
    #: Peak burn-rate multiple (burn rules) or peak utilisation
    #: (threshold rules) during the episode.
    peak: float
    description: str
    #: Most-blamed latency phase among queries completing in the episode.
    top_phase: str = ""
    top_phase_share: float = 0.0


@dataclass(frozen=True)
class QueryCompletion:
    """One completed query as the alert evaluator sees it."""

    finish_time: float
    query_class: str
    breakdown: LatencyBreakdown

    @property
    def end_to_end(self) -> float:
        return self.breakdown.total


# -------------------------------------------------------------- burn rates
def burn_rate_points(
    samples: Sequence[Tuple[float, float]],
    window_s: float,
    budget: float,
    where: str = "burn rate",
) -> List[Tuple[float, float]]:
    """Trailing-window burn rate evaluated at every sample instant.

    ``samples`` are ``(finish_time, bad)`` points with ``bad`` in {0, 1},
    sorted by time; they pass :func:`validate_timeline` first, so NaN
    indicators and backwards stamps raise instead of producing a NaN burn
    rate.  Returns ``(finish_time, burn_multiple)`` points.
    """
    _require_positive_sim(where, "window_s", window_s)
    _require_positive_sim(where, "budget", budget)
    points = validate_timeline(samples, where=where)
    times = [time for time, _ in points]
    bad_prefix = [0.0]
    for _, bad in points:
        if bad not in (0.0, 1.0):
            raise SimulationError(
                f"{where}: bad-query indicator must be 0 or 1, got {bad!r}"
            )
        bad_prefix.append(bad_prefix[-1] + bad)
    rates: List[Tuple[float, float]] = []
    for index, time in enumerate(times):
        first = bisect_left(times, time - window_s)
        total = index - first + 1
        bad = bad_prefix[index + 1] - bad_prefix[first]
        burn = (bad / total) / budget
        if not math.isfinite(burn):
            raise SimulationError(f"{where}: non-finite burn rate at t={time}")
        rates.append((time, burn))
    return rates


def _require_positive_sim(where: str, name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise SimulationError(
            f"{where}: {name} must be finite and > 0, got {value!r}"
        )


def utilisation_points(
    busy: Sequence[Tuple[float, float]],
    window_s: float,
    where: str = "utilisation",
) -> List[Tuple[float, float]]:
    """Trailing-window utilisation from a cumulative busy-seconds timeline.

    ``busy`` points are ``(time, cumulative_busy_seconds)`` and must be
    monotone in both coordinates (validated).  Utilisation at a point is
    the busy-seconds gained over the trailing ``window_s``, divided by the
    window actually covered.
    """
    _require_positive_sim(where, "window_s", window_s)
    points = validate_timeline(busy, where=where)
    previous_busy = None
    for index, (time, value) in enumerate(points):
        if value < 0.0 or (previous_busy is not None and value < previous_busy):
            raise SimulationError(
                f"{where}: busy-seconds go backwards at index {index}"
            )
        previous_busy = value
    times = [time for time, _ in points]
    result: List[Tuple[float, float]] = []
    for index, (time, value) in enumerate(points):
        start = max(0.0, time - window_s)
        first = bisect_left(times, start)
        base = points[first - 1][1] if first > 0 else 0.0
        span = time - start
        if span <= 0.0:
            result.append((time, 0.0))
            continue
        result.append((time, min(1.0, (value - base) / span)))
    return result


def _episodes(
    flags: Sequence[Tuple[float, bool, float]], duration: float
) -> List[Tuple[float, float, bool, float]]:
    """Group ``(time, firing, level)`` evaluations into firing episodes.

    Returns ``(start, end, active_at_end, peak_level)`` tuples; an episode
    still firing at the last evaluation closes at ``duration``.
    """
    episodes: List[Tuple[float, float, bool, float]] = []
    start: Optional[float] = None
    peak = 0.0
    for time, firing, level in flags:
        if firing:
            if start is None:
                start = time
                peak = level
            else:
                peak = max(peak, level)
        elif start is not None:
            episodes.append((start, time, False, peak))
            start = None
    if start is not None:
        episodes.append((start, max(duration, start), True, peak))
    return episodes


def _top_blame(
    completions: Sequence[QueryCompletion],
    start: float,
    end: float,
    query_class: Optional[str] = None,
) -> Tuple[str, float]:
    """Most-blamed phase among queries completing within ``[start, end]``."""
    window = [
        completion.breakdown
        for completion in completions
        if start <= completion.finish_time <= end
        and (query_class is None or completion.query_class == query_class)
    ]
    if not window:
        return "", 0.0
    sums = {
        name: math.fsum(getattr(breakdown, name) for breakdown in window)
        for name in BREAKDOWN_PHASES
    }
    total = math.fsum(sums.values())
    name = max(sums, key=lambda phase: sums[phase])
    return name, (sums[name] / total if total > 0 else 0.0)


def evaluate_alerts(
    policy: AlertPolicy,
    completions: Sequence[QueryCompletion],
    busy_series: Mapping[str, Sequence[Tuple[float, float]]],
    duration: float,
    obs=None,
    where: str = "alerts",
) -> Tuple[Alert, ...]:
    """Evaluate one run against ``policy``; returns the firing episodes.

    ``completions`` carry finish time, class and breakdown of every
    completed query; ``busy_series`` maps resource names to cumulative
    busy-seconds timelines for the threshold rules.  Evaluation happens on
    the simulated clock (an alert's ``start`` is the completion/sample
    instant the rule first tripped, *inside* the incident window, not at
    the end of the run).  ``obs`` optionally receives ``alert.fire`` /
    ``alert.resolve`` flight-recorder instants.
    """
    ordered = sorted(completions, key=lambda completion: completion.finish_time)
    alerts: List[Alert] = []
    for rule in policy.burn_rules:
        matching = [
            completion
            for completion in ordered
            if rule.query_class is None
            or completion.query_class == rule.query_class
        ]
        samples = [
            (
                completion.finish_time,
                1.0 if completion.end_to_end > rule.threshold_s else 0.0,
            )
            for completion in matching
        ]
        label = f"{where}: burn rule {rule.name!r}"
        fast = burn_rate_points(
            samples, rule.fast_window_s, rule.budget, where=label
        )
        slow = burn_rate_points(
            samples, rule.slow_window_s, rule.budget, where=label
        )
        flags = [
            (
                time,
                fast_burn >= rule.fast_burn and slow_burn >= rule.slow_burn,
                fast_burn,
            )
            for (time, fast_burn), (_, slow_burn) in zip(fast, slow)
        ]
        for start, end, active, peak in _episodes(flags, duration):
            phase, share = _top_blame(ordered, start, end, rule.query_class)
            scope = rule.query_class or "all classes"
            alerts.append(
                Alert(
                    rule=rule.name,
                    kind="burn-rate",
                    start=start,
                    end=end,
                    active=active,
                    peak=peak,
                    description=(
                        f"{scope}: latency > {rule.threshold_s:g}s burning "
                        f"{peak:.1f}x the {rule.budget:.0%} error budget "
                        f"({rule.fast_window_s:g}s + {rule.slow_window_s:g}s "
                        f"windows)"
                    ),
                    top_phase=phase,
                    top_phase_share=share,
                )
            )
    for rule in policy.threshold_rules:
        if rule.series not in busy_series:
            raise SimulationError(
                f"{where}: threshold rule {rule.name!r} wants series "
                f"{rule.series!r}; available: {sorted(busy_series)}"
            )
        label = f"{where}: threshold rule {rule.name!r}"
        utilisation = utilisation_points(
            busy_series[rule.series], rule.window_s, where=label
        )
        flags = [
            (time, value >= rule.threshold, value)
            for time, value in utilisation
        ]
        for start, end, active, peak in _episodes(flags, duration):
            if end - start < rule.for_s:
                continue
            phase, share = _top_blame(ordered, start, end)
            alerts.append(
                Alert(
                    rule=rule.name,
                    kind="threshold",
                    start=start,
                    end=end,
                    active=active,
                    peak=peak,
                    description=(
                        f"{rule.series} utilisation peaked at {peak:.0%} "
                        f"(>= {rule.threshold:.0%} over {rule.window_s:g}s "
                        f"windows)"
                    ),
                    top_phase=phase,
                    top_phase_share=share,
                )
            )
    alerts.sort(key=lambda alert: (alert.start, alert.rule))
    if obs is not None:
        for alert in alerts:
            obs.instant(
                "alert.fire", "alerts", alert.start, "frontdoor", "alerts",
                rule=alert.rule, kind=alert.kind, peak=alert.peak,
                top_phase=alert.top_phase,
            )
            if not alert.active:
                obs.instant(
                    "alert.resolve", "alerts", alert.end,
                    "frontdoor", "alerts", rule=alert.rule,
                )
    return tuple(alerts)


def render_health_digest(
    alerts: Sequence[Alert], duration: float, title: str = "Health digest"
) -> str:
    """Human-readable incident summary of one run.

    One line per firing alert — window, peak, and the top-blamed latency
    phase — or a single all-clear line when nothing fired.
    """
    lines = [f"{title} ({duration:.1f}s simulated)"]
    if not alerts:
        lines.append("  OK - no alerts fired; error budget intact")
        return "\n".join(lines)
    for alert in alerts:
        state = "ACTIVE" if alert.active else "resolved"
        blame = ""
        if alert.top_phase:
            blame = (
                f" - top blame: {alert.top_phase} "
                f"({alert.top_phase_share:.0%})"
            )
        lines.append(
            f"  [{alert.kind}] {alert.rule}: fired {alert.start:.1f}s"
            f"-{alert.end:.1f}s ({state}, peak {alert.peak:.2f})"
            f"{blame}"
        )
        lines.append(f"      {alert.description}")
    return "\n".join(lines)
