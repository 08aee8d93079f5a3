"""Latency-SLO metrics for the open-system query service.

A service run is judged on quantities the closed-system tables never need:

* **end-to-end latency** per query (submission to completion, i.e. queue
  wait plus execution) and its tail percentiles p50/p95/p99, which is what
  a latency SLO is written against;
* **queue wait** on its own, separating admission delay from execution;
* **throughput** actually delivered (completed queries per second) versus
  the offered load; and
* **shed rate**, the fraction of arrivals the admission controller rejected.

:func:`build_slo_report` derives all of these from a :class:`RunResult`
plus the admission controller's counters; :func:`render_slo_table` prints
one row per policy in the style of the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.report import format_table
from repro.metrics.stats import LatencySummary
from repro.net.resources import CoordinatorSLO
from repro.obs.postmortem import BlameReport
from repro.sim.results import RunResult


@dataclass(frozen=True)
class ClassSLO:
    """Per-workload-class slice of a service run's SLO metrics.

    Built by the front door (:meth:`repro.service.frontdoor.FrontDoor.
    class_reports`) from the class's completed queries and its admission
    queue counters, so interactive vs batch latency — and who got shed
    under overload — is visible per class instead of being averaged away.
    """

    query_class: str
    weight: float
    offered: int
    admitted: int
    completed: int
    shed: int
    max_queue_len: int
    latency: LatencySummary
    queue_wait: LatencySummary
    execution: LatencySummary

    @property
    def shed_rate(self) -> float:
        """Fraction of this class's arrivals rejected by admission control."""
        if self.offered <= 0:
            return 0.0
        return self.shed / self.offered

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary (for JSON reports)."""
        return {
            "weight": self.weight,
            "offered": float(self.offered),
            "admitted": float(self.admitted),
            "completed": float(self.completed),
            "shed": float(self.shed),
            "shed_rate": self.shed_rate,
            "max_queue_len": float(self.max_queue_len),
            "latency_p50": self.latency.p50,
            "latency_p95": self.latency.p95,
            "latency_p99": self.latency.p99,
            "latency_mean": self.latency.mean,
            "queue_wait_p95": self.queue_wait.p95,
            "execution_p95": self.execution.p95,
        }


@dataclass(frozen=True)
class AvailabilitySLO:
    """Replication/failure accounting attached to a cluster SLO report.

    Built by the cluster coordinator when the configuration is replicated,
    has a failure schedule, or hedges; carries the per-shard
    up/degraded timelines plus the counters that explain where failure-era
    latency went — hedges fired/won, orphan re-scatters, and the latency
    split between failure-affected and unaffected queries.
    """

    #: Replication factor the cluster ran with.
    replicas: int
    #: Per-shard ``(time, state)`` health timelines; states are ``"up"``,
    #: ``"degraded"`` and ``"down"``, starting ``(0.0, "up")``.
    shard_timelines: Tuple[Tuple[Tuple[float, str], ...], ...]
    #: Seconds each shard spent killed over the run.
    downtime_s: Tuple[float, ...]
    #: Seconds each shard spent degraded over the run.
    degraded_s: Tuple[float, ...]
    kills: int
    degrades: int
    repairs: int
    #: Hedged duplicates scattered / hedges whose duplicate won / racing
    #: copies cancelled after a first completion.
    hedges_fired: int
    hedges_won: int
    hedges_cancelled: int
    #: Sub-query groups re-scattered to another replica after a kill.
    rescatters: int
    #: Sub-query groups that found no live replica and had to wait for a
    #: repair (0 on any run that completed with R > 1 coverage).
    orphaned: int
    #: Queries whose latency was touched by a failure, hedge or re-scatter.
    affected_queries: int
    affected_latency: LatencySummary
    unaffected_latency: LatencySummary

    @property
    def availability(self) -> float:
        """Mean fraction of shard-seconds the fleet spent fully up."""
        if not self.shard_timelines:
            return 1.0
        spans = []
        for shard in range(len(self.downtime_s)):
            last = self.shard_timelines[shard][-1][0] if self.shard_timelines[shard] else 0.0
            spans.append(last)
        span = max(spans + [0.0])
        if span <= 0.0:
            return 1.0
        lost = sum(self.downtime_s) + sum(self.degraded_s)
        return max(0.0, 1.0 - lost / (span * len(self.downtime_s)))

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary view (merged into ``SLOReport.as_dict``)."""
        return {
            "replicas": self.replicas,
            "kills": self.kills,
            "degrades": self.degrades,
            "repairs": self.repairs,
            "hedges_fired": self.hedges_fired,
            "hedges_won": self.hedges_won,
            "hedges_cancelled": self.hedges_cancelled,
            "rescatters": self.rescatters,
            "orphaned": self.orphaned,
            "affected_queries": self.affected_queries,
            "affected_latency_p95": self.affected_latency.p95,
            "affected_latency_p99": self.affected_latency.p99,
            "unaffected_latency_p95": self.unaffected_latency.p95,
            "unaffected_latency_p99": self.unaffected_latency.p99,
            **{
                f"shard{shard}_downtime_s": value
                for shard, value in enumerate(self.downtime_s)
            },
            **{
                f"shard{shard}_degraded_s": value
                for shard, value in enumerate(self.degraded_s)
            },
        }


@dataclass(frozen=True)
class SLOReport:
    """Service-level summary of one open-system run under one policy."""

    policy: str
    offered: int
    admitted: int
    completed: int
    shed: int
    duration: float
    offered_rate_qps: float
    max_queue_len: int
    latency: LatencySummary
    queue_wait: LatencySummary
    execution: LatencySummary
    #: Mean busy fraction over all disk volumes during the run.
    disk_utilisation: float = 0.0
    #: Busy fraction of each individual disk volume (one entry per volume).
    volume_utilisation: Tuple[float, ...] = ()
    #: Per-workload-class slices of the same run (empty for reports built
    #: without a front door, e.g. per-shard sub-query reports).
    classes: Tuple[ClassSLO, ...] = ()
    #: Coordinator CPU/NIC accounting — only present on cluster reports
    #: whose configuration models the coordinator as a real resource
    #: (``None`` otherwise, including every single-node report, so frozen
    #: equality with :func:`repro.service.run_service` reports still holds
    #: on the zero-cost path).
    coordinator: Optional[CoordinatorSLO] = None
    #: Replication/failure accounting — only present on cluster reports
    #: whose configuration has replicas > 1, a failure schedule, or
    #: hedging; ``None`` keeps reports of other runs equal to each other.
    availability: Optional[AvailabilitySLO] = None
    #: Per-class latency blame tables aggregated from the always-on
    #: :class:`repro.obs.postmortem.LatencyBreakdown` stamps ("interactive
    #: p95 = 61% disk transfer, 22% admission wait").  Deliberately *not*
    #: part of :meth:`as_dict`, so SLO dictionaries stay bit-for-bit
    #: identical to pre-postmortem runs.
    blame: Optional[BlameReport] = None

    @property
    def num_volumes(self) -> int:
        """Number of disk volumes the run was served from."""
        return max(1, len(self.volume_utilisation))

    @property
    def shed_rate(self) -> float:
        """Fraction of offered queries rejected by admission control."""
        if self.offered <= 0:
            return 0.0
        return self.shed / self.offered

    @property
    def throughput_qps(self) -> float:
        """Completed queries per second of simulated time."""
        if self.duration <= 0:
            return 0.0
        return self.completed / self.duration

    def meets(self, p95_latency_slo: float) -> bool:
        """Did the run keep p95 end-to-end latency within the SLO without
        shedding any queries?"""
        return self.shed == 0 and self.latency.p95 <= p95_latency_slo

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary (for reports and EXPERIMENTS.md generation)."""
        return {
            "offered": float(self.offered),
            "admitted": float(self.admitted),
            "completed": float(self.completed),
            "shed": float(self.shed),
            "shed_rate": self.shed_rate,
            "duration": self.duration,
            "offered_rate_qps": self.offered_rate_qps,
            "throughput_qps": self.throughput_qps,
            "max_queue_len": float(self.max_queue_len),
            "latency_p50": self.latency.p50,
            "latency_p95": self.latency.p95,
            "latency_p99": self.latency.p99,
            "latency_mean": self.latency.mean,
            "queue_wait_p95": self.queue_wait.p95,
            "queue_wait_mean": self.queue_wait.mean,
            "execution_p95": self.execution.p95,
            "disk_utilisation": self.disk_utilisation,
            "num_volumes": float(self.num_volumes),
            **{
                f"volume_{index}_utilisation": value
                for index, value in enumerate(self.volume_utilisation)
            },
            **{
                f"class_{report.query_class}_{key}": value
                for report in self.classes
                for key, value in report.as_dict().items()
            },
            **(
                {
                    f"coordinator_{key}": value
                    for key, value in self.coordinator.as_dict().items()
                }
                if self.coordinator is not None
                else {}
            ),
            **(
                {
                    f"availability_{key}": value
                    for key, value in self.availability.as_dict().items()
                }
                if self.availability is not None
                else {}
            ),
        }

    def class_report(self, query_class: str) -> ClassSLO:
        """The per-class slice for ``query_class`` (raises if absent)."""
        for report in self.classes:
            if report.query_class == query_class:
                return report
        raise KeyError(
            f"no class {query_class!r} in report "
            f"(classes: {[r.query_class for r in self.classes]})"
        )


def build_slo_report(
    result: RunResult,
    offered: int,
    shed: int,
    max_queue_len: int = 0,
    offered_rate_qps: float = 0.0,
    admitted: Optional[int] = None,
    classes: Tuple[ClassSLO, ...] = (),
) -> SLOReport:
    """Summarise one open-system run into its SLO metrics.

    ``admitted`` defaults to the number of completed queries, which is exact
    for runs driven to completion; pass the admission controller's counter
    when summarising partial runs.  ``classes`` carries the front door's
    per-class slices (:meth:`repro.service.frontdoor.FrontDoor.class_reports`).
    """
    queries = result.queries
    return SLOReport(
        policy=result.policy,
        offered=offered,
        admitted=len(queries) if admitted is None else admitted,
        completed=len(queries),
        shed=shed,
        duration=result.total_time,
        offered_rate_qps=offered_rate_qps,
        max_queue_len=max_queue_len,
        latency=LatencySummary.from_values(
            [query.end_to_end_latency for query in queries]
        ),
        queue_wait=LatencySummary.from_values(
            [query.queue_wait for query in queries]
        ),
        execution=LatencySummary.from_values(
            [query.latency for query in queries]
        ),
        disk_utilisation=result.disk_utilisation,
        volume_utilisation=tuple(result.volume_utilisation),
        classes=classes,
    )


def merge_shard_slo_reports(
    shard_reports: Sequence[SLOReport],
    end_to_end: Sequence[float],
    queue_waits: Sequence[float],
    executions: Sequence[float],
    offered: int,
    admitted: int,
    completed: int,
    shed: int,
    max_queue_len: int = 0,
    offered_rate_qps: float = 0.0,
    classes: Tuple[ClassSLO, ...] = (),
    coordinator: Optional[CoordinatorSLO] = None,
    duration: Optional[float] = None,
    availability: Optional[AvailabilitySLO] = None,
) -> SLOReport:
    """Gather per-shard reports into one cluster-level :class:`SLOReport`.

    The latency samples (``end_to_end`` / ``queue_waits`` / ``executions``)
    are *whole-query* quantities measured by the cluster coordinator —
    sub-query latencies cannot simply be concatenated, a query is only as
    fast as its slowest sub-query.  The shard reports contribute the
    utilisation side: every shard volume becomes one entry of the merged
    ``volume_utilisation`` (the way :func:`render_volume_utilisation`
    aggregates volumes), re-normalised to the cluster makespan so shards
    that finished early count as idle for the remainder.  The front-queue
    counters (``offered`` … ``max_queue_len``) come from the cluster's
    single admission controller, and ``classes`` carries the front door's
    per-class slices — whole-query quantities too, because a class's p95 is
    defined over its queries, not its sub-queries.

    With a single shard every merged quantity reduces to the shard's own
    (the scale factor is exactly 1.0 and is skipped), preserving the
    1-shard golden-trace equivalence with :func:`run_service` reports.

    ``coordinator`` attaches the coordinator's own CPU/NIC accounting when
    the cluster models it as a real resource; ``duration`` then overrides
    the makespan (the last gather-merge can finish after the slowest shard
    went idle).  Both default to a free coordinator.
    """
    if not shard_reports:
        raise ValueError("cannot merge zero shard reports")
    shard_span = max(report.duration for report in shard_reports)
    duration = shard_span if duration is None else max(duration, shard_span)
    busy_volume_seconds = 0.0
    total_volumes = 0
    volume_utilisation: List[float] = []
    for report in shard_reports:
        total_volumes += report.num_volumes
        busy_volume_seconds += (
            report.disk_utilisation * report.num_volumes * report.duration
        )
        per_volume = list(report.volume_utilisation) or [report.disk_utilisation]
        scale = report.duration / duration if duration > 0 else 0.0
        if scale == 1.0:
            volume_utilisation.extend(per_volume)
        else:
            volume_utilisation.extend(value * scale for value in per_volume)
    if len(shard_reports) == 1:
        disk_utilisation = shard_reports[0].disk_utilisation
    elif duration > 0 and total_volumes > 0:
        disk_utilisation = busy_volume_seconds / (total_volumes * duration)
    else:
        disk_utilisation = 0.0
    return SLOReport(
        policy=shard_reports[0].policy,
        offered=offered,
        admitted=admitted,
        completed=completed,
        shed=shed,
        duration=duration,
        offered_rate_qps=offered_rate_qps,
        max_queue_len=max_queue_len,
        latency=LatencySummary.from_values(end_to_end),
        queue_wait=LatencySummary.from_values(queue_waits),
        execution=LatencySummary.from_values(executions),
        disk_utilisation=disk_utilisation,
        volume_utilisation=tuple(volume_utilisation),
        classes=classes,
        coordinator=coordinator,
        availability=availability,
    )


def render_coordinator_table(
    reports: Sequence[SLOReport],
    title: Optional[str] = "Coordinator utilisation",
) -> str:
    """One row per policy: coordinator CPU/NIC utilisation and queue delays.

    Renders the :attr:`SLOReport.coordinator` sections; reports built
    without a modeled coordinator show ``-`` across the row.
    """
    headers = [
        "policy", "cpu%", "nic%", "peak%", "cpu ops", "msgs",
        "cpuQ max", "nicQ max", "warnings",
    ]
    rows: List[List[object]] = []
    for report in reports:
        section = report.coordinator
        if section is None:
            rows.append([report.policy] + ["-"] * (len(headers) - 1))
            continue
        rows.append(
            [
                report.policy,
                round(100.0 * section.cpu_utilisation, 1),
                round(100.0 * section.nic_utilisation, 1),
                round(100.0 * section.bottleneck_utilisation, 1),
                section.cpu_ops,
                section.nic_messages,
                round(section.cpu_queue_delay_max_s, 3),
                round(section.nic_queue_delay_max_s, 3),
                len(section.warnings) or "-",
            ]
        )
    return format_table(headers, rows, title=title)


def render_availability_table(
    reports: Sequence[SLOReport],
    title: Optional[str] = "Availability & failure handling",
) -> str:
    """One row per policy: failure counters, hedging and the latency split.

    Renders the :attr:`SLOReport.availability` sections; reports built
    without replicas, failures or hedging show ``-`` across the row.
    """
    headers = [
        "policy", "R", "avail%", "kills", "repairs", "hedged", "won",
        "rescat", "orphan", "affected", "aff p99", "unaff p99",
    ]
    rows: List[List[object]] = []
    for report in reports:
        section = report.availability
        if section is None:
            rows.append([report.policy] + ["-"] * (len(headers) - 1))
            continue
        rows.append(
            [
                report.policy,
                section.replicas,
                round(100.0 * section.availability, 1),
                section.kills,
                section.repairs,
                section.hedges_fired,
                section.hedges_won,
                section.rescatters,
                section.orphaned,
                section.affected_queries,
                round(section.affected_latency.p99, 2),
                round(section.unaffected_latency.p99, 2),
            ]
        )
    return format_table(headers, rows, title=title)


def render_slo_table(
    reports: Sequence[SLOReport],
    title: Optional[str] = "Service-level statistics",
) -> str:
    """One row per policy: throughput, tail latencies, queue wait, shed rate."""
    headers = [
        "policy", "offered", "done", "shed%", "tput q/s",
        "lat p50", "lat p95", "lat p99", "wait p95", "maxQ", "disk%",
    ]
    rows: List[List[object]] = []
    for report in reports:
        rows.append(
            [
                report.policy,
                report.offered,
                report.completed,
                round(100.0 * report.shed_rate, 1),
                round(report.throughput_qps, 3),
                round(report.latency.p50, 2),
                round(report.latency.p95, 2),
                round(report.latency.p99, 2),
                round(report.queue_wait.p95, 2),
                report.max_queue_len,
                round(100.0 * report.disk_utilisation, 1),
            ]
        )
    return format_table(headers, rows, title=title)


def render_class_slo_table(
    report: SLOReport,
    title: Optional[str] = "Per-class service-level statistics",
) -> str:
    """One row per workload class: counts, shed rate and tail latencies.

    Renders the :attr:`SLOReport.classes` slices — the table that shows
    whether the interactive class kept its latency while batch volume grew,
    and which class paid the shedding under overload.
    """
    headers = [
        "class", "weight", "offered", "done", "shed", "shed%",
        "lat p50", "lat p95", "lat p99", "wait p95", "maxQ",
    ]
    rows: List[List[object]] = []
    for cls in report.classes:
        rows.append(
            [
                cls.query_class,
                round(cls.weight, 2),
                cls.offered,
                cls.completed,
                cls.shed,
                round(100.0 * cls.shed_rate, 1),
                round(cls.latency.p50, 2),
                round(cls.latency.p95, 2),
                round(cls.latency.p99, 2),
                round(cls.queue_wait.p95, 2),
                cls.max_queue_len,
            ]
        )
    return format_table(headers, rows, title=title)


def render_blame_table(
    report: SLOReport,
    title: Optional[str] = "Latency blame (critical-path attribution)",
    top_n: int = 3,
) -> str:
    """One row per workload class: where the latency actually went.

    Renders the :attr:`SLOReport.blame` section built from the always-on
    per-query breakdowns — mean blame over every completed query and tail
    blame over the queries at or above the class's p95 (the row that reads
    "interactive p95 = 61% disk transfer, 22% admission wait").  Reports
    without breakdowns render a single placeholder row.
    """

    def _phases(shares: Sequence[Tuple[str, float]]) -> str:
        if not shares:
            return "-"
        return ", ".join(
            f"{share:.0%} {name}" for name, share in shares
        )

    headers = [
        "class", "queries", "p95 s", "tail blame", "overall blame",
    ]
    rows: List[List[object]] = []
    blame = report.blame
    if blame is None:
        rows.append([report.policy, "-", "-", "-", "-"])
        return format_table(headers, rows, title=title)
    for section in (blame.overall,) + blame.classes:
        rows.append(
            [
                section.query_class,
                section.count,
                round(section.tail_threshold_s, 3),
                _phases(section.top_phases(top_n, tail=True)),
                _phases(section.top_phases(top_n, tail=False)),
            ]
        )
    return format_table(headers, rows, title=title)


def render_volume_utilisation(
    reports: Sequence[SLOReport],
    title: Optional[str] = "Per-volume disk utilisation",
) -> str:
    """One row per policy, one column per disk volume (busy percentages)."""
    num_volumes = max((report.num_volumes for report in reports), default=1)
    headers = ["policy"] + [f"vol{index}%" for index in range(num_volumes)]
    rows: List[List[object]] = []
    for report in reports:
        utilisation = list(report.volume_utilisation) or [report.disk_utilisation]
        row: List[object] = [report.policy]
        for index in range(num_volumes):
            if index < len(utilisation):
                row.append(round(100.0 * utilisation[index], 1))
            else:
                row.append("-")
        rows.append(row)
    return format_table(headers, rows, title=title)
