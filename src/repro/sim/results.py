"""Result records produced by a simulation run.

These dataclasses carry exactly the quantities the paper reports:
per-query latency and I/O counts (Tables 2 and 3), per-stream running time
(the "avg. stream time" throughput metric), total time, CPU utilisation and
the number of I/O requests, plus the raw I/O trace for Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.common.config import DEFAULT_QUERY_CLASS
from repro.disk.trace import IOTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.postmortem import LatencyBreakdown
    from repro.obs.profile import SchedulerProfile


@dataclass
class QueryResult:
    """Outcome of one executed query."""

    query_id: int
    name: str
    stream: int
    arrival_time: float
    finish_time: float
    chunks: int
    cpu_seconds: float
    loads_triggered: int
    #: Chunks in the order the ABM delivered them to the query; out-of-order
    #: for the relevance policy, and usable to replay the same delivery in the
    #: in-memory engine (CScan).
    delivery_order: tuple = ()
    #: When the query was submitted to the system (open-system arrivals).
    #: ``None`` means the query started executing the moment it was submitted
    #: (closed streams), i.e. it never waited in an admission queue.
    submit_time: Optional[float] = None
    #: Workload class of the query (:data:`DEFAULT_QUERY_CLASS` unless the
    #: workload declares classes), used by the per-class SLO tables.
    query_class: str = DEFAULT_QUERY_CLASS
    #: Always-on postmortem attribution
    #: (:class:`repro.obs.postmortem.LatencyBreakdown`): the end-to-end
    #: latency decomposed into non-overlapping phases that sum exactly back
    #: to it.  ``None`` only for hand-built results or runs that disabled
    #: breakdowns; never part of the scheduling fingerprint.
    breakdown: Optional["LatencyBreakdown"] = None

    @property
    def latency(self) -> float:
        """Wall-clock latency of the query (arrival to completion)."""
        return self.finish_time - self.arrival_time

    @property
    def queue_wait(self) -> float:
        """Time spent waiting in the admission queue before execution."""
        if self.submit_time is None:
            return 0.0
        return max(0.0, self.arrival_time - self.submit_time)

    @property
    def end_to_end_latency(self) -> float:
        """Submission-to-completion latency (queue wait plus execution)."""
        if self.submit_time is None:
            return self.latency
        return self.finish_time - self.submit_time

    def normalized_latency(self, standalone: float) -> float:
        """Latency divided by the query's cold standalone running time."""
        if standalone <= 0:
            return float("inf")
        return self.latency / standalone


@dataclass
class StreamResult:
    """Outcome of one query stream (queries executed back to back)."""

    stream: int
    start_time: float
    finish_time: float
    query_names: List[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Running time of the stream."""
        return self.finish_time - self.start_time


@dataclass
class RunResult:
    """Outcome of a full simulation run."""

    policy: str
    total_time: float
    io_requests: int
    bytes_read: int
    cpu_utilisation: float
    queries: List[QueryResult]
    streams: List[StreamResult]
    trace: Optional[IOTrace] = None
    scheduling_seconds: float = 0.0
    #: Number of scheduling decisions the policy made (select / load /
    #: eviction calls), for per-decision cost reporting; 0 for policies that
    #: do not count their calls.
    scheduling_calls: int = 0
    num_chunks: int = 0
    config: Dict[str, object] = field(default_factory=dict)
    #: Mean busy fraction over all disk volumes (one volume: plain disk
    #: utilisation).
    disk_utilisation: float = 0.0
    #: Busy fraction of each disk volume over the run (empty when the runner
    #: did not attach disk statistics, e.g. hand-built results).
    volume_utilisation: Tuple[float, ...] = ()
    #: Fraction of disk requests that avoided a full seek (per-volume
    #: sequential or same-chunk accesses) — the seek-amortisation measure.
    disk_sequential_fraction: float = 0.0
    #: Per-phase wall-clock breakdown of the scheduler
    #: (:class:`repro.obs.profile.SchedulerProfile`): ``scheduling_seconds``
    #: split over register / select_chunk / next_load / complete_load /
    #: finish_chunk / unregister.  ``None`` for hand-built results.
    scheduler_profile: Optional["SchedulerProfile"] = None
    #: Cumulative disk busy-seconds sampled at every disk completion:
    #: ``(time, total_busy_seconds_so_far)`` points, monotone in both
    #: coordinates.  Feeds the threshold alerts in :mod:`repro.obs.alerts`;
    #: empty for hand-built results.
    disk_busy_timeline: Tuple[Tuple[float, float], ...] = ()

    # ------------------------------------------------------------ aggregates
    @property
    def average_stream_time(self) -> float:
        """The paper's throughput metric: mean stream running time."""
        if not self.streams:
            return 0.0
        return sum(stream.duration for stream in self.streams) / len(self.streams)

    @property
    def average_latency(self) -> float:
        """Mean query latency over every executed query."""
        if not self.queries:
            return 0.0
        return sum(query.latency for query in self.queries) / len(self.queries)

    def average_normalized_latency(self, standalone_times: Dict[str, float]) -> float:
        """The paper's latency metric: mean of per-query latency divided by
        the query's cold standalone time (grouped by query name)."""
        if not self.queries:
            return 0.0
        total = 0.0
        for query in self.queries:
            standalone = standalone_times.get(query.name, 0.0)
            total += query.normalized_latency(standalone)
        return total / len(self.queries)

    def queries_by_name(self) -> Dict[str, List[QueryResult]]:
        """Group query results by query name (e.g. ``"F-10"``)."""
        grouped: Dict[str, List[QueryResult]] = {}
        for query in self.queries:
            grouped.setdefault(query.name, []).append(query)
        return grouped

    @property
    def scheduling_fraction(self) -> float:
        """Fraction of the (simulated) execution time spent making scheduling
        decisions (measured in real seconds of the scheduler code, which is
        what Figure 8 of the paper reports)."""
        if self.total_time <= 0:
            return 0.0
        return self.scheduling_seconds / self.total_time

    @property
    def per_decision_seconds(self) -> float:
        """Mean real seconds per counted scheduling decision (the paper's
        per-call scheduling-cost measure from Figure 8)."""
        if self.scheduling_calls <= 0:
            return 0.0
        return self.scheduling_seconds / self.scheduling_calls


def scheduling_fingerprint(result: RunResult) -> tuple:
    """Everything scheduling decisions can influence, as one comparable value.

    Used by the golden-trace equivalence tests and the scheduling-overhead
    benchmark to assert that the incremental interest trackers make
    bit-for-bit the same decisions as the recompute-from-scratch oracle in
    ``tests/naive_relevance.py``: per-query timings, attribution and
    delivery orders, per-stream timings, and the raw I/O trace.
    """
    queries = [
        (
            query.query_id,
            query.arrival_time,
            query.finish_time,
            query.loads_triggered,
            tuple(query.delivery_order),
            query.submit_time,
        )
        for query in result.queries
    ]
    streams = [
        (stream.stream, stream.start_time, stream.finish_time)
        for stream in result.streams
    ]
    trace = list(result.trace) if result.trace is not None else None
    return (
        result.total_time,
        result.io_requests,
        result.bytes_read,
        queries,
        streams,
        trace,
    )
