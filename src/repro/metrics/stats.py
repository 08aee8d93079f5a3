"""Aggregation of simulation results into the paper's statistics.

Tables 2 and 3 report two groups of numbers per policy:

* **system statistics** — average stream time (throughput), average
  normalized latency, total time, CPU use and the number of I/O requests;
* **query statistics** — per query type (F-01, S-50, ...) the count,
  standalone cold time, average/stddev latency, normalized latency and the
  number of I/Os issued while scheduling that query type.

:func:`summarise_run` and :func:`per_query_type_stats` compute exactly those,
and :class:`PolicyComparison` collects them across policies so that the
benchmark harness (and the report renderer) can print paper-style tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.sim.results import QueryResult, RunResult


# --------------------------------------------------------------- percentiles
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` with linear interpolation.

    Deterministic, pure-python implementation of the standard
    "linear" (type-7) estimator: the ``q``-th percentile of ``n`` sorted
    values sits at rank ``(n - 1) * q / 100`` and is interpolated between
    the two neighbouring order statistics.  Matches
    ``numpy.percentile(values, q)`` exactly for finite inputs.
    """
    return _percentile_sorted(sorted(values), q)


def _percentile_sorted(data: Sequence[float], q: float) -> float:
    """:func:`percentile` over an already-sorted sample."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not data:
        raise ValueError("cannot take a percentile of an empty sequence")
    if len(data) == 1:
        return float(data[0])
    rank = (len(data) - 1) * (q / 100.0)
    lower = int(math.floor(rank))
    upper = min(lower + 1, len(data) - 1)
    fraction = rank - lower
    return float(data[lower]) + (float(data[upper]) - float(data[lower])) * fraction


@dataclass(frozen=True)
class LatencySummary:
    """Distributional summary of a latency (or any duration) sample.

    Carries the SLO-relevant tail percentiles (p50/p95/p99) alongside the
    usual mean/extremes; an empty sample yields all zeros so reports can
    render runs where e.g. every arrival was shed.
    """

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    @staticmethod
    def from_values(values: Sequence[float]) -> "LatencySummary":
        data = sorted(values)
        if not data:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return LatencySummary(
            count=len(data),
            mean=sum(data) / len(data),
            p50=_percentile_sorted(data, 50.0),
            p95=_percentile_sorted(data, 95.0),
            p99=_percentile_sorted(data, 99.0),
            minimum=float(data[0]),
            maximum=float(data[-1]),
        )


@dataclass(frozen=True)
class QueryTypeStats:
    """Per-query-type statistics (one row of the paper's query tables)."""

    name: str
    count: int
    standalone_time: float
    avg_latency: float
    stddev_latency: float
    avg_normalized_latency: float
    avg_ios: float

    @staticmethod
    def from_results(
        name: str, results: List[QueryResult], standalone_time: float
    ) -> "QueryTypeStats":
        """Aggregate the results of all queries with the same label."""
        latencies = [query.latency for query in results]
        count = len(latencies)
        avg = sum(latencies) / count if count else 0.0
        if count > 1:
            variance = sum((value - avg) ** 2 for value in latencies) / (count - 1)
        else:
            variance = 0.0
        normalized = (
            avg / standalone_time if standalone_time > 0 else float("inf")
        )
        avg_ios = (
            sum(query.loads_triggered for query in results) / count if count else 0.0
        )
        return QueryTypeStats(
            name=name,
            count=count,
            standalone_time=standalone_time,
            avg_latency=avg,
            stddev_latency=math.sqrt(variance),
            avg_normalized_latency=normalized,
            avg_ios=avg_ios,
        )


@dataclass(frozen=True)
class SystemStats:
    """System-wide statistics (the top block of Tables 2 and 3)."""

    policy: str
    avg_stream_time: float
    avg_normalized_latency: float
    total_time: float
    cpu_use: float
    io_requests: int
    #: Mean busy fraction over all disk volumes (0.0 for hand-built results).
    disk_use: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary (used by reports and EXPERIMENTS.md generation)."""
        return {
            "avg_stream_time": self.avg_stream_time,
            "avg_normalized_latency": self.avg_normalized_latency,
            "total_time": self.total_time,
            "cpu_use": self.cpu_use,
            "io_requests": float(self.io_requests),
            "disk_use": self.disk_use,
        }


def summarise_run(
    result: RunResult, standalone_times: Mapping[str, float]
) -> SystemStats:
    """Compute the system statistics of one policy run."""
    return SystemStats(
        policy=result.policy,
        avg_stream_time=result.average_stream_time,
        avg_normalized_latency=result.average_normalized_latency(dict(standalone_times)),
        total_time=result.total_time,
        cpu_use=result.cpu_utilisation,
        io_requests=result.io_requests,
        disk_use=result.disk_utilisation,
    )


def per_query_type_stats(
    result: RunResult, standalone_times: Mapping[str, float]
) -> List[QueryTypeStats]:
    """Compute the per-query-type statistics of one policy run."""
    stats = []
    for name, queries in sorted(result.queries_by_name().items()):
        stats.append(
            QueryTypeStats.from_results(
                name, queries, standalone_times.get(name, 0.0)
            )
        )
    return stats


@dataclass
class PolicyComparison:
    """All policies' results for one experiment, plus the shared baselines."""

    standalone_times: Dict[str, float]
    runs: Dict[str, RunResult] = field(default_factory=dict)

    def add(self, result: RunResult) -> None:
        """Register the result of one policy run."""
        self.runs[result.policy] = result

    def system_stats(self) -> Dict[str, SystemStats]:
        """System statistics per policy."""
        return {
            policy: summarise_run(result, self.standalone_times)
            for policy, result in self.runs.items()
        }

    def query_stats(self) -> Dict[str, List[QueryTypeStats]]:
        """Per-query-type statistics per policy."""
        return {
            policy: per_query_type_stats(result, self.standalone_times)
            for policy, result in self.runs.items()
        }

    def relative_to(self, reference_policy: str = "relevance") -> Dict[str, Dict[str, float]]:
        """Throughput and latency of each policy relative to a reference.

        This is the Figure 5 view: ``(avg stream time / reference,
        avg normalized latency / reference)`` per policy.
        """
        stats = self.system_stats()
        if reference_policy not in stats:
            raise KeyError(f"no run recorded for policy {reference_policy!r}")
        reference = stats[reference_policy]
        relative: Dict[str, Dict[str, float]] = {}
        for policy, stat in stats.items():
            relative[policy] = {
                "stream_time_ratio": _safe_ratio(
                    stat.avg_stream_time, reference.avg_stream_time
                ),
                "latency_ratio": _safe_ratio(
                    stat.avg_normalized_latency, reference.avg_normalized_latency
                ),
            }
        return relative


def _safe_ratio(value: float, reference: float) -> float:
    if reference <= 0:
        return float("inf")
    return value / reference


def compare_runs(
    runs: Mapping[str, RunResult], standalone_times: Mapping[str, float]
) -> PolicyComparison:
    """Build a :class:`PolicyComparison` from a policy -> result mapping."""
    comparison = PolicyComparison(standalone_times=dict(standalone_times))
    for result in runs.values():
        comparison.add(result)
    return comparison
