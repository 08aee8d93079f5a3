"""Always-on per-query latency attribution ("where did this query's time go").

Every completed query — single-node :class:`repro.sim.results.QueryResult`
and cluster :class:`repro.cluster.coordinator.ClusterQueryRecord` alike —
carries a :class:`LatencyBreakdown`: the query's end-to-end latency cut
into non-overlapping phases that sum back to the total, exactly.  Unlike
the flight recorder (opt-in, bounded buffer), breakdowns are *always on*:
they are assembled from timestamps the event cores already produce, cost a
handful of float additions per query, and never alter a scheduling
decision (the existing golden-trace fingerprints pin this).

Cluster queries are attributed along the **critical path**: the chain of
the sub-query whose gather completed the whole query — admission wait,
coordinator classify/scatter CPU, any hedge/re-scatter/orphan penalty,
scatter NIC, shard queue, the shard's own disk-seek/disk-transfer/CPU
split, then gather NIC and gather/merge CPU.  Because each stamp on that
chain is the *actual* event time, the phases telescope to the end-to-end
latency; any floating-point residual (sub-nanosecond) is folded into the
largest execution phase so the conservation law holds bit-tight.

:func:`build_blame_report` aggregates breakdowns into per-class blame
tables ("interactive p95 = 61% disk transfer, 22% admission wait") which
:func:`repro.service.slo.render_blame_table` renders and the alerting
engine (:mod:`repro.obs.alerts`) uses to name the top-blamed phase of a
firing alert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.metrics.stats import percentile

#: Breakdown phases in pipeline order (also presentation order).
BREAKDOWN_PHASES = (
    "admission_wait",
    "coordinator_cpu",
    "rescatter_wait",
    "orphan_wait",
    "hedge_wait",
    "scatter_nic",
    "shard_queue",
    "disk_seek",
    "disk_transfer",
    "cpu_execute",
    "gather_nic",
    "gather_cpu",
)

#: Phases measured inside a shard's (or the single node's) event core.
EXECUTION_PHASES = ("disk_seek", "disk_transfer", "cpu_execute")

#: Absolute tolerance of the conservation law ``sum(phases) == total``.
CONSERVATION_TOL = 1e-9

#: Largest bookkeeping residual the builders will silently fold away;
#: anything bigger is a real accounting bug and raises.
_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class LatencyBreakdown:
    """One query's end-to-end latency, cut into non-overlapping phases.

    ``total`` is the query's end-to-end latency (submission to completion);
    the twelve phase fields partition it exactly — :meth:`validate` asserts
    ``sum(phases) == total`` within :data:`CONSERVATION_TOL`.  Phases that
    a given mode never exercises (e.g. NIC hops on a single node, hedge
    penalties on a healthy run) are simply zero.
    """

    total: float = 0.0
    admission_wait: float = 0.0
    #: Coordinator classify + scatter-build CPU (cluster only).
    coordinator_cpu: float = 0.0
    #: Time between scatter-readiness and the critical copy's dispatch,
    #: when that copy was a re-scatter after a shard kill.
    rescatter_wait: float = 0.0
    #: Same, when the group waited orphaned for a repair (R=1 kills).
    orphan_wait: float = 0.0
    #: Same, when the critical copy was a hedge (covers the original's
    #: futile head start).
    hedge_wait: float = 0.0
    #: Coordinator NIC + owning shard NIC, scatter direction.
    scatter_nic: float = 0.0
    #: Delivered-to-started wait in the shard's pending buffer.
    shard_queue: float = 0.0
    #: Execution-time stalls attributed to disk positioning.
    disk_seek: float = 0.0
    #: Execution-time stalls attributed to disk data transfer.
    disk_transfer: float = 0.0
    #: CPU service time, including processor-sharing stretch.
    cpu_execute: float = 0.0
    #: Shard NIC + coordinator NIC, gather direction.
    gather_nic: float = 0.0
    #: Gather bookkeeping (plus final merge) on the coordinator CPU.
    gather_cpu: float = 0.0
    #: Shard the critical path ran on (``-1`` for single-node queries).
    critical_shard: int = -1
    #: How the critical copy was dispatched: ``"original"``,
    #: ``"rescatter"``, ``"orphan"`` or ``"hedge"``.
    origin: str = "original"

    def phase_seconds(self) -> Dict[str, float]:
        """Phase name -> seconds, in pipeline order."""
        return {name: getattr(self, name) for name in BREAKDOWN_PHASES}

    def validate(self, end_to_end: Optional[float] = None,
                 where: str = "latency breakdown") -> None:
        """Assert the conservation law (and agreement with ``end_to_end``).

        Raises :class:`~repro.common.errors.SimulationError` when any phase
        is negative/non-finite or the phases do not sum to ``total`` within
        :data:`CONSERVATION_TOL`.
        """
        for name in BREAKDOWN_PHASES:
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise SimulationError(
                    f"{where}: phase {name} is invalid ({value!r})"
                )
        total = math.fsum(self.phase_seconds().values())
        if abs(total - self.total) > CONSERVATION_TOL:
            raise SimulationError(
                f"{where}: phases sum to {total!r} but total is "
                f"{self.total!r} (residual {total - self.total:.3e})"
            )
        if end_to_end is not None and abs(self.total - end_to_end) > CONSERVATION_TOL:
            raise SimulationError(
                f"{where}: breakdown total {self.total!r} disagrees with "
                f"end-to-end latency {end_to_end!r}"
            )

    def render(self) -> str:
        """Multi-line text view of one query's breakdown (non-zero phases)."""
        lines = [f"end-to-end {self.total:.4f}s"]
        for name, seconds in self.phase_seconds().items():
            if seconds <= 0.0:
                continue
            share = seconds / self.total if self.total > 0 else 0.0
            lines.append(f"  {name:<16} {seconds:>9.4f}s  {share:>6.1%}")
        if self.critical_shard >= 0:
            lines.append(
                f"  critical path: shard {self.critical_shard} "
                f"({self.origin} dispatch)"
            )
        return "\n".join(lines)


def _fold_residual(
    total: float, phases: Dict[str, float], where: str
) -> Dict[str, float]:
    """Clamp sub-tolerance negatives and fold the float residual away.

    The residual is folded into the largest *execution* phase (falling
    back to the largest phase overall) so exact stamp differences like
    ``admission_wait`` stay exact.  A residual beyond ``_RESIDUAL_TOL`` is
    an accounting bug, not rounding, and raises.
    """
    for name, value in phases.items():
        if not math.isfinite(value):
            raise SimulationError(f"{where}: phase {name} is {value!r}")
        if value < 0.0:
            if value < -_RESIDUAL_TOL:
                raise SimulationError(
                    f"{where}: phase {name} is negative ({value!r})"
                )
            phases[name] = 0.0
    residual = total - math.fsum(phases.values())
    if abs(residual) > _RESIDUAL_TOL:
        raise SimulationError(
            f"{where}: breakdown loses {residual:.3e}s of the "
            f"{total!r}s end-to-end latency"
        )
    sinks = [name for name in EXECUTION_PHASES if phases.get(name, 0.0) > 0.0]
    sink = max(sinks or list(phases), key=lambda name: phases[name])
    folded = phases[sink] + residual
    phases[sink] = max(0.0, folded)
    return phases


def build_breakdown(
    total: float,
    where: str = "latency breakdown",
    critical_shard: int = -1,
    origin: str = "original",
    **phases: float,
) -> LatencyBreakdown:
    """Assemble a validated :class:`LatencyBreakdown` from raw phase seconds.

    Unnamed phases default to zero; tiny negative phases (epsilon slack in
    the event cores' time comparisons) are clamped and the floating-point
    residual is folded into the largest execution phase, so the returned
    breakdown satisfies ``sum(phases) == total`` within
    :data:`CONSERVATION_TOL` — or raises if the books genuinely disagree.
    """
    unknown = set(phases) - set(BREAKDOWN_PHASES)
    if unknown:
        raise SimulationError(f"{where}: unknown phases {sorted(unknown)}")
    filled = {name: phases.get(name, 0.0) for name in BREAKDOWN_PHASES}
    filled = _fold_residual(total, filled, where)
    breakdown = LatencyBreakdown(
        total=total,
        critical_shard=critical_shard,
        origin=origin,
        **filled,
    )
    breakdown.validate(where=where)
    return breakdown


def build_single_node_breakdown(
    total: float,
    admission_wait: float,
    disk_seek: float,
    disk_transfer: float,
    cpu_execute: float,
    where: str = "latency breakdown",
) -> LatencyBreakdown:
    """Fast-path builder for the four phases a single node ever produces.

    Semantically identical to :func:`build_breakdown` restricted to these
    phases (clamp sub-tolerance negatives, fold the float residual into the
    largest execution phase, raise on a real accounting gap) but without
    the generic dict plumbing — this runs once per completed query on the
    simulator's hot path, so it stays allocation-light.
    """
    for value in (admission_wait, disk_seek, disk_transfer, cpu_execute):
        if not math.isfinite(value) or value < -_RESIDUAL_TOL:
            raise SimulationError(f"{where}: invalid phase seconds {value!r}")
    if admission_wait < 0.0:
        admission_wait = 0.0
    if disk_seek < 0.0:
        disk_seek = 0.0
    if disk_transfer < 0.0:
        disk_transfer = 0.0
    if cpu_execute < 0.0:
        cpu_execute = 0.0
    residual = total - math.fsum(
        (admission_wait, disk_seek, disk_transfer, cpu_execute)
    )
    if residual < -_RESIDUAL_TOL or residual > _RESIDUAL_TOL:
        raise SimulationError(
            f"{where}: breakdown loses {residual:.3e}s of the "
            f"{total!r}s end-to-end latency"
        )
    # Same sink rule as _fold_residual: the largest strictly-positive
    # execution phase, ties broken in EXECUTION_PHASES order, falling back
    # to the largest phase overall (BREAKDOWN_PHASES order, so
    # admission_wait when everything is zero).
    if (
        disk_seek > 0.0
        and disk_seek >= disk_transfer
        and disk_seek >= cpu_execute
    ):
        disk_seek = max(0.0, disk_seek + residual)
    elif disk_transfer > 0.0 and disk_transfer >= cpu_execute:
        disk_transfer = max(0.0, disk_transfer + residual)
    elif cpu_execute > 0.0:
        cpu_execute = max(0.0, cpu_execute + residual)
    else:
        # All execution phases are exactly zero after clamping, so the
        # generic fallback (largest phase overall, first in
        # BREAKDOWN_PHASES order on ties) always lands on admission_wait.
        admission_wait = max(0.0, admission_wait + residual)
    return LatencyBreakdown(
        total=total,
        admission_wait=admission_wait,
        disk_seek=disk_seek,
        disk_transfer=disk_transfer,
        cpu_execute=cpu_execute,
    )


def assemble_cluster_breakdown(
    *,
    submit: float,
    admit: float,
    ready: float,
    dispatch: float,
    delivered: float,
    shard_start: float,
    shard_execution: LatencyBreakdown,
    shard_finish: float,
    gather_arrived: float,
    finish: float,
    critical_shard: int,
    origin: str = "original",
    where: str = "cluster latency breakdown",
) -> LatencyBreakdown:
    """Chain the critical sub-query's stamps into a whole-query breakdown.

    The stamps telescope — each phase is the difference of two consecutive
    event times on the critical path — so the phases sum to
    ``finish - submit`` exactly.  ``shard_execution`` is the critical
    sub-query's own single-node breakdown; only its execution phases are
    taken (they partition ``shard_finish - shard_start``), its admission
    side being re-derived from the coordinator's stamps.
    """
    wait = dispatch - ready
    wait_phase = {
        "original": "coordinator_cpu",  # always zero for originals
        "rescatter": "rescatter_wait",
        "orphan": "orphan_wait",
        "hedge": "hedge_wait",
    }.get(origin)
    if wait_phase is None:
        raise SimulationError(f"{where}: unknown dispatch origin {origin!r}")
    phases: Dict[str, float] = {
        "admission_wait": admit - submit,
        "coordinator_cpu": ready - admit,
        "scatter_nic": delivered - dispatch,
        "shard_queue": shard_start - delivered,
        "disk_seek": shard_execution.disk_seek,
        "disk_transfer": shard_execution.disk_transfer,
        "cpu_execute": shard_execution.cpu_execute,
        "gather_nic": gather_arrived - shard_finish,
        "gather_cpu": finish - gather_arrived,
    }
    phases[wait_phase] = phases.get(wait_phase, 0.0) + wait
    return build_breakdown(
        total=finish - submit,
        where=where,
        critical_shard=critical_shard,
        origin=origin,
        **phases,
    )


# --------------------------------------------------------------- blame tables
@dataclass(frozen=True)
class ClassBlame:
    """Aggregated phase blame for one workload class (or the whole run)."""

    query_class: str
    #: Completed queries aggregated.
    count: int
    #: Sum of end-to-end seconds over those queries.
    total_seconds: float
    #: Phase -> summed seconds over every query of the class.
    phase_seconds: Tuple[Tuple[str, float], ...]
    #: Class p95 end-to-end latency (the tail threshold).
    tail_threshold_s: float
    #: Queries at or above the class p95.
    tail_count: int
    tail_seconds: float
    #: Phase -> summed seconds over the tail queries only.
    tail_phase_seconds: Tuple[Tuple[str, float], ...]

    def shares(self) -> Dict[str, float]:
        """Phase share of all end-to-end seconds of the class."""
        if self.total_seconds <= 0.0:
            return {name: 0.0 for name, _ in self.phase_seconds}
        return {
            name: seconds / self.total_seconds
            for name, seconds in self.phase_seconds
        }

    def tail_shares(self) -> Dict[str, float]:
        """Phase share of the p95-tail queries' end-to-end seconds."""
        if self.tail_seconds <= 0.0:
            return {name: 0.0 for name, _ in self.tail_phase_seconds}
        return {
            name: seconds / self.tail_seconds
            for name, seconds in self.tail_phase_seconds
        }

    def top_phases(self, n: int = 3, tail: bool = True) -> List[Tuple[str, float]]:
        """The ``n`` most-blamed phases and their shares, largest first."""
        shares = self.tail_shares() if tail else self.shares()
        ranked = sorted(shares.items(), key=lambda item: -item[1])
        return [(name, share) for name, share in ranked[:n] if share > 0.0]


@dataclass(frozen=True)
class BlameReport:
    """Per-class (plus overall) phase blame over one run's breakdowns."""

    overall: ClassBlame
    classes: Tuple[ClassBlame, ...] = ()


def _aggregate(
    label: str, samples: Sequence[Tuple[str, LatencyBreakdown]]
) -> ClassBlame:
    totals = [breakdown.total for _, breakdown in samples]
    threshold = percentile(totals, 95.0) if totals else 0.0
    tail = [
        breakdown
        for _, breakdown in samples
        if breakdown.total >= threshold - CONSERVATION_TOL
    ]
    phase_sums = {
        name: math.fsum(
            getattr(breakdown, name) for _, breakdown in samples
        )
        for name in BREAKDOWN_PHASES
    }
    tail_sums = {
        name: math.fsum(getattr(breakdown, name) for breakdown in tail)
        for name in BREAKDOWN_PHASES
    }
    return ClassBlame(
        query_class=label,
        count=len(samples),
        total_seconds=math.fsum(totals),
        phase_seconds=tuple(phase_sums.items()),
        tail_threshold_s=threshold,
        tail_count=len(tail),
        tail_seconds=math.fsum(breakdown.total for breakdown in tail),
        tail_phase_seconds=tuple(tail_sums.items()),
    )


def build_blame_report(
    samples: Iterable[Tuple[str, LatencyBreakdown]],
) -> BlameReport:
    """Aggregate ``(query_class, breakdown)`` samples into a blame report.

    Every breakdown is validated on the way in, so a blame report is also a
    whole-run conservation check.
    """
    collected = [
        (query_class, breakdown)
        for query_class, breakdown in samples
        if breakdown is not None
    ]
    for query_class, breakdown in collected:
        breakdown.validate(where=f"blame report ({query_class})")
    by_class: Dict[str, List[Tuple[str, LatencyBreakdown]]] = {}
    for query_class, breakdown in collected:
        by_class.setdefault(query_class, []).append((query_class, breakdown))
    return BlameReport(
        overall=_aggregate("all", collected),
        classes=tuple(
            _aggregate(name, group) for name, group in sorted(by_class.items())
        ),
    )
