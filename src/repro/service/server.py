"""The open-system service loop.

:class:`OpenSystemSource` adapts the shared front-door pipeline
(:class:`repro.service.frontdoor.FrontDoor`: arrivals -> classification ->
per-class admission -> completion/release) to the simulator's
:class:`repro.sim.source.QuerySource` interface: queries register with the
ABM at their *admitted* time (not at a stream position), wait in their
class's admission queue while the multiprogramming level is saturated, and
release capacity when they complete.  The sharded cluster front door
(:mod:`repro.cluster.coordinator`) drives the very same pipeline — the
only difference is that it scatters each admitted query across shards.

:func:`run_service` wires the pieces together for one policy and returns
the raw :class:`RunResult` alongside the :class:`SLOReport` (including the
per-class slices and the MPL trajectory when the adaptive controller is
active); :func:`compare_service_policies` repeats the identical arrival
sequence under several scheduling policies, which is the open-system
analogue of :func:`repro.sim.sweeps.compare_policies`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import ServiceConfig, SystemConfig
from repro.metrics.timeline import validate_timeline
from repro.obs.alerts import (
    Alert,
    AlertPolicy,
    QueryCompletion,
    evaluate_alerts,
    render_health_digest,
)
from repro.obs.postmortem import build_blame_report
from repro.obs.recorder import (
    FlightRecorder,
    ObservabilityLike,
    build_flight_recorder,
)
from repro.service.admission import AdmissionController, layout_aware_job_size
from repro.service.arrivals import Arrival, offered_rate
from repro.service.frontdoor import FrontDoor, MPLController
from repro.service.slo import SLOReport, build_slo_report
from repro.sim.results import RunResult
from repro.sim.runner import AnyABM, run_simulation
from repro.sim.source import NO_STREAM, AdmittedQuery, QuerySource


class OpenSystemSource(QuerySource):
    """Feeds the shared front-door pipeline into one simulator."""

    def __init__(
        self,
        arrivals: Sequence[Arrival],
        admission: AdmissionController,
        mpl_controller: Optional[MPLController] = None,
        loads_probe: Optional[Callable[[int], int]] = None,
        obs: Optional[FlightRecorder] = None,
    ) -> None:
        self.frontdoor = FrontDoor(
            arrivals,
            admission,
            mpl_controller=mpl_controller,
            loads_probe=loads_probe,
            obs=obs,
        )

    # ------------------------------------------------------------- interface
    def next_event_time(self) -> Optional[float]:
        return self.frontdoor.next_arrival_time()

    def poll(self, now: float) -> List[AdmittedQuery]:
        return [self._admitted(entry) for entry in self.frontdoor.pump(now)]

    def on_complete(self, query_id: int, now: float) -> List[AdmittedQuery]:
        return [
            self._admitted(entry)
            for entry in self.frontdoor.on_complete(query_id, now)
        ]

    def drained(self) -> bool:
        return self.frontdoor.drained()

    def describe(self) -> Dict[str, object]:
        return {"workload": "open-system", **self.frontdoor.describe()}

    @staticmethod
    def _admitted(entry) -> AdmittedQuery:
        return AdmittedQuery(
            spec=entry.spec,
            stream=NO_STREAM,
            submit_time=entry.submit_time,
        )


@dataclass
class ServiceResult:
    """Outcome of one open-system service run under one policy."""

    run: RunResult
    slo: SLOReport
    service: ServiceConfig
    #: ``(time, mpl)`` trajectory of the enforced MPL limit — a single
    #: entry at time 0 for the static controller, one more entry per
    #: adjustment the adaptive controller made.
    mpl_timeline: Tuple[Tuple[float, int], ...] = field(default_factory=tuple)
    #: The flight recorder that observed the run (``None`` when
    #: observability was not requested); holds the trace events, the
    #: metrics timelines and the recorder-overhead accounting.
    obs: Optional[FlightRecorder] = None
    #: Alert episodes that fired during the run (empty when no
    #: :class:`repro.obs.alerts.AlertPolicy` was evaluated, or when the run
    #: stayed healthy).
    alerts: Tuple[Alert, ...] = field(default_factory=tuple)

    @property
    def final_mpl(self) -> int:
        """The MPL in force when the run ended."""
        return self.mpl_timeline[-1][1] if self.mpl_timeline else 0

    def health_digest(self, title: str = "Service health digest") -> str:
        """Render the run's firing alerts (or a clean bill of health)."""
        return render_health_digest(self.alerts, self.run.total_time, title=title)


def run_service(
    arrivals: Sequence[Arrival],
    config: SystemConfig,
    abm: AnyABM,
    service: ServiceConfig,
    record_trace: bool = False,
    mpl_controller: Optional[MPLController] = None,
    obs: ObservabilityLike = None,
    alerts: Optional[AlertPolicy] = None,
) -> ServiceResult:
    """Run one arrival sequence through the front door against one ABM.

    The admission queues rank shortest-job-first entries with a job size
    that is layout-aware when the ABM exposes its table layout (DSM scans
    weight chunks by the pages of their requested columns); the MPL is
    governed by ``service.adaptive`` (or an explicitly passed controller),
    falling back to the static ``max_concurrent`` limit.

    ``obs`` takes an :class:`repro.common.config.ObservabilityConfig` (or a
    pre-built :class:`FlightRecorder` to share across runs) and threads one
    flight recorder through the front door, the simulator, the ABM and the
    disk volumes; the recorder comes back on ``ServiceResult.obs``.  The
    default (``None``) records nothing and leaves the run bit-for-bit
    identical to an unobserved one.

    ``alerts`` optionally evaluates an :class:`repro.obs.alerts.AlertPolicy`
    against the finished run — burn-rate rules over the per-query
    completions and threshold rules over the ``"disk"`` busy timeline —
    returning the firing episodes on :attr:`ServiceResult.alerts`.
    """
    recorder = build_flight_recorder(obs)
    admission = AdmissionController(
        service, job_size=layout_aware_job_size(getattr(abm, "layout", None))
    )
    source = OpenSystemSource(
        arrivals,
        admission,
        mpl_controller=mpl_controller,
        loads_probe=lambda query_id: abm.loads_triggered.get(query_id, 0),
        obs=recorder,
    )
    run = run_simulation(source, config, abm, record_trace=record_trace, obs=recorder)
    mpl_timeline = tuple(source.frontdoor.mpl_timeline)
    validate_timeline(mpl_timeline, where="service MPL timeline")
    slo = build_slo_report(
        run,
        offered=admission.offered,
        shed=admission.shed_count,
        max_queue_len=admission.max_queue_len,
        offered_rate_qps=offered_rate(arrivals),
        admitted=admission.admitted,
        classes=source.frontdoor.class_reports(),
    )
    blame = build_blame_report(
        (query.query_class, query.breakdown) for query in run.queries
    )
    if blame.overall.count:
        slo = replace(slo, blame=blame)
    fired: Tuple[Alert, ...] = ()
    if alerts is not None and not alerts.is_empty:
        completions = [
            QueryCompletion(
                finish_time=query.finish_time,
                query_class=query.query_class,
                breakdown=query.breakdown,
            )
            for query in run.queries
            if query.breakdown is not None
        ]
        fired = evaluate_alerts(
            alerts,
            completions,
            {"disk": run.disk_busy_timeline},
            run.total_time,
            obs=recorder,
            where="service alerts",
        )
    return ServiceResult(
        run=run,
        slo=slo,
        service=service,
        mpl_timeline=mpl_timeline,
        obs=recorder,
        alerts=fired,
    )


def compare_service_policies(
    arrivals: Sequence[Arrival],
    config: SystemConfig,
    abm_factory_for_policy: Callable[[str], Callable[[], AnyABM]],
    service: ServiceConfig,
    policies: Sequence[str] = ("normal", "attach", "elevator", "relevance"),
) -> Dict[str, ServiceResult]:
    """Serve the identical arrival sequence under each scheduling policy."""
    results: Dict[str, ServiceResult] = {}
    for policy in policies:
        abm = abm_factory_for_policy(policy)()
        results[policy] = run_service(arrivals, config, abm, service)
    return results
