"""The unified service front door.

Before this module existed the admission path was implemented twice — once
in :mod:`repro.service.server` for the single-simulator service and once in
:mod:`repro.cluster.coordinator` for the sharded cluster.  Both front doors
now share one :class:`FrontDoor` pipeline::

    arrivals -> classification -> per-class admission -> source adapter
             -> completion / release

* **arrivals** — the validated, timestamped external arrival sequence;
* **classification** — each arrival is routed to a workload class queue
  (``ScanRequest.query_class`` against ``ServiceConfig.classes``; the
  class concept collapses to one catch-all queue when no classes are
  configured);
* **per-class admission** — the weighted multi-queue
  :class:`~repro.service.admission.AdmissionController` bounds the MPL;
* **source adapter** — :class:`repro.service.server.OpenSystemSource` wraps
  the pipeline as a single-simulator
  :class:`~repro.sim.source.QuerySource`, while
  :class:`repro.cluster.coordinator.ClusterCoordinator` scatters each
  admitted query across shard simulators;
* **completion / release** — every whole-query completion reports back
  here: the latency sample feeds the MPL controller, the per-class SLO
  sample is recorded, and the freed slot admits the next queued queries.

The multiprogramming level itself is owned by a swappable
:class:`MPLController`: :class:`StaticMPLController` pins it to
``ServiceConfig.max_concurrent`` (the historical behaviour, bit-for-bit),
:class:`AdaptiveMPLController` retunes it with AIMD from the observed p95
end-to-end latency and the ABM's buffer-hit rate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.config import AdaptiveMPLConfig
from repro.common.errors import SimulationError
from repro.metrics.stats import LatencySummary, percentile
from repro.service.admission import AdmissionController, QueuedQuery
from repro.service.arrivals import Arrival, validate_arrivals
from repro.service.slo import ClassSLO

_EPS = 1e-9


@dataclass
class ActiveQuery:
    """Front-door state of one admitted, not yet completed query."""

    query_class: str
    submit_time: float
    admit_time: float
    num_chunks: int
    name: str = ""


@dataclass(frozen=True)
class CompletionSample:
    """One whole-query completion as the front door observed it."""

    query_id: int
    query_class: str
    submit_time: float
    admit_time: float
    finish_time: float

    @property
    def queue_wait(self) -> float:
        """Time spent waiting in the admission queue."""
        return max(0.0, self.admit_time - self.submit_time)

    @property
    def execution_latency(self) -> float:
        """Admission-to-completion latency."""
        return self.finish_time - self.admit_time

    @property
    def end_to_end_latency(self) -> float:
        """Submission-to-completion latency (queue wait plus execution)."""
        return self.finish_time - self.submit_time


# ------------------------------------------------------------ MPL controllers
class MPLController:
    """Strategy object owning the service's multiprogramming level."""

    def limit(self) -> int:
        """The MPL the admission controller should currently enforce."""
        raise NotImplementedError

    def on_completion(self, latency: float, hit_rate: float, now: float) -> None:
        """Observe one whole-query completion (its end-to-end latency and
        the ABM's cumulative buffer-hit rate at that moment)."""

    def describe(self) -> Dict[str, object]:
        """Flat description of the controller (for reports)."""
        return {"mpl_controller": type(self).__name__, "mpl": self.limit()}


class StaticMPLController(MPLController):
    """The historical fixed MPL: ``ServiceConfig.max_concurrent``, forever."""

    def __init__(self, mpl: int) -> None:
        if mpl < 1:
            raise ValueError(f"MPL must be >= 1, got {mpl}")
        self._mpl = mpl

    def limit(self) -> int:
        return self._mpl

    def describe(self) -> Dict[str, object]:
        return {"mpl_controller": "static", "mpl": self._mpl}


class AdaptiveMPLController(MPLController):
    """AIMD control of the MPL from observed tail latency and buffer hits.

    Keeps a sliding window of end-to-end latencies and reacts with the
    classic AIMD asymmetry — congestion is punished immediately, headroom
    is probed cautiously:

    * **over target** (the window's p95 exceeds ``target_p95_s``, checked
      on every completion once the window holds at least ``adjust_every``
      samples) — multiplicative decrease: fewer concurrent scans give the
      relevance policy a smaller working set to share bandwidth between,
      restoring latency.  The window is cleared so the next verdict only
      comes after ``adjust_every`` fresh samples judged under the *new*
      MPL — queries that accumulated their queue wait under the old limit
      would otherwise cascade the cut straight to ``min_mpl``;
    * **within target** (checked every ``adjust_every``-th completion) —
      additive increase (one step), but only while the ABM's buffer-hit
      rate has not collapsed below ``hit_rate_floor`` — a shrinking hit
      rate at rising MPL means the concurrent set already outgrew the
      buffer pool, so more concurrency would only thrash.

    Fully deterministic: the trajectory is a pure function of the completion
    sequence, so adaptive runs reproduce bit for bit.
    """

    def __init__(self, config: AdaptiveMPLConfig, initial_mpl: int) -> None:
        self.config = config
        self._mpl = min(max(initial_mpl, config.min_mpl), config.max_mpl)
        self._window: Deque[float] = deque(maxlen=config.window)
        self._since_increase = 0
        #: ``(time, new_mpl)`` for every change the controller made.
        self.adjustments: List[Tuple[float, int]] = []

    def limit(self) -> int:
        return self._mpl

    def on_completion(self, latency: float, hit_rate: float, now: float) -> None:
        self._window.append(latency)
        self._since_increase += 1
        if len(self._window) < min(self.config.adjust_every, self.config.window):
            return
        observed_p95 = percentile(list(self._window), 95.0)
        if observed_p95 > self.config.target_p95_s:
            proposed = max(
                self.config.min_mpl, int(self._mpl * self.config.decrease_factor)
            )
            self._window.clear()
            self._since_increase = 0
            self._apply(proposed, now)
            return
        if self._since_increase < self.config.adjust_every:
            return
        self._since_increase = 0
        if hit_rate >= self.config.hit_rate_floor:
            self._apply(min(self.config.max_mpl, self._mpl + 1), now)

    def _apply(self, proposed: int, now: float) -> None:
        if proposed != self._mpl:
            self._mpl = proposed
            self.adjustments.append((now, proposed))

    def describe(self) -> Dict[str, object]:
        return {
            "mpl_controller": "adaptive",
            "mpl": self._mpl,
            "mpl_adjustments": len(self.adjustments),
            **self.config.describe(),
        }


def controller_for(
    admission: AdmissionController,
    mpl_controller: Optional[MPLController] = None,
) -> MPLController:
    """The MPL controller a service config asks for.

    An explicit controller instance wins; otherwise ``ServiceConfig.adaptive``
    selects the AIMD controller (seeded at ``max_concurrent``) and its absence
    the static one — so :func:`repro.service.run_service` and
    :func:`repro.cluster.run_cluster_service` pick controllers identically.
    """
    if mpl_controller is not None:
        return mpl_controller
    if admission.config.adaptive is not None:
        return AdaptiveMPLController(
            admission.config.adaptive, admission.config.max_concurrent
        )
    return StaticMPLController(admission.config.max_concurrent)


# ------------------------------------------------------------- the pipeline
class FrontDoor:
    """Shared arrivals -> classes -> admission -> release pipeline.

    Owns everything between the external arrival sequence and the moment a
    query starts executing (or completes): arrival consumption,
    classification into workload classes, the weighted admission queues, the
    MPL controller, and the per-query completion bookkeeping that the SLO
    reports and the controller feed on.  The single-simulator service
    adapts it through :class:`repro.service.server.OpenSystemSource`; the
    cluster coordinator scatters what it admits.
    """

    def __init__(
        self,
        arrivals: Sequence[Arrival],
        admission: AdmissionController,
        mpl_controller: Optional[MPLController] = None,
        loads_probe: Optional[Callable[[int], int]] = None,
        where: str = "service workload",
        obs=None,
    ) -> None:
        validate_arrivals(arrivals, where)
        self._arrivals = list(arrivals)
        self._next = 0
        self.admission = admission
        self.mpl = controller_for(admission, mpl_controller)
        self.admission.limit = self.mpl.limit()
        #: Optional :class:`repro.obs.FlightRecorder`; ``None`` records
        #: nothing (the zero-overhead default).
        self._obs = obs
        self._obs_pid = "frontdoor"
        # Gauge names are precomputed so the per-completion hot path does
        # no string formatting.
        self._obs_mpl_limit = f"{self._obs_pid}.mpl.limit"
        self._obs_mpl_active = f"{self._obs_pid}.mpl.active"
        self._obs_hit_rate = f"{self._obs_pid}.hit_rate"
        self._obs_latency = {
            cls.name: f"{self._obs_pid}.latency.{cls.name}"
            for cls in admission.classes
        }
        if obs is not None:
            admission.attach_observability(obs, self._obs_pid)
            obs.set_gauge(self._obs_mpl_limit, 0.0, self.admission.limit)
        #: Per-query probe: chunk loads the ABM(s) attributed to a completed
        #: query, summed at its completion so the hit-rate numerator and
        #: denominator cover the same (completed) queries — in-flight scans
        #: never skew the signal.  ``None`` reads as a constant 0.0 hit rate
        #: (the controller then steers on p95 alone as long as
        #: ``hit_rate_floor`` is 0).
        self._loads_probe = loads_probe
        self._active: Dict[int, ActiveQuery] = {}
        self._chunks_completed = 0
        self._loads_completed = 0
        #: Whole-query completions, in completion order.
        self.completions: List[CompletionSample] = []
        #: ``(time, mpl)`` trajectory of the enforced limit, starting at 0.
        self.mpl_timeline: List[Tuple[float, int]] = [(0.0, self.admission.limit)]

    # ------------------------------------------------------------- arrivals
    def next_arrival_time(self) -> Optional[float]:
        """Time of the next unconsumed external arrival."""
        if self._next >= len(self._arrivals):
            return None
        return self._arrivals[self._next].time

    def pump(self, now: float) -> List[QueuedQuery]:
        """Run the pipeline up to ``now``; returns the queries to start.

        Consumes every external arrival due by ``now`` through
        classification and admission.  Queued queries only ever start from
        :meth:`on_complete` — the MPL limit is re-synced there, and its
        release drains the queues up to the (possibly raised) limit, so by
        pump time either the queues are empty or the limit is saturated.
        Idempotent within one instant, so several shard sources can share
        one front door: the first pump of the instant does the work.
        """
        admitted: List[QueuedQuery] = []
        while (
            self._next < len(self._arrivals)
            and self._arrivals[self._next].time <= now + _EPS
        ):
            arrival = self._arrivals[self._next]
            self._next += 1
            if self._obs is not None:
                self._obs.instant(
                    "frontdoor.arrival", "frontdoor", arrival.time,
                    self._obs_pid, "arrivals",
                    query=arrival.spec.query_id,
                    query_name=arrival.spec.name,
                    query_class=self.admission.class_of(arrival.spec),
                    chunks=arrival.spec.num_chunks,
                )
            entry = self.admission.offer(arrival.spec, arrival.time)
            if entry is not None:
                admitted.append(self._admit(entry, now))
        return admitted

    def _admit(self, entry: QueuedQuery, now: float) -> QueuedQuery:
        self._active[entry.spec.query_id] = ActiveQuery(
            query_class=entry.query_class,
            submit_time=entry.submit_time,
            admit_time=now,
            num_chunks=entry.spec.num_chunks,
            name=entry.spec.name,
        )
        if self._obs is not None:
            self._obs.async_begin(
                entry.spec.name, "query", now, entry.spec.query_id,
                self._obs_pid, "queries",
                query_class=entry.query_class,
                queue_wait=max(0.0, now - entry.submit_time),
            )
            self._obs.set_gauge(
                self._obs_mpl_active, now, self.admission.active
            )
        return entry

    # ----------------------------------------------------------- completion
    def on_complete(self, query_id: int, now: float) -> List[QueuedQuery]:
        """Record one whole-query completion; returns the queries it admits.

        The completion's latency sample drives the MPL controller *before*
        the slot is released, so a limit decrease takes effect immediately
        and a limit increase lets this release admit several queued queries
        at once.
        """
        record = self._active.pop(query_id, None)
        if record is None:
            raise SimulationError(
                f"front-door completion for unknown query {query_id}"
            )
        sample = CompletionSample(
            query_id=query_id,
            query_class=record.query_class,
            submit_time=record.submit_time,
            admit_time=record.admit_time,
            finish_time=now,
        )
        self.completions.append(sample)
        self._chunks_completed += record.num_chunks
        if self._loads_probe is not None:
            self._loads_completed += self._loads_probe(query_id)
        self.mpl.on_completion(sample.end_to_end_latency, self.hit_rate(), now)
        new_limit = self.mpl.limit()
        if new_limit != self.admission.limit:
            if self._obs is not None:
                self._obs.instant(
                    "frontdoor.mpl_change", "frontdoor", now,
                    self._obs_pid, "admission",
                    old=self.admission.limit, new=new_limit,
                )
            self.admission.limit = new_limit
            self.mpl_timeline.append((now, new_limit))
        if self._obs is not None:
            self._obs.async_end(
                record.name, "query", now, query_id,
                self._obs_pid, "queries",
                end_to_end_latency=sample.end_to_end_latency,
            )
            self._obs.set_gauge(self._obs_mpl_limit, now, self.admission.limit)
            self._obs.set_gauge(self._obs_hit_rate, now, self.hit_rate())
            self._obs.observe(
                self._obs_latency[record.query_class],
                now, sample.end_to_end_latency,
            )
        released = self.admission.release(record.query_class, now=now)
        admitted = [self._admit(entry, now) for entry in released]
        if self._obs is not None:
            self._obs.set_gauge(
                self._obs_mpl_active, now, self.admission.active
            )
        return admitted

    def drained(self) -> bool:
        """``True`` once no future query can be admitted (arrivals exhausted
        and every class queue empty)."""
        return self._next >= len(self._arrivals) and not self.admission.has_queued()

    # ------------------------------------------------------------ reporting
    def hit_rate(self) -> float:
        """Fraction of consumed chunks served without triggering a load.

        The sharing dividend of the cooperative policies: under perfect
        overlap N queries consume N chunks per load.  Measured over the
        *completed* queries only (their chunks vs the loads attributed to
        them), so a run's early in-flight scans cannot clamp the signal.
        Reads 0.0 until the first completion or when no loads probe is
        attached.
        """
        if self._loads_probe is None or self._chunks_completed <= 0:
            return 0.0
        return max(0.0, 1.0 - self._loads_completed / self._chunks_completed)

    def class_order(self) -> Tuple[str, ...]:
        """Workload classes in report order (configured order)."""
        return self.admission.class_order()

    def class_reports(self) -> Tuple[ClassSLO, ...]:
        """Per-class SLO summaries of everything this front door served.

        One :class:`~repro.service.slo.ClassSLO` per configured class, with
        latency quantiles over the class's completed queries (sorted by
        query id, so the single-node service and a 1-shard cluster build
        identical summaries) and the class's admission counters.
        """
        samples: Dict[str, List[CompletionSample]] = {
            name: [] for name in self.class_order()
        }
        for sample in sorted(self.completions, key=lambda s: s.query_id):
            samples.setdefault(sample.query_class, []).append(sample)
        counters = self.admission.class_counters()
        reports: List[ClassSLO] = []
        for name in self.class_order():
            class_counter = counters[name]
            class_samples = samples[name]
            reports.append(
                ClassSLO(
                    query_class=name,
                    weight=float(class_counter["weight"]),
                    offered=int(class_counter["offered"]),
                    admitted=int(class_counter["admitted"]),
                    completed=len(class_samples),
                    shed=int(class_counter["shed"]),
                    max_queue_len=int(class_counter["max_queue_len"]),
                    latency=LatencySummary.from_values(
                        [s.end_to_end_latency for s in class_samples]
                    ),
                    queue_wait=LatencySummary.from_values(
                        [s.queue_wait for s in class_samples]
                    ),
                    execution=LatencySummary.from_values(
                        [s.execution_latency for s in class_samples]
                    ),
                )
            )
        return tuple(reports)

    def describe(self) -> Dict[str, object]:
        """Flat description of the front door (for reports)."""
        return {
            "num_arrivals": len(self._arrivals),
            **self.admission.describe(),
            **self.mpl.describe(),
        }
