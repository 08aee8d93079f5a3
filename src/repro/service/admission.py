"""Admission control for the open-system query service.

Cooperative Scans thrive on *bounded* concurrency: the relevance policy
shares I/O between however many scans are active, but admitting every
arrival at high load would thrash the buffer pool and the CPU.  The
:class:`AdmissionController` therefore caps the number of concurrently
executing queries at a multiprogramming level (MPL) and keeps the excess in
bounded queues — one queue per *workload class* (interactive, batch, ...):

* while fewer than :attr:`AdmissionController.limit` queries are executing,
  an arrival is admitted immediately;
* otherwise it waits in its class's admission queue — FIFO, or
  shortest-job-first under the ``"sjf"`` discipline — until capacity
  frees up;
* when its class's queue is full (``queue_capacity``), the arrival is *shed*
  (rejected) and recorded per class, so overload turns into an explicit,
  attributable shed rate instead of unbounded latency;
* when a slot frees, the next admission comes from the non-empty class queue
  with the smallest ``active / weight`` ratio (ties break in configured
  class order), so classes share the MPL in proportion to their configured
  weights while staying work-conserving.

The MPL bound itself (:attr:`AdmissionController.limit`) starts at
``ServiceConfig.max_concurrent`` and may be retuned at run time by an
adaptive controller (see :mod:`repro.service.frontdoor`); with the static
controller it never changes, and a single-class configuration behaves
bit-for-bit like the historical single-queue controller.

Everything is deterministic: ties in the shortest-job-first discipline break
on submission order, ties in the weighted class pick break on class order.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from repro.common.config import (
    DEFAULT_QUERY_CLASS,
    ServiceConfig,
    WorkloadClassConfig,
)
from repro.common.errors import ConfigurationError
from repro.core.cscan import ScanRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.recorder import GaugeWriter

#: Work estimator used by the shortest-job-first discipline.
JobSizeEstimator = Callable[[ScanRequest], float]


@dataclass(frozen=True)
class QueuedQuery:
    """A query waiting in (or rejected from) an admission queue."""

    spec: ScanRequest
    submit_time: float
    query_class: str = DEFAULT_QUERY_CLASS


def default_job_size(spec: ScanRequest) -> float:
    """Work estimate used by the shortest-job-first discipline.

    Chunk count covers the I/O side; adding the CPU budget separates
    fast from slow queries over the same range.  Layout-oblivious: a DSM
    scan's chunks are all weighted alike regardless of how many column
    pages it actually reads — use :func:`layout_aware_job_size` when the
    table layout is known.
    """
    return spec.num_chunks * (1.0 + spec.cpu_per_chunk)


def layout_aware_job_size(layout) -> JobSizeEstimator:
    """Build a job-size estimator that weights chunks by pages actually read.

    For DSM tables the I/O cost of a chunk depends on the *requested
    columns*: a narrow two-column scan reads far fewer pages per chunk than
    a wide seven-column scan over the same range, so ranking queued scans by
    raw chunk count mis-orders the shortest-job-first queue.  This estimator
    weights each chunk by the average pages per chunk of the scan's column
    set — the same per-column statistic :class:`~repro.core.policies.dsm_attach.
    DSMAttachPolicy` uses for overlap scoring.

    Layouts without per-column statistics (NSM) fall back to
    :func:`default_job_size` — every chunk is one full chunk of I/O there.
    """
    average_pages = getattr(layout, "average_pages_per_chunk", None)
    if average_pages is None:
        return default_job_size
    full_chunk_pages = layout.table_pages() / max(1, layout.num_chunks)

    def job_size(spec: ScanRequest) -> float:
        if spec.columns:
            pages = sum(average_pages(column) for column in spec.columns)
        else:
            pages = full_chunk_pages
        return spec.num_chunks * pages * (1.0 + spec.cpu_per_chunk)

    return job_size


class _ClassQueue:
    """One workload class's admission queue plus its counters."""

    __slots__ = (
        "config", "name", "weight", "capacity", "use_heap",
        "active", "offered", "admitted", "max_queue_len", "shed_count",
        "_fifo", "_heap", "_seq", "_job_size",
    )

    def __init__(self, config: WorkloadClassConfig, job_size: JobSizeEstimator) -> None:
        if config.discipline not in ("fifo", "sjf"):
            raise ConfigurationError(
                f"unknown admission discipline {config.discipline!r} for "
                f"class {config.name!r}; expected 'fifo' or 'sjf'"
            )
        self.config = config
        self.name = config.name
        self.weight = config.weight
        self.capacity = config.queue_capacity
        #: Single switch consulted by both ``push`` and ``pop``, fixed at
        #: construction: either every entry goes through the heap or every
        #: entry goes through the FIFO, never a mixture.
        self.use_heap = config.discipline == "sjf"
        self.active = 0
        self.offered = 0
        self.admitted = 0
        self.max_queue_len = 0
        #: Count only — the controller keeps the single (ordered) list of
        #: shed entries, so there is one source of truth for them.
        self.shed_count = 0
        self._fifo: Deque[QueuedQuery] = deque()
        self._heap: List[Tuple[float, int, QueuedQuery]] = []
        self._seq = 0
        self._job_size = job_size

    def __len__(self) -> int:
        return len(self._fifo) + len(self._heap)

    def push(self, entry: QueuedQuery) -> None:
        if self.use_heap:
            heapq.heappush(
                self._heap, (self._job_size(entry.spec), self._seq, entry)
            )
            self._seq += 1
        else:
            self._fifo.append(entry)

    def pop(self) -> Optional[QueuedQuery]:
        if self.use_heap:
            if self._heap:
                return heapq.heappop(self._heap)[2]
            return None
        if self._fifo:
            return self._fifo.popleft()
        return None


class AdmissionController:
    """Weighted multi-queue admission scheduler with a bounded (tunable) MPL."""

    def __init__(
        self,
        config: ServiceConfig,
        job_size: Optional[JobSizeEstimator] = None,
    ) -> None:
        self.config = config
        self._job_size = job_size or default_job_size
        # ``ServiceConfig`` validates the disciplines too, but a controller
        # can be handed a config built around that validation (tests,
        # subclassed configs); resolving the classes here re-validates every
        # discipline, guaranteeing each queue's ``push``/``pop`` agree on a
        # single order rather than silently mixing them.
        self.classes: Tuple[WorkloadClassConfig, ...] = config.resolved_classes()
        self._queues: Dict[str, _ClassQueue] = {
            cls.name: _ClassQueue(cls, self._job_size) for cls in self.classes
        }
        self._order: Tuple[str, ...] = tuple(cls.name for cls in self.classes)
        #: Current multiprogramming level.  Static services never change it;
        #: the adaptive controller in :mod:`repro.service.frontdoor` retunes
        #: it at run time.  Lowering it below ``active`` does not cancel
        #: running queries — admissions simply stop until completions bring
        #: ``active`` back under the limit.
        self.limit = config.max_concurrent
        self.active = 0
        #: Peak *total* backlog over all class queues (a run-level quantity
        #: the per-class maxima cannot reconstruct); ``offered`` /
        #: ``admitted`` / ``queue_len`` are derived from the per-class
        #: counters instead of being mirrored.
        self.max_queue_len = 0
        self.shed: List[QueuedQuery] = []
        #: Optional flight recorder (set via :meth:`attach_observability`).
        #: ``None`` — the default — records nothing and costs one attribute
        #: test per queue transition.
        self._obs = None
        self._obs_pid = "frontdoor"
        self._obs_depth_gauges: Dict[str, "GaugeWriter"] = {}

    # -------------------------------------------------------- observability
    def attach_observability(self, flight, process: str = "frontdoor") -> None:
        """Emit per-class queue-transition events into ``flight``.

        Event labels carry the queue's discipline name.
        """
        self._obs = flight
        self._obs_pid = process
        self._obs_depth_gauges = {
            name: flight.gauge_writer(f"{process}.queue.{name}.depth")
            for name in self._order
        }

    def _obs_queue_event(self, name: str, queue: "_ClassQueue",
                         entry: QueuedQuery, now: float, **extra: object) -> None:
        self._obs.instant(
            name, "admission", now, self._obs_pid, "admission",
            query=entry.spec.query_id,
            query_class=queue.name,
            discipline=queue.config.discipline,
            depth=len(queue),
            **extra,
        )
        self._obs_depth_gauges[queue.name](now, len(queue))

    # -------------------------------------------------------------- queries
    @property
    def queue_len(self) -> int:
        """Number of queries currently waiting for admission (all classes)."""
        return sum(len(queue) for queue in self._queues.values())

    @property
    def offered(self) -> int:
        """Arrivals presented to the controller, over all classes."""
        return sum(queue.offered for queue in self._queues.values())

    @property
    def admitted(self) -> int:
        """Arrivals admitted into execution, over all classes."""
        return sum(queue.admitted for queue in self._queues.values())

    @property
    def shed_count(self) -> int:
        """Number of arrivals rejected because their class queue was full."""
        return len(self.shed)

    def has_queued(self) -> bool:
        """``True`` while at least one query is waiting in any queue."""
        return any(len(queue) > 0 for queue in self._queues.values())

    def class_order(self) -> Tuple[str, ...]:
        """Configured workload classes, in admission-preference tie order."""
        return self._order

    def class_of(self, spec: ScanRequest) -> str:
        """The class queue an arrival is routed to.

        The spec's own ``query_class`` when it is configured; otherwise the
        :data:`DEFAULT_QUERY_CLASS` queue when one exists, else the first
        configured class (so unclassified traffic is never dropped on the
        floor).
        """
        return self._resolve_class(spec.query_class)

    def _resolve_class(self, query_class: Optional[str]) -> str:
        """Map a (possibly unknown) class name onto a configured queue.

        Shared by :meth:`offer` (via :meth:`class_of`) and :meth:`release`
        so an admission and its completion always resolve to the *same*
        queue, keeping the per-class active counts balanced.
        """
        if query_class in self._queues:
            return query_class
        if DEFAULT_QUERY_CLASS in self._queues:
            return DEFAULT_QUERY_CLASS
        return self._order[0]

    def class_counters(self) -> Dict[str, Dict[str, float]]:
        """Per-class admission counters (for per-class SLO tables)."""
        return {
            name: {
                "weight": self._queues[name].weight,
                "offered": self._queues[name].offered,
                "admitted": self._queues[name].admitted,
                "shed": self._queues[name].shed_count,
                "queued": len(self._queues[name]),
                "max_queue_len": self._queues[name].max_queue_len,
            }
            for name in self._order
        }

    # ------------------------------------------------------------ lifecycle
    def offer(self, spec: ScanRequest, submit_time: float) -> Optional[QueuedQuery]:
        """Present one arrival to the controller.

        Returns the entry if it is admitted immediately; returns ``None``
        when the arrival was queued or shed (inspect :attr:`shed` /
        :attr:`queue_len` to tell the two apart).
        """
        name = self.class_of(spec)
        queue = self._queues[name]
        queue.offered += 1
        entry = QueuedQuery(spec=spec, submit_time=submit_time, query_class=name)
        if self.active < self.limit:
            self.active += 1
            queue.active += 1
            queue.admitted += 1
            if self._obs is not None:
                self._obs_queue_event(
                    "queue.admit", queue, entry, submit_time, wait=0.0
                )
            return entry
        if queue.capacity is None or len(queue) < queue.capacity:
            queue.push(entry)
            queue.max_queue_len = max(queue.max_queue_len, len(queue))
            self.max_queue_len = max(self.max_queue_len, self.queue_len)
            if self._obs is not None:
                self._obs_queue_event("queue.enqueue", queue, entry, submit_time)
            return None
        queue.shed_count += 1
        self.shed.append(entry)
        if self._obs is not None:
            self._obs_queue_event("queue.shed", queue, entry, submit_time)
        return None

    def release(
        self, query_class: Optional[str] = None, now: Optional[float] = None
    ) -> List[QueuedQuery]:
        """Signal the completion of one admitted query of ``query_class``.

        Frees its MPL slot and admits as many queued queries as now fit
        (exactly one with a static limit; possibly several right after an
        adaptive limit increase), returned in admission order.  On a
        multi-class controller the completed query's class is required —
        guessing would debit another class's MPL share.  ``now`` only
        timestamps the flight-recorder events of the resulting admissions;
        it never affects the decision.
        """
        if self.active <= 0:
            raise ValueError("release() without a matching admission")
        if query_class is None and len(self._order) > 1:
            raise ValueError(
                "release() needs the completed query's class on a "
                f"multi-class controller (classes: {list(self._order)})"
            )
        queue = self._queues[self._resolve_class(query_class)]
        if queue.active <= 0:
            raise ValueError(
                f"release({query_class!r}) without a matching admission "
                f"in class {queue.name!r}"
            )
        queue.active -= 1
        self.active -= 1
        return self.drain(now=now)

    def drain(self, now: Optional[float] = None) -> List[QueuedQuery]:
        """Admit queued queries while MPL capacity is free.

        Each freed slot goes to the non-empty class queue with the smallest
        ``active / weight`` ratio (first-configured class wins ties), which
        converges to weight-proportional MPL shares under contention while
        never idling a slot any class could use.  No-op while the limit is
        saturated — with a static limit the queues only ever drain through
        :meth:`release`, exactly like the historical single-queue controller.
        ``now`` only timestamps flight-recorder events.
        """
        released: List[QueuedQuery] = []
        while self.active < self.limit:
            queue = self._pick_queue()
            if queue is None:
                break
            entry = queue.pop()
            assert entry is not None  # _pick_queue only returns non-empty queues
            queue.active += 1
            queue.admitted += 1
            self.active += 1
            released.append(entry)
            if self._obs is not None:
                at = entry.submit_time if now is None else now
                self._obs_queue_event(
                    "queue.admit", queue, entry, at,
                    wait=max(0.0, at - entry.submit_time),
                )
        return released

    def _pick_queue(self) -> Optional[_ClassQueue]:
        """The non-empty class queue owed the next slot (weighted deficit)."""
        best: Optional[_ClassQueue] = None
        best_deficit = 0.0
        for name in self._order:
            queue = self._queues[name]
            if not len(queue):
                continue
            deficit = queue.active / queue.weight
            if best is None or deficit < best_deficit:
                best = queue
                best_deficit = deficit
        return best

    def describe(self) -> Dict[str, object]:
        """Flat description of the controller state (for reports)."""
        described: Dict[str, object] = {
            **self.config.describe(),
            "mpl_limit": self.limit,
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed_count,
            "queued": self.queue_len,
            "max_queue_len": self.max_queue_len,
        }
        if len(self._order) > 1:
            for name in self._order:
                queue = self._queues[name]
                described[f"class_{name}_offered"] = queue.offered
                described[f"class_{name}_shed"] = queue.shed_count
        return described
