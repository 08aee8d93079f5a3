"""Configuration dataclasses describing the simulated machine.

The benchmark machine of the paper (Section 5.1) was a dual-CPU 2 GHz
Opteron with 4 GB of RAM and a 4-way RAID delivering slightly over 200 MB/s.
Scans use 16 MB chunks and the ABM buffer pool holds 64 chunks (1 GB).
:data:`PAPER_NSM_SYSTEM` and :data:`PAPER_DSM_SYSTEM` capture those settings;
tests use smaller configurations for speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.units import MB

#: Chunk placement schemes understood by the multi-volume disk subsystem.
VOLUME_PLACEMENTS = ("striped", "range")


@dataclass(frozen=True)
class DiskConfig:
    """Parameters of the simulated disk subsystem.

    Attributes
    ----------
    bandwidth_bytes_per_s:
        Sustained sequential bandwidth of one volume.
    avg_seek_s:
        Average positioning cost paid when the next chunk is not physically
        adjacent to the previously read one.
    sequential_seek_s:
        Positioning cost paid when the next chunk *is* adjacent (track-to-track
        switch); usually close to zero.
    spindles:
        Number of spindles striped *inside* one volume.  Spindles only scale a
        volume's effective bandwidth (the paper's 4-way RAID behaves like one
        fast sequential device for chunk-sized requests).
    volumes:
        Number of independent volumes, each with its own head position and
        its own ``bandwidth_bytes_per_s``.  Unlike ``spindles``, volumes serve
        requests concurrently (one in-flight load per volume).  ``volumes=1``
        reproduces the classic single-disk model exactly.
    placement:
        How logical chunks map onto volumes: ``"striped"`` (chunk *i* lives on
        volume ``i % volumes``) or ``"range"`` (contiguous chunk ranges per
        volume).
    """

    bandwidth_bytes_per_s: float = 200.0 * MB
    avg_seek_s: float = 0.008
    sequential_seek_s: float = 0.001
    spindles: int = 1
    volumes: int = 1
    placement: str = "striped"

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("disk bandwidth must be positive")
        if self.avg_seek_s < 0 or self.sequential_seek_s < 0:
            raise ConfigurationError("seek times must be non-negative")
        if self.spindles < 1:
            raise ConfigurationError("spindles must be >= 1")
        if self.volumes < 1:
            raise ConfigurationError("volumes must be >= 1")
        if self.placement not in VOLUME_PLACEMENTS:
            raise ConfigurationError(
                f"unknown volume placement {self.placement!r}; "
                f"expected one of {VOLUME_PLACEMENTS}"
            )

    def with_volumes(self, volumes: int, placement: Optional[str] = None) -> "DiskConfig":
        """Return a copy of this configuration with a different volume count."""
        return replace(
            self, volumes=volumes, placement=placement or self.placement
        )

    @property
    def effective_bandwidth(self) -> float:
        """Sequential bandwidth of one volume over all its spindles (bytes/s)."""
        return self.bandwidth_bytes_per_s * self.spindles


@dataclass(frozen=True)
class CpuConfig:
    """Parameters of the simulated CPU subsystem.

    Queries that are ready to process data share the cores using processor
    sharing: with ``r`` runnable queries and ``c`` cores each query progresses
    at rate ``min(1, c / r)``.
    """

    cores: int = 2

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigurationError("cores must be >= 1")

    def rate_per_query(self, runnable_queries: int) -> float:
        """Processing rate (fraction of a dedicated core) for each runnable query."""
        if runnable_queries <= 0:
            return 0.0
        return min(1.0, self.cores / runnable_queries)


@dataclass(frozen=True)
class BufferConfig:
    """Parameters of the (active) buffer manager.

    For NSM the capacity is expressed in chunks; for DSM it is expressed in
    pages (because per-column chunk blocks have different physical sizes),
    derived from :attr:`capacity_bytes` and the layout's page size.
    """

    chunk_bytes: int = 16 * MB
    page_bytes: int = 256 * 1024
    capacity_chunks: int = 64

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0 or self.page_bytes <= 0:
            raise ConfigurationError("chunk and page sizes must be positive")
        if self.chunk_bytes % self.page_bytes != 0:
            raise ConfigurationError(
                "chunk_bytes must be a multiple of page_bytes "
                f"(got {self.chunk_bytes} / {self.page_bytes})"
            )
        if self.capacity_chunks < 1:
            raise ConfigurationError("buffer capacity must be at least one chunk")

    @property
    def capacity_bytes(self) -> int:
        """Buffer capacity expressed in bytes."""
        return self.capacity_chunks * self.chunk_bytes


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of a simulated system.

    Combines the disk, CPU and buffer parameters plus run-level knobs such as
    the delay between starting consecutive query streams (3 s in the paper).
    """

    disk: DiskConfig = field(default_factory=DiskConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    buffer: BufferConfig = field(default_factory=BufferConfig)
    stream_start_delay_s: float = 3.0

    def __post_init__(self) -> None:
        if self.stream_start_delay_s < 0:
            raise ConfigurationError("stream_start_delay_s must be non-negative")

    def chunk_load_time(self, chunk_bytes: int | None = None, sequential: bool = False) -> float:
        """Time to load one chunk of ``chunk_bytes`` (defaults to the configured
        chunk size) from disk, including positioning cost."""
        size = self.buffer.chunk_bytes if chunk_bytes is None else chunk_bytes
        seek = self.disk.sequential_seek_s if sequential else self.disk.avg_seek_s
        return seek + size / self.disk.effective_bandwidth

    def with_buffer_chunks(self, capacity_chunks: int) -> "SystemConfig":
        """Return a copy of this configuration with a different buffer capacity."""
        return replace(self, buffer=replace(self.buffer, capacity_chunks=capacity_chunks))

    def with_volumes(self, volumes: int, placement: Optional[str] = None) -> "SystemConfig":
        """Return a copy of this configuration with a different volume count."""
        return replace(self, disk=self.disk.with_volumes(volumes, placement))

    def describe(self) -> Dict[str, Any]:
        """Return a flat dictionary describing the configuration (for reports)."""
        return {
            "disk_bandwidth_MBps": self.disk.effective_bandwidth / MB,
            "disk_avg_seek_ms": self.disk.avg_seek_s * 1000.0,
            "disk_volumes": self.disk.volumes,
            "volume_placement": self.disk.placement,
            "cpu_cores": self.cpu.cores,
            "chunk_MB": self.buffer.chunk_bytes / MB,
            "page_KB": self.buffer.page_bytes / 1024,
            "buffer_chunks": self.buffer.capacity_chunks,
            "buffer_MB": self.buffer.capacity_bytes / MB,
            "stream_start_delay_s": self.stream_start_delay_s,
        }


#: Admission-queue disciplines understood by the service layer: arrival
#: order (``"fifo"``) or shortest job first (``"sjf"``).
ADMISSION_DISCIPLINES = ("fifo", "sjf")

#: Workload class assigned to queries that do not declare one.
DEFAULT_QUERY_CLASS = "default"

#: Sentinel for per-class settings that inherit the service-level value.
#: Compared by equality, so the string ``"inherit"`` from a parsed config
#: file works the same as the module constant.
INHERIT = "inherit"


def _inherits(value: object) -> bool:
    """Whether a per-class setting defers to the service-level value."""
    return isinstance(value, str) and value == INHERIT


def _validate_discipline(discipline: str, where: str) -> None:
    if discipline not in ADMISSION_DISCIPLINES:
        raise ConfigurationError(
            f"unknown admission discipline {discipline!r} for {where}; "
            f"expected one of {ADMISSION_DISCIPLINES}"
        )


@dataclass(frozen=True)
class WorkloadClassConfig:
    """One workload class at the service front door (e.g. interactive/batch).

    Classes separate traffic with different latency expectations over the
    *same* ABM: each class has its own admission queue, and the admission
    scheduler shares the multiprogramming level between the non-empty queues
    in proportion to their ``weight`` (work-conserving: spare capacity is
    handed to whichever class is waiting).

    Attributes
    ----------
    name:
        Class label, matched against :attr:`repro.core.ScanRequest.query_class`.
    weight:
        MPL share of the class.  When several classes have queued queries,
        freed slots go to the class with the smallest ``active / weight``
        ratio (ties break in configured class order), so a class with twice
        the weight converges to twice the executing queries under contention.
    queue_capacity:
        Bound on this class's admission queue (``None`` = unbounded,
        ``0`` = shed every arrival that cannot start immediately).  Defaults
        to the service-level ``queue_capacity``.
    discipline:
        Order within this class's queue: ``"fifo"`` or ``"sjf"`` (smallest
        job first).  Defaults to the service-level ``discipline``.
    """

    name: str
    weight: float = 1.0
    queue_capacity: object = INHERIT
    discipline: str = INHERIT

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("workload class needs a name")
        if self.weight <= 0:
            raise ConfigurationError(
                f"workload class {self.name!r} weight must be positive, "
                f"got {self.weight}"
            )
        if not _inherits(self.queue_capacity):
            if self.queue_capacity is not None and (
                not isinstance(self.queue_capacity, int) or self.queue_capacity < 0
            ):
                raise ConfigurationError(
                    f"workload class {self.name!r} queue_capacity must be "
                    ">= 0, None or INHERIT"
                )
        if not _inherits(self.discipline):
            _validate_discipline(self.discipline, f"workload class {self.name!r}")

    def resolve(
        self, queue_capacity: Optional[int], discipline: str
    ) -> "WorkloadClassConfig":
        """Fill inherited settings from the service-level defaults."""
        resolved_capacity = (
            queue_capacity if _inherits(self.queue_capacity) else self.queue_capacity
        )
        resolved_discipline = (
            discipline if _inherits(self.discipline) else self.discipline
        )
        return WorkloadClassConfig(
            name=self.name,
            weight=self.weight,
            queue_capacity=resolved_capacity,
            discipline=resolved_discipline,
        )

    def describe(self) -> Dict[str, Any]:
        """Return a flat dictionary describing the class (for reports)."""
        return {
            "name": self.name,
            "weight": self.weight,
            "queue_capacity": (
                "inherit"
                if _inherits(self.queue_capacity)
                else "unbounded"
                if self.queue_capacity is None
                else self.queue_capacity
            ),
            "discipline": self.discipline,
        }


@dataclass(frozen=True)
class AdaptiveMPLConfig:
    """Parameters of the adaptive (AIMD) multiprogramming-level controller.

    The controller tunes the admission MPL between ``min_mpl`` and
    ``max_mpl`` from two observed signals: the p95 end-to-end latency over a
    sliding window of completions, and the ABM's buffer-hit rate (the
    fraction of consumed chunks served without triggering a load — the
    sharing dividend).  The AIMD reaction is asymmetric, like TCP's:

    * p95 above ``target_p95_s`` (checked on every completion) —
      multiplicative decrease
      (``mpl = max(min_mpl, floor(mpl * decrease_factor))``), shrinking the
      concurrent set so the relevance policy can restore sharing;
    * p95 within target (probed every ``adjust_every``-th completion) and
      hit rate at or above ``hit_rate_floor`` — additive increase
      (``mpl + increase_step``), converting spare latency headroom into
      throughput.
    """

    target_p95_s: float
    min_mpl: int = 1
    max_mpl: int = 64
    increase_step: int = 1
    decrease_factor: float = 0.5
    adjust_every: int = 4
    window: int = 32
    hit_rate_floor: float = 0.0

    def __post_init__(self) -> None:
        if self.target_p95_s <= 0:
            raise ConfigurationError("target_p95_s must be positive")
        if self.min_mpl < 1:
            raise ConfigurationError("min_mpl must be >= 1")
        if self.max_mpl < self.min_mpl:
            raise ConfigurationError("max_mpl must be >= min_mpl")
        if self.increase_step < 1:
            raise ConfigurationError("increase_step must be >= 1")
        if not 0.0 < self.decrease_factor < 1.0:
            raise ConfigurationError("decrease_factor must be in (0, 1)")
        if self.adjust_every < 1:
            raise ConfigurationError("adjust_every must be >= 1")
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")
        if not 0.0 <= self.hit_rate_floor <= 1.0:
            raise ConfigurationError("hit_rate_floor must be in [0, 1]")

    def describe(self) -> Dict[str, Any]:
        """Return a flat dictionary describing the controller (for reports)."""
        return {
            "target_p95_s": self.target_p95_s,
            "min_mpl": self.min_mpl,
            "max_mpl": self.max_mpl,
            "increase_step": self.increase_step,
            "decrease_factor": self.decrease_factor,
            "adjust_every": self.adjust_every,
            "window": self.window,
            "hit_rate_floor": self.hit_rate_floor,
        }


@dataclass(frozen=True)
class ServiceConfig:
    """Parameters of the open-system query service layer.

    The service admits continuously-arriving queries into the simulator at a
    bounded multiprogramming level (MPL), queueing or shedding the excess:

    Attributes
    ----------
    max_concurrent:
        Maximum number of queries executing concurrently (the MPL).  The
        ABM's sharing policy is exercised at exactly this concurrency level
        whenever the queue is non-empty, however high the offered load.
    queue_capacity:
        Bound on the admission queue.  ``None`` means unbounded (pure
        queueing, nothing is ever shed); ``0`` means shed every arrival that
        cannot start immediately (pure loss system).
    discipline:
        Order in which queued queries are admitted: ``"fifo"`` (arrival
        order) or ``"sjf"`` (cheapest scan first, FIFO tie-break — a
        deterministic shortest-job-first).
    classes:
        Workload classes served by the front door (e.g. interactive vs
        batch).  Empty means one implicit class covering all traffic, which
        behaves exactly like the historical single-queue service.  When
        non-empty, arrivals are routed to their class's queue by
        ``ScanRequest.query_class`` (unknown classes fall into the first
        configured class) and freed MPL slots are shared by class weight.
    adaptive:
        Optional :class:`AdaptiveMPLConfig`.  When set, the admission MPL is
        tuned at run time by an AIMD controller instead of staying pinned at
        ``max_concurrent`` (which then only sets the starting MPL).
    """

    max_concurrent: int = 8
    queue_capacity: Optional[int] = None
    discipline: str = "fifo"
    classes: Tuple[WorkloadClassConfig, ...] = ()
    adaptive: Optional[AdaptiveMPLConfig] = None

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ConfigurationError("max_concurrent must be >= 1")
        if self.queue_capacity is not None and self.queue_capacity < 0:
            raise ConfigurationError("queue_capacity must be >= 0 or None")
        _validate_discipline(self.discipline, "service")
        object.__setattr__(self, "classes", tuple(self.classes))
        names = [cls.name for cls in self.classes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate workload class names in {names}")

    def resolved_classes(self) -> Tuple[WorkloadClassConfig, ...]:
        """The effective workload classes, inherited settings filled in.

        An empty ``classes`` tuple resolves to one implicit
        :data:`DEFAULT_QUERY_CLASS` class carrying the service-level queue
        settings — the single-queue behaviour every pre-class config had.
        """
        if not self.classes:
            return (
                WorkloadClassConfig(
                    name=DEFAULT_QUERY_CLASS,
                    weight=1.0,
                    queue_capacity=self.queue_capacity,
                    discipline=self.discipline,
                ),
            )
        return tuple(
            cls.resolve(self.queue_capacity, self.discipline)
            for cls in self.classes
        )

    def describe(self) -> Dict[str, Any]:
        """Return a flat dictionary describing the service (for reports)."""
        described: Dict[str, Any] = {
            "max_concurrent": self.max_concurrent,
            "queue_capacity": (
                "unbounded" if self.queue_capacity is None else self.queue_capacity
            ),
            "discipline": self.discipline,
        }
        if self.classes:
            described["classes"] = ",".join(
                f"{cls.name}:{cls.weight:g}" for cls in self.classes
            )
        if self.adaptive is not None:
            described["adaptive_mpl"] = True
            described["adaptive_target_p95_s"] = self.adaptive.target_p95_s
        return described


@dataclass(frozen=True)
class CoordinatorConfig:
    """CPU cost table of the cluster coordinator.

    The defaults are all zero — a *free* coordinator — which reproduces the
    historical behaviour bit for bit: no cost layer is built, admissions
    scatter instantly and gathers complete at the shard's event time.  Any
    non-zero cost turns the coordinator into a single-server
    :class:`repro.net.SimCPU` on the shared clock.

    Attributes
    ----------
    classify_s:
        CPU seconds to classify/plan one admitted query (charged once per
        query at admission).
    scatter_per_subquery_s:
        CPU seconds to build and enqueue one per-shard sub-query message.
    gather_per_subquery_s:
        CPU seconds to process one sub-query completion message.
    merge_per_query_s:
        Extra CPU seconds to merge the final result when a query's *last*
        sub-query completion arrives.
    queue_delay_warn_s:
        Threshold above which the SLO report carries a coordinator
        queue-delay warning.
    """

    classify_s: float = 0.0
    scatter_per_subquery_s: float = 0.0
    gather_per_subquery_s: float = 0.0
    merge_per_query_s: float = 0.0
    queue_delay_warn_s: float = 0.5

    def __post_init__(self) -> None:
        for name in (
            "classify_s",
            "scatter_per_subquery_s",
            "gather_per_subquery_s",
            "merge_per_query_s",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ConfigurationError(
                    f"coordinator {name} must be finite and >= 0, got {value!r}"
                )
        if not math.isfinite(self.queue_delay_warn_s) or self.queue_delay_warn_s <= 0.0:
            raise ConfigurationError(
                f"queue_delay_warn_s must be finite and > 0, "
                f"got {self.queue_delay_warn_s!r}"
            )

    @property
    def is_free(self) -> bool:
        """Whether every coordinator CPU cost is zero (the default)."""
        return (
            self.classify_s == 0.0
            and self.scatter_per_subquery_s == 0.0
            and self.gather_per_subquery_s == 0.0
            and self.merge_per_query_s == 0.0
        )

    def describe(self) -> Dict[str, Any]:
        """Return a flat dictionary describing the cost table (for reports)."""
        return {
            "coordinator_classify_s": self.classify_s,
            "coordinator_scatter_per_subquery_s": self.scatter_per_subquery_s,
            "coordinator_gather_per_subquery_s": self.gather_per_subquery_s,
            "coordinator_merge_per_query_s": self.merge_per_query_s,
        }


@dataclass(frozen=True)
class NetworkConfig:
    """Cost model of the coordinator <-> shard message fabric.

    The defaults describe a *free* network (infinite bandwidth, zero
    per-message overhead), reproducing the historical instant-delivery
    behaviour bit for bit.  Any finite bandwidth or non-zero overhead gives
    the coordinator one :class:`repro.net.SimNIC` and each shard its own,
    so every scatter/gather message crosses two queued links.

    Attributes
    ----------
    bandwidth_bytes_per_s:
        Link bandwidth of every NIC (``None`` = infinitely fast).
    per_message_s:
        Fixed per-message overhead on each NIC a message crosses.
    scatter_message_bytes:
        Size of one coordinator -> shard sub-query message.
    gather_message_bytes:
        Size of one shard -> coordinator completion message.
    """

    bandwidth_bytes_per_s: Optional[float] = None
    per_message_s: float = 0.0
    scatter_message_bytes: int = 16 * 1024
    gather_message_bytes: int = 4 * 1024

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s is not None and (
            not math.isfinite(self.bandwidth_bytes_per_s)
            or self.bandwidth_bytes_per_s <= 0.0
        ):
            raise ConfigurationError(
                f"bandwidth_bytes_per_s must be positive or None, "
                f"got {self.bandwidth_bytes_per_s!r}"
            )
        if not math.isfinite(self.per_message_s) or self.per_message_s < 0.0:
            raise ConfigurationError(
                f"per_message_s must be finite and >= 0, got {self.per_message_s!r}"
            )
        for name in ("scatter_message_bytes", "gather_message_bytes"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ConfigurationError(
                    f"{name} must be a non-negative integer, got {value!r}"
                )

    @property
    def is_free(self) -> bool:
        """Whether messages cost nothing to deliver (the default)."""
        return self.bandwidth_bytes_per_s is None and self.per_message_s == 0.0

    def describe(self) -> Dict[str, Any]:
        """Return a flat dictionary describing the fabric (for reports)."""
        return {
            "network_bandwidth_bytes_per_s": (
                "infinite"
                if self.bandwidth_bytes_per_s is None
                else self.bandwidth_bytes_per_s
            ),
            "network_per_message_s": self.per_message_s,
            "network_scatter_message_bytes": self.scatter_message_bytes,
            "network_gather_message_bytes": self.gather_message_bytes,
        }


#: Failure-schedule event kinds understood by the cluster failure injector.
FAILURE_KINDS = ("kill", "degrade", "repair")


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled shard failure-model transition on the simulated clock.

    Attributes
    ----------
    time:
        Simulated second at which the event fires (a lockstep frontier
        event, ordered like an in-flight message).
    shard:
        Index of the shard the event applies to.
    kind:
        ``"kill"`` (fail-stop: the shard's in-flight sub-queries are
        cancelled and it accepts no new work), ``"degrade"`` (the shard's
        disk bandwidth is scaled down by the schedule's
        ``degrade_factor``), or ``"repair"`` (the shard returns to full
        health and orphaned sub-queries are re-scattered to it).
    """

    time: float
    shard: int
    kind: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0.0:
            raise ConfigurationError(
                f"failure event time must be finite and >= 0, got {self.time!r}"
            )
        if not isinstance(self.shard, int) or self.shard < 0:
            raise ConfigurationError(
                f"failure event shard must be a non-negative integer, "
                f"got {self.shard!r}"
            )
        if self.kind not in FAILURE_KINDS:
            raise ConfigurationError(
                f"unknown failure event kind {self.kind!r}; "
                f"expected one of {FAILURE_KINDS}"
            )


@dataclass(frozen=True)
class FailureConfig:
    """A deterministic schedule of shard kill/degrade/repair events.

    The empty default schedule models a perfectly healthy cluster and is
    bit-for-bit inert.  Schedules must be globally ordered by time and form
    a valid per-shard state machine: a shard can only be degraded from the
    healthy state, killed while up or degraded, and repaired while killed
    or degraded — overlapping or out-of-order events are configuration
    errors, not silent no-ops.

    Attributes
    ----------
    events:
        Time-ordered :class:`FailureEvent` tuple.
    degrade_factor:
        Disk-bandwidth multiplier applied to a degraded shard, in ``(0, 1]``
        (``0.5`` = the classic half-speed sick disk).
    """

    events: Tuple[FailureEvent, ...] = ()
    degrade_factor: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FailureEvent):
                raise ConfigurationError(
                    f"failure schedule entries must be FailureEvent, "
                    f"got {type(event).__name__}"
                )
        if not math.isfinite(self.degrade_factor) or not (
            0.0 < self.degrade_factor <= 1.0
        ):
            raise ConfigurationError(
                f"degrade_factor must be in (0, 1], got {self.degrade_factor!r}"
            )
        previous_time = None
        state: Dict[int, str] = {}
        for event in self.events:
            if previous_time is not None and event.time < previous_time:
                raise ConfigurationError(
                    f"failure schedule is out of order: event at t={event.time} "
                    f"follows one at t={previous_time}; sort events by time"
                )
            previous_time = event.time
            current = state.get(event.shard, "up")
            if event.kind == "kill" and current == "down":
                raise ConfigurationError(
                    f"overlapping failure events: shard {event.shard} is "
                    f"already killed at t={event.time}; repair it first"
                )
            if event.kind == "degrade" and current != "up":
                raise ConfigurationError(
                    f"overlapping failure events: shard {event.shard} is "
                    f"{current!r} at t={event.time}; it must be up to degrade"
                )
            if event.kind == "repair" and current == "up":
                raise ConfigurationError(
                    f"out-of-order failure events: shard {event.shard} is "
                    f"already up at t={event.time}; nothing to repair"
                )
            state[event.shard] = {
                "kill": "down",
                "degrade": "degraded",
                "repair": "up",
            }[event.kind]

    @property
    def is_empty(self) -> bool:
        """Whether the schedule holds no events (the healthy-cluster model)."""
        return not self.events

    def describe(self) -> Dict[str, Any]:
        """Return a flat dictionary describing the schedule (for reports)."""
        return {
            "failure_events": len(self.events),
            "failure_degrade_factor": self.degrade_factor,
        }


@dataclass(frozen=True)
class HedgeConfig:
    """Hedged-request policy for straggling sub-queries.

    Once ``min_samples`` sub-query latencies have been observed, any
    sub-query still running after ``multiplier`` times the ``quantile``-th
    observed latency is *hedged*: a duplicate is scattered to another live
    replica and the first completion wins (the loser is cancelled and its
    accounting unwound).

    Attributes
    ----------
    quantile:
        Latency quantile (strictly inside ``(0, 1)``) defining "straggler".
    multiplier:
        Scale applied to the quantile latency before hedging fires.
    min_samples:
        Completed sub-queries required before any hedge is issued (hedging
        on one sample would duplicate half the warm-up workload).
    """

    quantile: float = 0.95
    multiplier: float = 1.0
    min_samples: int = 8

    def __post_init__(self) -> None:
        if not math.isfinite(self.quantile) or not 0.0 < self.quantile < 1.0:
            raise ConfigurationError(
                f"hedge quantile must be in (0, 1), got {self.quantile!r}"
            )
        if not math.isfinite(self.multiplier) or self.multiplier <= 0.0:
            raise ConfigurationError(
                f"hedge multiplier must be finite and > 0, got {self.multiplier!r}"
            )
        if not isinstance(self.min_samples, int) or self.min_samples < 1:
            raise ConfigurationError(
                f"hedge min_samples must be an integer >= 1, "
                f"got {self.min_samples!r}"
            )

    def describe(self) -> Dict[str, Any]:
        """Return a flat dictionary describing the hedge policy (for reports)."""
        return {
            "hedge_quantile": self.quantile,
            "hedge_multiplier": self.multiplier,
            "hedge_min_samples": self.min_samples,
        }


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of the sharded scatter-gather cluster layer.

    A cluster partitions the table's chunks across several independent
    shard simulators (each its own ABM + disk) behind one front admission
    queue; a query is scattered into per-shard sub-queries and completes
    when its last sub-query finishes.

    Attributes
    ----------
    shards:
        Number of shard simulators the table is partitioned across.
    placement:
        How chunks map onto shards: ``"range"`` (each shard owns one
        contiguous chunk range — the partitioned-table layout) or
        ``"striped"`` (round-robin).
    mpl_per_shard:
        Multiprogramming level each shard is sized for.  The front
        admission queue caps the cluster-wide concurrency at
        ``shards * mpl_per_shard`` whole queries.
    queue_capacity:
        Bound on the front admission queue (``None`` = unbounded,
        ``0`` = pure loss system), as in :class:`ServiceConfig`.
    discipline:
        Front-queue admission order: ``"fifo"`` or ``"sjf"``.
    classes:
        Workload classes at the cluster front door, exactly as in
        :class:`ServiceConfig.classes`.
    adaptive:
        Optional :class:`AdaptiveMPLConfig` tuning the cluster-wide MPL at
        run time (``cluster_mpl`` then only sets the starting MPL).
    coordinator:
        :class:`CoordinatorConfig` CPU cost table.  Free by default, which
        keeps the historical instant-scatter behaviour.
    network:
        :class:`NetworkConfig` message-fabric costs.  Free by default.
    replicas:
        Number of shards each chunk range is placed on (chained
        declustering: replica *r* of primary shard *p* lives on shard
        ``(p + r) % shards``).  ``1`` — the default — is the historical
        unreplicated cluster.
    failures:
        :class:`FailureConfig` schedule of shard kill/degrade/repair
        events.  Empty by default (no failures ever fire).
    hedge:
        Optional :class:`HedgeConfig`.  When set (and the cluster is
        replicated), straggling sub-queries are duplicated onto another
        live replica and the first completion wins.
    """

    shards: int = 1
    placement: str = "range"
    mpl_per_shard: int = 8
    queue_capacity: Optional[int] = None
    discipline: str = "fifo"
    classes: Tuple[WorkloadClassConfig, ...] = ()
    adaptive: Optional[AdaptiveMPLConfig] = None
    coordinator: CoordinatorConfig = field(default_factory=CoordinatorConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    replicas: int = 1
    failures: FailureConfig = field(default_factory=FailureConfig)
    hedge: Optional[HedgeConfig] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.mpl_per_shard < 1:
            raise ConfigurationError(
                f"mpl_per_shard must be >= 1, got {self.mpl_per_shard}"
            )
        if self.placement not in VOLUME_PLACEMENTS:
            raise ConfigurationError(
                f"unknown shard placement {self.placement!r}; "
                f"expected one of {VOLUME_PLACEMENTS}"
            )
        if self.queue_capacity is not None and self.queue_capacity < 0:
            raise ConfigurationError("queue_capacity must be >= 0 or None")
        _validate_discipline(self.discipline, "cluster front queue")
        object.__setattr__(self, "classes", tuple(self.classes))
        names = [cls.name for cls in self.classes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate workload class names in {names}")
        if not isinstance(self.coordinator, CoordinatorConfig):
            raise ConfigurationError(
                f"coordinator must be a CoordinatorConfig, "
                f"got {type(self.coordinator).__name__}"
            )
        if not isinstance(self.network, NetworkConfig):
            raise ConfigurationError(
                f"network must be a NetworkConfig, "
                f"got {type(self.network).__name__}"
            )
        if not isinstance(self.replicas, int) or self.replicas < 1:
            raise ConfigurationError(
                f"replicas must be an integer >= 1, got {self.replicas!r}"
            )
        if self.replicas > self.shards:
            raise ConfigurationError(
                f"replicas={self.replicas} exceeds shards={self.shards}; "
                "each chunk range can be placed on at most one copy per shard"
            )
        if not isinstance(self.failures, FailureConfig):
            raise ConfigurationError(
                f"failures must be a FailureConfig, "
                f"got {type(self.failures).__name__}"
            )
        for event in self.failures.events:
            if event.shard >= self.shards:
                raise ConfigurationError(
                    f"failure event at t={event.time} targets shard "
                    f"{event.shard}, but the cluster only has "
                    f"{self.shards} shard(s)"
                )
        if self.hedge is not None and not isinstance(self.hedge, HedgeConfig):
            raise ConfigurationError(
                f"hedge must be a HedgeConfig or None, "
                f"got {type(self.hedge).__name__}"
            )

    @property
    def cluster_mpl(self) -> int:
        """Cluster-wide cap on concurrently executing whole queries."""
        return self.shards * self.mpl_per_shard

    @property
    def models_coordinator(self) -> bool:
        """Whether any coordinator CPU or network cost is non-zero.

        ``False`` (the default) leaves the cluster without a coordinator
        cost model: scatter and gather are instant.
        """
        return not (self.coordinator.is_free and self.network.is_free)

    def front_service(self) -> ServiceConfig:
        """The front admission queue expressed as a :class:`ServiceConfig`.

        A 1-shard cluster therefore admits exactly like a single-simulator
        service with ``max_concurrent=mpl_per_shard``.
        """
        return ServiceConfig(
            max_concurrent=self.cluster_mpl,
            queue_capacity=self.queue_capacity,
            discipline=self.discipline,
            classes=self.classes,
            adaptive=self.adaptive,
        )

    def describe(self) -> Dict[str, Any]:
        """Return a flat dictionary describing the cluster (for reports)."""
        described: Dict[str, Any] = {
            "shards": self.shards,
            "shard_placement": self.placement,
            "mpl_per_shard": self.mpl_per_shard,
            "cluster_mpl": self.cluster_mpl,
            "queue_capacity": (
                "unbounded" if self.queue_capacity is None else self.queue_capacity
            ),
            "discipline": self.discipline,
        }
        if self.classes:
            described["classes"] = ",".join(
                f"{cls.name}:{cls.weight:g}" for cls in self.classes
            )
        if self.adaptive is not None:
            described["adaptive_mpl"] = True
            described["adaptive_target_p95_s"] = self.adaptive.target_p95_s
        if self.models_coordinator:
            described.update(self.coordinator.describe())
            described.update(self.network.describe())
        if self.replicas > 1:
            described["replicas"] = self.replicas
        if not self.failures.is_empty:
            described.update(self.failures.describe())
        if self.hedge is not None:
            described.update(self.hedge.describe())
        return described


@dataclass(frozen=True)
class ObservabilityConfig:
    """Flight-recorder knobs shared by every run entry point.

    Passed (as the ``obs`` argument) to :func:`repro.sim.runner.run_simulation`,
    :func:`repro.service.server.run_service`,
    :func:`repro.cluster.coordinator.run_cluster_service` and
    :class:`repro.sim.lockstep.LockstepRunner`.  Omitting it (``obs=None``)
    — or setting ``enabled=False`` — builds no recorder at all, which is the
    zero-overhead path: simulation results are bit-for-bit identical to a
    build without the observability layer.

    Attributes
    ----------
    enabled:
        Master switch.  ``False`` makes the entry points behave exactly as
        if no config had been passed (no recorder object is created).
    trace:
        Record per-event traces (query lifecycles, queue transitions,
        disk seek/transfer segments, CPU service intervals, ABM decisions).
        Exported via :mod:`repro.obs.export` as JSONL or Chrome trace JSON.
    metrics:
        Record metric timelines on the simulated clock (per-class queue
        depth, active MPL, per-volume utilisation, ABM buffer-hit rate,
        starved-query count) for the windowed drill-down renderers.
    max_trace_events:
        Hard cap on buffered trace events; past it, events are counted as
        dropped instead of stored, bounding memory on runaway runs.
    timeline_window_s:
        Default window width (simulated seconds) used by the timeline
        drill-down renderers; ``None`` picks ~12 windows over the run.
    """

    enabled: bool = True
    trace: bool = True
    metrics: bool = True
    max_trace_events: int = 1_000_000
    timeline_window_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_trace_events < 1:
            raise ConfigurationError("max_trace_events must be >= 1")
        if self.timeline_window_s is not None and self.timeline_window_s <= 0:
            raise ConfigurationError("timeline_window_s must be positive")

    def describe(self) -> Dict[str, Any]:
        return {
            "obs_enabled": self.enabled,
            "obs_trace": self.trace,
            "obs_metrics": self.metrics,
            "obs_max_trace_events": self.max_trace_events,
        }


#: The row-store (NSM/PAX) configuration of Section 5.1: 16 MB chunks,
#: 64-chunk (1 GB) buffer pool, ~200 MB/s RAID, dual-core CPU.
PAPER_NSM_SYSTEM = SystemConfig()

#: The column-store (DSM) configuration of Section 6.3: the buffer pool is
#: grown to 1.5 GB (96 chunk-equivalents) to allow 16 concurrent queries.
PAPER_DSM_SYSTEM = SystemConfig(
    buffer=BufferConfig(chunk_bytes=16 * MB, page_bytes=256 * 1024, capacity_chunks=96),
)
