"""The discrete-event scan simulator.

The simulator owns three resources:

* the **disk**: one or more independent volumes, each serving one
  chunk-granularity load operation at a time, timed by
  :class:`repro.disk.MultiVolumeDisk` (a single volume reproduces the classic
  lone :class:`repro.disk.DiskModel` exactly); chunks map onto volumes through
  a :class:`repro.storage.volumes.VolumeLayout`;
* the **CPU**: ``cores`` processors shared (processor sharing) by every query
  that currently has a chunk to crunch;
* the **ABM**: the Active Buffer Manager under test, which decides what the
  disk does and which chunk each query consumes next.

Queries are supplied by a pluggable :class:`repro.sim.source.QuerySource`:

* the paper's *closed* workload (:class:`repro.sim.source.ClosedStreamSource`)
  runs a fixed set of streams, each executing its queries back to back, with
  stream ``i`` starting ``i * stream_start_delay_s`` seconds after the run
  begins (3 seconds in the paper, Section 5.1);
* the *open-system* service layer (:mod:`repro.service`) feeds timestamped
  arrivals through an admission controller instead.

Passing plain streams (a sequence of sequences of scan requests) to
:class:`ScanSimulator` or :func:`run_simulation` wraps them in a
``ClosedStreamSource`` automatically, so existing closed-workload callers
are unaffected.

The simulation is deterministic: given the same workload, configuration and
policy it always produces the same result.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.core.abm import ActiveBufferManager, DSMActiveBufferManager
from repro.core.cscan import ScanRequest
from repro.core.ops import DSMLoadOperation, LoadOperation
from repro.disk.multivolume import MultiVolumeDisk
from repro.disk.request import IORequest, RequestKind
from repro.disk.trace import IOTrace
from repro.obs.postmortem import build_single_node_breakdown
from repro.obs.recorder import (
    FlightRecorder,
    GaugeWriter,
    ObservabilityLike,
    build_flight_recorder,
)
from repro.sim.results import QueryResult, RunResult
from repro.sim.source import AdmittedQuery, ClosedStreamSource, QuerySource
from repro.storage.volumes import VolumeLayout

AnyABM = Union[ActiveBufferManager, DSMActiveBufferManager]
AnyLoadOp = Union[LoadOperation, DSMLoadOperation]
Workload = Union[QuerySource, Sequence[Sequence[ScanRequest]]]

_EPS = 1e-9
_MAX_EVENTS = 20_000_000


@dataclass
class _QueryRun:
    """Simulator-side bookkeeping of one query instance."""

    spec: ScanRequest
    stream: int
    arrival_time: float = 0.0
    submit_time: Optional[float] = None
    done: bool = False
    #: Virtual time at which the current chunk's CPU work completes (under
    #: processor sharing every running query progresses at the same rate, so
    #: one global virtual clock orders all completions).
    cpu_target: float = 0.0
    #: Sequence number of the query's latest dispatch; stale heap entries
    #: (from a dispatch the query has since left) carry an older number.
    cpu_seq: int = -1
    #: Simulated time of the latest dispatch and the chunk it attached —
    #: always maintained: the postmortem stamps close every CPU span at
    #: chunk completion, and the flight recorder reuses them for its spans.
    dispatch_time: float = 0.0
    dispatch_chunk: Optional[int] = None
    #: When the query last blocked with no chunk to crunch; the stall ends
    #: at the disk completion that wakes it.
    block_start: float = 0.0
    #: Always-on postmortem accumulators: stalled time split into the waking
    #: operation's seek / transfer shares, and on-CPU execution time.
    stall_seek_s: float = 0.0
    stall_transfer_s: float = 0.0
    cpu_s: float = 0.0


class ScanSimulator:
    """Simulates a workload of concurrent scans against one ABM instance."""

    def __init__(
        self,
        workload: Workload,
        config: SystemConfig,
        abm: AnyABM,
        record_trace: bool = False,
        obs: ObservabilityLike = None,
        obs_process: str = "service",
        breakdowns: bool = True,
    ) -> None:
        if isinstance(workload, QuerySource):
            self._source = workload
        else:
            self._source = ClosedStreamSource(workload, config.stream_start_delay_s)
        if self._source.drained():
            # Sources are single-use: a drained source at construction time
            # was already consumed by a previous run (fresh sources always
            # hold at least one pending query).
            raise SimulationError("query source is empty or already consumed")
        self._config = config
        #: ``config.cpu.cores``, read once for the busy-core accounting.
        self._cores = config.cpu.cores
        #: ``config.cpu.rate_per_query(n)`` by running-query count ``n``,
        #: filled on first use: the event core reads the rate on every step.
        self._rates: Dict[int, float] = {}
        self._abm = abm
        self._volume_layout = VolumeLayout.from_disk_config(
            config.disk, abm.num_chunks
        )
        self._disk = MultiVolumeDisk(config.disk, self._volume_layout)
        self._num_volumes = self._disk.num_volumes
        self._trace = IOTrace() if record_trace else None
        #: Always-on latency attribution.  The stamps are pure arithmetic on
        #: times the event core already computes (no tracing buffer, no
        #: allocation on the hot path) and never influence scheduling;
        #: ``breakdowns=False`` exists only so the overhead benchmark can
        #: measure the stamping cost against a stamp-free baseline.
        self._breakdowns = breakdowns
        #: Seek/transfer split of each volume's in-flight operation, used to
        #: apportion the stall of every query the completion wakes.
        self._io_segments: Dict[int, Tuple[float, float]] = {}
        #: Cumulative disk busy-seconds sampled at each disk completion —
        #: the threshold-alert input series.  The running total is kept
        #: incrementally (charged when an operation is issued, exactly like
        #: the volumes charge ``busy_time`` at serve time) so sampling it
        #: does not re-sum the volumes on every completion batch.
        self._disk_busy_points: List[Tuple[float, float]] = []
        self._disk_busy_s = 0.0

        self._now = 0.0
        self._queries: Dict[int, _QueryRun] = {}
        self._running: Dict[int, _QueryRun] = {}
        self._blocked: Set[int] = set()
        #: Processor-sharing virtual clock: advances at the per-query service
        #: rate, so a query dispatched with work ``w`` completes when the
        #: clock reaches ``dispatch_value + w``.  Replaces the per-event
        #: O(running) ``remaining_work`` decrement loop.  The clock grows
        #: monotonically over a run, so ``vtime + w`` loses absolute
        #: precision as the run gets long; with double precision the
        #: rounding error stays far below ``_EPS`` until ``vtime`` exceeds
        #: the per-chunk work by ~1e7x, well past any simulated workload
        #: here (runs are bounded by ``_MAX_EVENTS`` long before that).
        self._vtime = 0.0
        #: Min-heap of ``(cpu_target, dispatch_seq, query_id)`` CPU
        #: completions; entries are invalidated lazily when the query leaves
        #: the running set (its ``cpu_seq`` moves on).
        self._cpu_heap: List[Tuple[float, int, int]] = []
        self._dispatch_seq = 0
        #: One in-flight load operation per busy volume.
        self._inflight: Dict[int, AnyLoadOp] = {}
        #: Completion time of each busy volume's in-flight operation.
        #: An entry exists exactly while its volume is busy, so the map
        #: holds at most one entry per volume and a linear min is cheap.
        self._disk_done: Dict[int, float] = {}
        #: Issued operations waiting for their (busy) volume, per volume;
        #: only volumes with a waiting operation have an entry.
        self._pending_io: Dict[int, Deque[AnyLoadOp]] = {}
        self._query_results: List[QueryResult] = []
        self._started = 0
        self._finished = 0
        #: Queries removed by :meth:`cancel_query` (hedged losers, shard
        #: fail-stop).  They count as "accounted for" in :meth:`is_done`
        #: but never produce a :class:`QueryResult`.
        self._cancelled = 0
        self._cpu_busy_area = 0.0
        self._scheduling_seconds = 0.0
        #: Decision count the policy carried before this run (captured when
        #: the run starts), so a policy object reused across simulations
        #: reports per-run calls.
        self._scheduling_calls_base = 0
        #: Optional flight recorder; ``None`` is the zero-overhead default
        #: and leaves every simulation outcome bit-for-bit unchanged.
        self._obs: Optional[FlightRecorder] = None
        self._pid = obs_process
        #: Per-volume utilisation gauges and the hot trace rows, resolved
        #: on attach so the hot paths do no name lookups or formatting.
        self._obs_vol_util: List[GaugeWriter] = []
        recorder = build_flight_recorder(obs)
        if recorder is not None:
            self.attach_observability(recorder, obs_process)

    # -------------------------------------------------------- observability
    def attach_observability(
        self, flight: FlightRecorder, process: str = "service"
    ) -> None:
        """Attach a flight recorder to this simulator and its components.

        ``process`` labels every event's track (e.g. ``"shard2"`` under a
        cluster); the disk and the ABM are attached with the same label so
        one simulator's events group into one Perfetto process.
        """
        self._obs = flight
        self._pid = process
        self._obs_vol_util = [
            flight.gauge_writer(f"{process}.vol{volume}.util")
            for volume in range(self._disk.num_volumes)
        ]
        self._obs_cpu_chunk = flight.complete_writer(
            "cpu.chunk", "cpu", process, "cpu", "query", "chunk"
        )
        self._obs_blocked = flight.instant_writer(
            "exec.blocked", "exec", process, "cpu", "query"
        )
        self._disk.attach_observability(flight, process)
        self._abm.attach_observability(flight, process)

    @property
    def flight_recorder(self) -> Optional[FlightRecorder]:
        """The attached flight recorder, if any."""
        return self._obs

    # ------------------------------------------------------------------ API
    def run(self) -> RunResult:
        """Execute the workload to completion and return the run result."""
        self.begin_run()
        events = 0
        while not self.is_done():
            events += 1
            if events > _MAX_EVENTS:
                raise SimulationError(
                    f"simulation exceeded {_MAX_EVENTS} events; "
                    "likely a scheduling livelock"
                )
            next_time = self.next_step_time()
            if next_time is None:
                raise SimulationError(
                    "simulation deadlock: " + self.progress_summary()
                )
            self.step(next_time)
        return self.finish()

    # ------------------------------------------------------------- step API
    # The same event loop, exposed as discrete steps so an external driver
    # (:class:`repro.sim.lockstep.LockstepRunner`) can interleave several
    # simulators on one shared clock.  ``run()`` is exactly
    # ``begin_run(); while not is_done(): step(next_step_time()); finish()``,
    # so a simulator driven alone through this API behaves bit-for-bit like
    # ``run()``.
    def begin_run(self) -> None:
        """Capture per-run baselines; call once before the first step."""
        self._scheduling_calls_base = self._abm.policy.scheduling_calls

    def is_done(self) -> bool:
        """``True`` once the source is drained and every query finished.

        In-flight disk loads also hold the run open: a cancelled query
        (hedged loser, fail-stop) may orphan a load whose service time was
        already charged to the disk, and the clock must advance through its
        completion or the disk would end the run busier than the wall clock.
        """
        return (
            self._source.drained()
            and self._finished + self._cancelled == self._started
            and not self._inflight
        )

    def next_step_time(self) -> Optional[float]:
        """Issue any possible disk loads, then return the time of the next
        event (``None`` if no event is scheduled — for a lone simulator that
        is a deadlock; under a lockstep driver it means "waiting")."""
        self._kick_disk()
        return self._next_event_time()

    def step(self, now: float) -> None:
        """Advance the clock to ``now`` and process every event due there."""
        self._advance_to(now)
        self._process_disk_completion()
        self._process_cpu_completions()
        self._process_arrivals()

    def finish(self) -> RunResult:
        """Build the run result; call once after the last step."""
        return self._build_result()

    def progress_summary(self) -> str:
        """One-line progress/diagnostic summary (used in deadlock errors)."""
        unfinished = self._started - self._finished - self._cancelled
        summary = (
            f"{len(self._blocked)} blocked queries, disk idle, "
            f"{unfinished} admitted queries "
            f"unfinished (policy {self._abm.policy.name!r})"
        )
        if self._cancelled:
            summary += f", {self._cancelled} cancelled"
        return summary

    # ------------------------------------------------------- failure control
    def cancel_query(self, query_id: int, now: float) -> None:
        """Abort one admitted, unfinished query (hedged loser / fail-stop).

        The query leaves every simulator structure — running set, blocked
        set, CPU heap (lazily, via its ``cpu_seq``) and the ABM — without
        producing a :class:`QueryResult` and without notifying the query
        source: the cluster coordinator owns whole-query completion and
        decides separately what the cancellation means for it.
        """
        run = self._queries.get(query_id)
        if run is None:
            raise SimulationError(f"cannot cancel unknown query {query_id}")
        if run.done:
            raise SimulationError(
                f"cannot cancel query {query_id}: it already finished"
            )
        del self._queries[query_id]
        was_running = self._running.pop(query_id, None)
        self._blocked.discard(query_id)
        if was_running is not None:
            # The heap entry of a cancelled running query goes stale; compact
            # once stale entries dominate so long hedge/fail-stop runs don't
            # grow the heap (and its pop cost) without bound.
            self._maybe_compact_cpu_heap()
        started = perf_counter()
        self._abm.cancel(query_id, now)
        self._scheduling_seconds += perf_counter() - started
        self._cancelled += 1
        if self._obs is not None:
            self._obs.async_end(
                run.spec.name, "exec", now, query_id,
                self._pid, "queries",
                cancelled=True,
                loads_triggered=self._abm.loads_triggered.get(query_id, 0),
            )

    def fail_stop(self, now: float) -> List[int]:
        """Cancel every admitted, unfinished query (a shard kill).

        Returns the cancelled query ids in ascending order.  Buffered
        chunks and in-flight disk loads are untouched: the pool's contents
        simply outlive their consumers, and loads complete harmlessly into
        an ABM with no interested queries.
        """
        victims = sorted(
            query_id
            for query_id, run in self._queries.items()
            if not run.done
        )
        for query_id in victims:
            self.cancel_query(query_id, now)
        return victims

    def set_disk_bandwidth_scale(self, scale: float) -> None:
        """Scale every volume's bandwidth (degraded shard); 1.0 restores."""
        self._disk.set_bandwidth_scale(scale)

    # ------------------------------------------------------------ event core
    def _cpu_entry_valid(self, entry: Tuple[float, int, int]) -> bool:
        """Whether a CPU-heap entry still describes a running dispatch."""
        _, seq, query_id = entry
        run = self._running.get(query_id)
        return run is not None and run.cpu_seq == seq

    def _next_cpu_target(self) -> Optional[float]:
        """Virtual completion time of the earliest live CPU entry (lazily
        discarding entries whose query was re-dispatched or left the CPU)."""
        heap = self._cpu_heap
        while heap:
            entry = heap[0]
            if self._cpu_entry_valid(entry):
                return entry[0]
            heapq.heappop(heap)
        return None

    def _maybe_compact_cpu_heap(self) -> None:
        """Purge stale CPU entries once they outnumber live ones 2:1.

        Lazy invalidation alone never frees a stale entry that stays below
        the heap top, so a long run with many cancellations (hedged losers,
        adaptive-MPL churn) grows the heap — and every ``heappush`` —
        without bound.  Compaction keeps the heap within a constant factor
        of the running set while amortising to O(1) per cancellation.
        """
        heap = self._cpu_heap
        if len(heap) > 32 and len(heap) > 2 * len(self._running):
            heap[:] = [entry for entry in heap if self._cpu_entry_valid(entry)]
            heapq.heapify(heap)

    def _next_event_time(self) -> Optional[float]:
        """The earliest of the next arrival, the earliest in-flight disk
        completion and the earliest CPU completion (``None`` if none)."""
        best = self._source.next_event_time()
        disk_done = self._disk_done
        if disk_done:
            disk = min(disk_done.values())
            if best is None or disk < best:
                best = disk
        running = len(self._running)
        if running:
            target = self._next_cpu_target()
            if target is not None:
                rate = self._rates.get(running) or self._rate_of(running)
                cpu = self._now + max(0.0, target - self._vtime) / rate
                if best is None or cpu < best:
                    best = cpu
        return best

    def _advance_to(self, next_time: float) -> None:
        dt = max(0.0, next_time - self._now)
        if dt > 0:
            running = len(self._running)
            if running:
                rate = self._rates.get(running) or self._rate_of(running)
                self._vtime += dt * rate
                self._cpu_busy_area += min(running, self._cores) * dt
        self._now = next_time

    def _rate_of(self, running: int) -> float:
        """The per-query CPU rate with ``running`` (>= 1) queries on the
        cores, memoized in ``_rates`` (never 0, so ``get(...) or`` works)."""
        rate = self._rates[running] = self._config.cpu.rate_per_query(running)
        return rate

    def _process_disk_completion(self) -> None:
        disk_done = self._disk_done
        if not disk_done:
            return
        horizon = self._now + _EPS
        due = [volume for volume, done in disk_done.items() if done <= horizon]
        if not due:
            return
        due.sort()
        breakdowns = self._breakdowns
        for volume in due:
            operation = self._inflight.pop(volume)
            del disk_done[volume]
            seek_share = 0.0
            if breakdowns:
                seek, transfer = self._io_segments.pop(volume, (0.0, 0.0))
                duration = seek + transfer
                if duration > 0.0:
                    seek_share = seek / duration
            if self._trace is not None:
                if isinstance(operation, DSMLoadOperation):
                    for block in operation.blocks:
                        self._trace.record(
                            time=self._now,
                            chunk=operation.chunk,
                            num_bytes=block.num_bytes,
                            triggered_by=operation.triggered_by,
                            column=block.column,
                        )
                else:
                    self._trace.record(
                        time=self._now,
                        chunk=operation.chunk,
                        num_bytes=operation.num_bytes,
                        triggered_by=operation.triggered_by,
                    )
            started = perf_counter()
            woken = self._abm.complete_load(operation, self._now)
            self._scheduling_seconds += perf_counter() - started
            if self._obs is not None:
                self._obs_vol_util[volume](
                    self._now,
                    self._disk.volumes[volume].busy_time / self._now
                    if self._now > 0 else 0.0,
                )
            for query_id in woken:
                if query_id in self._blocked:
                    if breakdowns:
                        # Close the blocked query's stall: it only ever wakes
                        # from a disk completion, so the whole interval since
                        # it blocked was a disk wait, split in the waking
                        # operation's own seek:transfer ratio (a zero-duration
                        # operation counts entirely as transfer).
                        run = self._queries[query_id]
                        stall = self._now - run.block_start
                        if stall > 0.0:
                            stall_seek = stall * seek_share
                            run.stall_seek_s += stall_seek
                            run.stall_transfer_s += stall - stall_seek
                    self._dispatch(query_id)
        if breakdowns:
            self._disk_busy_points.append((self._now, self._disk_busy_s))

    def _process_cpu_completions(self) -> None:
        # Pop every due completion from the heap instead of scanning all
        # running queries; only actually-due queries are touched.
        heap = self._cpu_heap
        due = []
        while heap:
            entry = heap[0]
            if not self._cpu_entry_valid(entry):
                heapq.heappop(heap)
                continue
            if entry[0] > self._vtime + _EPS:
                break
            heapq.heappop(heap)
            due.append((entry[1], entry[2]))
        # Dispatch order equals running-dict insertion order (every
        # dispatch inserts afresh), matching the naive completion scan.
        due.sort()
        for _, query_id in due:
            if query_id in self._running:
                self._finish_chunk(query_id)

    def _process_arrivals(self) -> None:
        for admitted in self._source.poll(self._now):
            self._start_query(admitted)

    # -------------------------------------------------------------- plumbing
    def _kick_disk(self) -> None:
        # Volumes freed by a completion first pick up their queued operations
        # (a volume's queue leaves the map when it empties).
        pending = self._pending_io
        if pending:
            for volume in sorted(pending):
                if volume not in self._inflight:
                    queue = pending[volume]
                    self._begin_io(volume, queue.popleft())
                    if not queue:
                        del pending[volume]
        # Then pull fresh loads from the ABM while any volume head is idle,
        # so a decision stream that happens to target one busy volume cannot
        # starve the others.  Operations for a busy volume queue at that
        # volume (its request queue; bounded by the buffer pool, since every
        # issued load holds a slot reservation until it completes).  With a
        # single volume this degenerates to the classic one-load-at-a-time
        # loop: the first issued load makes the only volume busy.
        while len(self._inflight) < self._num_volumes:
            started = perf_counter()
            operation = self._abm.next_load(self._now)
            self._scheduling_seconds += perf_counter() - started
            if operation is None:
                return
            volume = self._disk.volume_of(operation.chunk)
            if volume in self._inflight:
                self._pending_io.setdefault(volume, deque()).append(operation)
            else:
                self._begin_io(volume, operation)

    def _begin_io(self, volume: int, operation: AnyLoadOp) -> None:
        """Start serving one load operation on an idle volume."""
        model = self._disk.volumes[volume]
        breakdowns = self._breakdowns
        if isinstance(operation, DSMLoadOperation):
            # Each column block is a separate physical request (different
            # column files), so each pays its own positioning cost.  The
            # running ``duration`` prefix timestamps each block's recorder
            # span at its actual start on the volume.
            duration = 0.0
            seek = 0.0
            for block in operation.blocks:
                duration += self._disk.serve(
                    IORequest(
                        chunk=operation.chunk,
                        num_bytes=block.num_bytes,
                        kind=RequestKind.DSM_COLUMN_BLOCK,
                        column=block.column,
                        triggered_by=operation.triggered_by,
                    ),
                    now=self._now + duration,
                )
                if breakdowns:
                    seek += model.last_seek_s
        else:
            duration = self._disk.serve(
                IORequest(
                    chunk=operation.chunk,
                    num_bytes=operation.num_bytes,
                    kind=RequestKind.NSM_CHUNK,
                    triggered_by=operation.triggered_by,
                ),
                now=self._now,
            )
            seek = model.last_seek_s
        if breakdowns:
            self._io_segments[volume] = (seek, max(0.0, duration - seek))
            self._disk_busy_s += duration
        self._inflight[volume] = operation
        done = self._now + duration
        self._disk_done[volume] = done

    def _start_query(self, admitted: AdmittedQuery) -> None:
        spec = admitted.spec
        if spec.query_id in self._queries:
            raise SimulationError(
                f"duplicate query id {spec.query_id} in workload"
            )
        run = _QueryRun(
            spec=spec,
            stream=admitted.stream,
            arrival_time=self._now,
            submit_time=admitted.submit_time,
        )
        self._queries[spec.query_id] = run
        self._started += 1
        if self._obs is not None:
            self._obs.async_begin(
                spec.name, "exec", self._now, spec.query_id,
                self._pid, "queries",
                chunks=spec.num_chunks, stream=admitted.stream,
                query_class=spec.query_class,
            )
        started = perf_counter()
        self._abm.register(spec, self._now)
        self._scheduling_seconds += perf_counter() - started
        self._dispatch(spec.query_id)

    def _dispatch(self, query_id: int) -> None:
        run = self._queries[query_id]
        started = perf_counter()
        chunk = self._abm.select_chunk(query_id, self._now)
        self._scheduling_seconds += perf_counter() - started
        if chunk is None:
            run.block_start = self._now
            self._blocked.add(query_id)
            self._running.pop(query_id, None)
            if self._obs is not None and not self._abm.handle(query_id).finished:
                self._obs_blocked(self._now, query_id)
            return
        run.dispatch_time = self._now
        run.dispatch_chunk = chunk
        run.cpu_target = self._vtime + max(_EPS, run.spec.cpu_per_chunk)
        self._dispatch_seq += 1
        run.cpu_seq = self._dispatch_seq
        self._blocked.discard(query_id)
        self._running[query_id] = run
        heapq.heappush(self._cpu_heap, (run.cpu_target, run.cpu_seq, query_id))

    def _finish_chunk(self, query_id: int) -> None:
        run = self._running.pop(query_id)
        if self._breakdowns:
            run.cpu_s += self._now - run.dispatch_time
        if self._obs is not None:
            self._obs_cpu_chunk(
                run.dispatch_time, self._now - run.dispatch_time,
                query_id, run.dispatch_chunk,
            )
        started = perf_counter()
        self._abm.finish_chunk(query_id, self._now)
        self._scheduling_seconds += perf_counter() - started
        handle = self._abm.handle(query_id)
        if handle.finished:
            self._complete_query(query_id, run)
        else:
            self._dispatch(query_id)

    def _complete_query(self, query_id: int, run: _QueryRun) -> None:
        handle = self._abm.handle(query_id)
        delivery_order = tuple(handle.delivery_order)
        started = perf_counter()
        self._abm.unregister(query_id, self._now)
        self._scheduling_seconds += perf_counter() - started
        if self._obs is not None:
            self._obs.async_end(
                run.spec.name, "exec", self._now, query_id,
                self._pid, "queries",
                loads_triggered=self._abm.loads_triggered.get(query_id, 0),
            )
        spec = run.spec
        breakdown = None
        if self._breakdowns:
            submit = (
                run.submit_time
                if run.submit_time is not None
                else run.arrival_time
            )
            breakdown = build_single_node_breakdown(
                self._now - submit,
                admission_wait=max(0.0, run.arrival_time - submit),
                disk_seek=run.stall_seek_s,
                disk_transfer=run.stall_transfer_s,
                cpu_execute=run.cpu_s,
                where=f"query {query_id} breakdown",
            )
        self._query_results.append(
            QueryResult(
                query_id=query_id,
                name=spec.name,
                stream=run.stream,
                arrival_time=run.arrival_time,
                finish_time=self._now,
                chunks=spec.num_chunks,
                cpu_seconds=spec.cpu_per_chunk * spec.num_chunks,
                loads_triggered=self._abm.loads_triggered.get(query_id, 0),
                delivery_order=delivery_order,
                submit_time=run.submit_time,
                query_class=spec.query_class,
                breakdown=breakdown,
            )
        )
        run.done = True
        self._finished += 1
        for admitted in self._source.on_complete(query_id, self._now):
            self._start_query(admitted)

    # ---------------------------------------------------------------- result
    def _build_result(self) -> RunResult:
        total_time = self._now
        cpu_utilisation = 0.0
        if total_time > 0:
            cpu_utilisation = self._cpu_busy_area / (
                self._config.cpu.cores * total_time
            )
        streams = self._source.stream_results()
        return RunResult(
            policy=self._abm.policy.name,
            total_time=total_time,
            io_requests=self._abm.io_requests,
            bytes_read=self._disk.bytes_transferred,
            cpu_utilisation=cpu_utilisation,
            queries=sorted(self._query_results, key=lambda query: query.query_id),
            streams=sorted(streams, key=lambda stream: stream.stream),
            trace=self._trace,
            scheduling_seconds=self._scheduling_seconds,
            scheduling_calls=(
                self._abm.policy.scheduling_calls - self._scheduling_calls_base
            ),
            num_chunks=self._abm.num_chunks,
            config=self._config.describe(),
            disk_utilisation=self._disk.utilisation(total_time),
            volume_utilisation=self._disk.per_volume_utilisation(total_time),
            disk_sequential_fraction=self._disk.sequential_fraction(),
            disk_busy_timeline=tuple(self._disk_busy_points),
        )


def run_simulation(
    workload: Workload,
    config: SystemConfig,
    abm: AnyABM,
    record_trace: bool = False,
    obs: ObservabilityLike = None,
    breakdowns: bool = True,
) -> RunResult:
    """Run a workload (streams or a query source) against an ABM instance.

    ``obs`` optionally attaches a flight recorder
    (:class:`~repro.common.config.ObservabilityConfig` or a pre-built
    :class:`~repro.obs.FlightRecorder`); ``None`` records nothing and
    leaves the result bit-for-bit identical.  ``breakdowns`` keeps the
    always-on per-query latency attribution
    (:class:`repro.obs.postmortem.LatencyBreakdown`) — stamps never affect
    scheduling, so disabling it changes nothing but the attached metadata.
    """
    simulator = ScanSimulator(
        workload, config, abm, record_trace=record_trace, obs=obs,
        breakdowns=breakdowns,
    )
    return simulator.run()


def run_standalone(
    spec: ScanRequest,
    config: SystemConfig,
    abm_factory: Callable[[], AnyABM],
) -> float:
    """Cold standalone running time of one query (used to normalise latency).

    The query is executed alone against a freshly created (empty) buffer
    manager, exactly like the paper's per-query "cold time" baseline.
    """
    solo_config = config
    if config.stream_start_delay_s != 0.0:
        from dataclasses import replace

        solo_config = replace(config, stream_start_delay_s=0.0)
    result = run_simulation([[spec]], solo_config, abm_factory())
    return result.queries[0].latency
