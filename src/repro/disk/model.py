"""Timing model of the simulated disk subsystem.

The model is deliberately simple — the scheduling policies are what we study,
not the disk itself — but it keeps the two properties that matter for the
paper's conclusions:

* a chunk-sized transfer amortises positioning cost, so any order of chunk
  loads achieves close-to-sequential bandwidth (Section 3 / Section 4,
  "disk (arm) latency is still well amortized"), and
* non-adjacent accesses still pay a small extra seek, so the elevator policy
  (strictly sequential) retains a slight per-request advantage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.common.config import DiskConfig
from repro.common.errors import SimulationError
from repro.disk.request import IORequest

#: Tolerance for busy-time accounting checks (absolute and relative).
_UTILISATION_EPS = 1e-9


@dataclass
class DiskModel:
    """Stateful disk timing model.

    The model remembers the last chunk read so it can distinguish sequential
    from non-sequential accesses.  It also accumulates simple statistics
    (requests served, bytes transferred, busy time) used by the metrics layer
    to compute bandwidth utilisation.
    """

    config: DiskConfig = field(default_factory=DiskConfig)
    last_chunk: Optional[int] = None
    requests_served: int = 0
    sequential_requests: int = 0
    bytes_transferred: int = 0
    busy_time: float = 0.0
    #: Seek portion of the most recent :meth:`serve` (the flight recorder
    #: splits each request into a seek and a transfer span from this).
    last_seek_s: float = 0.0

    def is_sequential(self, chunk: int) -> bool:
        """Whether reading ``chunk`` next avoids the full positioning cost.

        Both the *next* physical chunk and the *same* chunk count: the head is
        already positioned there, so back-to-back reads of one chunk — the
        common case for consecutive DSM column blocks of a single logical
        chunk — only pay the track/rotation cost, not a full average seek.
        """
        return self.last_chunk is not None and (
            chunk == self.last_chunk or chunk == self.last_chunk + 1
        )

    def service_segments(self, request: IORequest) -> "Tuple[float, float]":
        """The ``(seek, transfer)`` portions of serving ``request`` now.

        Does not mutate state.  The seek segment is the positioning cost
        (full average seek, or the track-to-track cost for sequential
        access); the transfer segment is bytes over effective bandwidth.
        """
        seek = (
            self.config.sequential_seek_s
            if self.is_sequential(request.chunk)
            else self.config.avg_seek_s
        )
        return seek, request.num_bytes / self.config.effective_bandwidth

    def serve(self, request: IORequest) -> float:
        """Serve a request: update statistics and return its service time."""
        seek, transfer = self.service_segments(request)
        duration = seek + transfer
        if self.is_sequential(request.chunk):
            self.sequential_requests += 1
        self.last_chunk = request.chunk
        self.last_seek_s = seek
        self.requests_served += 1
        self.bytes_transferred += request.num_bytes
        self.busy_time += duration
        return duration

    def utilisation(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` time the disk spent transferring data.

        Raises :class:`SimulationError` when the accumulated busy time
        exceeds the elapsed wall-clock time (beyond floating-point noise):
        a disk cannot be more than 100% busy, so an overshoot always means
        the caller double-counted service time and must not be masked.
        """
        if elapsed <= 0:
            return 0.0
        if self.busy_time > elapsed * (1.0 + _UTILISATION_EPS) + _UTILISATION_EPS:
            raise SimulationError(
                f"disk busy time {self.busy_time:.9f}s exceeds elapsed "
                f"{elapsed:.9f}s: busy-time accounting is broken"
            )
        return min(1.0, self.busy_time / elapsed)
