"""A disk subsystem of several independent volumes.

The single :class:`repro.disk.model.DiskModel` collapses the paper's 4-way
RAID into one fast sequential device.  :class:`MultiVolumeDisk` instead owns
one ``DiskModel`` head *per volume* and routes every request to the volume
holding its chunk (via a :class:`repro.storage.volumes.VolumeLayout`), so:

* each volume keeps its own head position — seek accounting is per volume,
  and striped layouts stay sequential *within* a volume (chunk ``i`` and
  chunk ``i + V`` are adjacent on their shared volume);
* volumes serve requests concurrently — the simulator keeps one load in
  flight per volume instead of one global load;
* statistics aggregate across volumes but remain inspectable per volume
  (:meth:`per_volume_utilisation` feeds the service layer's SLO reports).

With one volume the subsystem is bit-for-bit identical to a bare
``DiskModel``: the layout maps every chunk to volume 0 at an unchanged local
position, and all requests serialise on that single head.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from repro.common.config import DiskConfig
from repro.disk.model import DiskModel
from repro.disk.request import IORequest
from repro.storage.volumes import VolumeLayout


class MultiVolumeDisk:
    """One independent :class:`DiskModel` head per volume."""

    def __init__(self, config: DiskConfig, layout: VolumeLayout) -> None:
        if layout.num_volumes != config.volumes:
            raise ValueError(
                f"volume layout has {layout.num_volumes} volumes but the disk "
                f"configuration declares {config.volumes}"
            )
        self.config = config
        self.layout = layout
        #: Healthy-disk configuration; :meth:`set_bandwidth_scale` derives
        #: degraded configs from this so repeated degrade/repair cycles
        #: never compound.
        self._base_config = config
        self.volumes: List[DiskModel] = [
            DiskModel(config) for _ in range(layout.num_volumes)
        ]
        #: Optional flight recorder (:meth:`attach_observability`); ``None``
        #: records nothing.
        self._obs = None

    def attach_observability(self, flight, process: str = "service") -> None:
        """Emit per-volume seek/transfer spans for every served request.

        Spans are only recorded for :meth:`serve` calls that carry a ``now``
        timestamp (the simulator's clock); timestamp-less callers keep the
        pure timing behaviour.
        """
        self._obs = flight
        self._obs_seek = [
            flight.complete_writer(
                "disk.seek", "disk", process, f"vol{volume}",
                "chunk", "sequential",
            )
            for volume in range(self.num_volumes)
        ]
        self._obs_transfer = [
            flight.complete_writer(
                "disk.transfer", "disk", process, f"vol{volume}",
                "chunk", "num_bytes", "column", "triggered_by",
            )
            for volume in range(self.num_volumes)
        ]

    # ------------------------------------------------------------ routing
    @property
    def num_volumes(self) -> int:
        """Number of independent volumes."""
        return len(self.volumes)

    def volume_of(self, chunk: int) -> int:
        """Volume that serves requests for the given logical chunk."""
        return self.layout.volume_of(chunk)

    def serve(self, request: IORequest, now: Optional[float] = None) -> float:
        """Serve ``request`` on the volume owning its chunk.

        Returns the service time.  The caller is responsible for only having
        one request in service per volume at a time (the volume has a single
        head); the simulator enforces this with per-volume in-flight slots.
        ``now`` (the request's start time on the simulated clock) is only
        used to timestamp flight-recorder spans; it never affects timing.
        """
        volume = self.layout.volume_of(request.chunk)
        model = self.volumes[volume]
        duration = model.serve(self._localise(request))
        if self._obs is not None and now is not None:
            seek = model.last_seek_s
            self._obs_seek[volume](
                now, seek, request.chunk, seek <= self.config.sequential_seek_s
            )
            self._obs_transfer[volume](
                now + seek, duration - seek, request.chunk, request.num_bytes,
                request.column, request.triggered_by,
            )
        return duration

    def set_bandwidth_scale(self, scale: float) -> None:
        """Scale every volume's sequential bandwidth (a degraded shard).

        ``scale=1.0`` restores the healthy configuration exactly.  Only
        *future* serves are affected: an in-flight request's completion time
        was computed when it was issued, matching a head that finishes its
        current transfer before slowing down.
        """
        if not scale > 0.0:
            raise ValueError(f"bandwidth scale must be > 0, got {scale!r}")
        base = self._base_config
        degraded = (
            base
            if scale == 1.0
            else replace(
                base,
                bandwidth_bytes_per_s=base.bandwidth_bytes_per_s * scale,
            )
        )
        self.config = degraded
        for model in self.volumes:
            model.config = degraded

    def _localise(self, request: IORequest) -> IORequest:
        """Rewrite the chunk id to its volume-local position.

        The per-volume head tracks *physical* adjacency on that volume, so
        consecutive local indices (e.g. chunks ``i`` and ``i + V`` under
        striping) are charged the sequential seek.
        """
        local = self.layout.local_index(request.chunk)
        if local == request.chunk:
            return request
        return replace(request, chunk=local)

    # --------------------------------------------------------- statistics
    @property
    def requests_served(self) -> int:
        """Requests served across all volumes."""
        return sum(model.requests_served for model in self.volumes)

    @property
    def sequential_requests(self) -> int:
        """Requests that avoided a full seek, across all volumes."""
        return sum(model.sequential_requests for model in self.volumes)

    @property
    def bytes_transferred(self) -> int:
        """Bytes transferred across all volumes."""
        return sum(model.bytes_transferred for model in self.volumes)

    def sequential_fraction(self) -> float:
        """Fraction of all requests that avoided the full seek."""
        served = self.requests_served
        if served <= 0:
            return 0.0
        return self.sequential_requests / served

    def utilisation(self, elapsed: float) -> float:
        """Mean busy fraction over all volumes (1.0 = every head always busy)."""
        if elapsed <= 0 or not self.volumes:
            return 0.0
        return sum(self.per_volume_utilisation(elapsed)) / self.num_volumes

    def per_volume_utilisation(self, elapsed: float) -> Tuple[float, ...]:
        """Busy fraction of each volume over ``elapsed`` seconds."""
        return tuple(model.utilisation(elapsed) for model in self.volumes)
