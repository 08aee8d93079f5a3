"""The coordinator's resource bundle and its slice of the SLO report.

:class:`CoordinatorResources` owns one :class:`~repro.net.cost.SimCPU` and
one :class:`~repro.net.cost.SimNIC` for the coordinator plus one NIC per
shard, and exposes the four charges the scatter-gather protocol makes:

* :meth:`admit` — classify + build the per-shard scatter messages (CPU);
* :meth:`deliver_scatter` — one sub-query message across the coordinator
  NIC and the owning shard's NIC; the returned time is when the shard may
  *start* the sub-query;
* :meth:`deliver_gather` — one completion message back across both NICs;
* :meth:`process_gather` — gather bookkeeping (plus the final merge) on
  the coordinator CPU; the returned time is the *query's* completion.

Every charge lands on the shared simulated clock, so admission-to-start
and last-subquery-to-completion gain real modeled delay, and the books the
primitives keep roll up into a :class:`CoordinatorSLO` that the merged
cluster report can carry — including explicit warnings once the
coordinator saturates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from repro.common.config import CoordinatorConfig, NetworkConfig
from repro.metrics.timeline import validate_timeline
from repro.net.cost import SimCPU, SimNIC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.recorder import RowWriter

#: Utilisation at which the coordinator is flagged as the bottleneck.
SATURATION_WARN = 0.9


@dataclass(frozen=True)
class CoordinatorSLO:
    """Coordinator CPU/NIC accounting attached to a cluster SLO report."""

    #: Fraction of the run the coordinator CPU spent busy.
    cpu_utilisation: float
    #: Fraction of the run the coordinator NIC spent busy.
    nic_utilisation: float
    #: Per-shard NIC utilisations, indexed by shard.
    shard_nic_utilisation: Tuple[float, ...]
    #: Total coordinator CPU seconds consumed.
    cpu_busy_s: float
    #: CPU operations served (classify/scatter and gather/merge charges).
    cpu_ops: int
    cpu_queue_delay_mean_s: float
    cpu_queue_delay_max_s: float
    #: Messages through the coordinator NIC (scatter + gather directions).
    nic_messages: int
    nic_bytes: int
    nic_queue_delay_mean_s: float
    nic_queue_delay_max_s: float
    #: Human-readable saturation/queue-delay warnings (empty = healthy).
    warnings: Tuple[str, ...] = ()

    @property
    def bottleneck_utilisation(self) -> float:
        """The busiest coordinator-side resource's utilisation."""
        peak = max(self.cpu_utilisation, self.nic_utilisation)
        if self.shard_nic_utilisation:
            peak = max(peak, max(self.shard_nic_utilisation))
        return peak

    @property
    def saturated(self) -> bool:
        """Whether any coordinator-side resource crossed the warn line."""
        return self.bottleneck_utilisation >= SATURATION_WARN

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary view (merged into ``SLOReport.as_dict``)."""
        return {
            "cpu_utilisation": self.cpu_utilisation,
            "nic_utilisation": self.nic_utilisation,
            "cpu_busy_s": self.cpu_busy_s,
            "cpu_ops": self.cpu_ops,
            "cpu_queue_delay_mean_s": self.cpu_queue_delay_mean_s,
            "cpu_queue_delay_max_s": self.cpu_queue_delay_max_s,
            "nic_messages": self.nic_messages,
            "nic_bytes": self.nic_bytes,
            "nic_queue_delay_mean_s": self.nic_queue_delay_mean_s,
            "nic_queue_delay_max_s": self.nic_queue_delay_max_s,
            "bottleneck_utilisation": self.bottleneck_utilisation,
            "saturated": self.saturated,
            "warnings": "; ".join(self.warnings),
        }


class CoordinatorResources:
    """One coordinator CPU + NIC and one NIC per shard, on the sim clock."""

    def __init__(
        self,
        coordinator: CoordinatorConfig,
        network: NetworkConfig,
        num_shards: int,
    ) -> None:
        self.config = coordinator
        self.network = network
        self.cpu = SimCPU("coordinator-cpu")
        self.nic = SimNIC(
            "coordinator-nic",
            bandwidth_bytes_per_s=network.bandwidth_bytes_per_s,
            per_message_s=network.per_message_s,
        )
        self.shard_nics = [
            SimNIC(
                f"shard{shard}-nic",
                bandwidth_bytes_per_s=network.bandwidth_bytes_per_s,
                per_message_s=network.per_message_s,
            )
            for shard in range(num_shards)
        ]
        self._obs = None
        self._obs_pid = "frontdoor"

    # -------------------------------------------------------- observability
    def attach_observability(self, recorder, pid: str = "frontdoor") -> None:
        """Emit CPU spans, message instants and utilisation gauges on
        ``recorder`` (a :class:`repro.obs.recorder.FlightRecorder`)."""
        self._obs = recorder
        self._obs_pid = pid
        #: Span and message writers per CPU op / message kind, resolved on
        #: first use; the two utilisation gauges, resolved here.
        self._obs_cpu_rows: Dict[str, "RowWriter"] = {}
        self._obs_message_rows: Dict[str, "RowWriter"] = {}
        self._obs_cpu_util = recorder.gauge_writer("coordinator.cpu.util")
        self._obs_nic_util = recorder.gauge_writer("coordinator.nic.util")

    def _emit_cpu(self, op: str, charge, query_id: int) -> None:
        if self._obs is None or charge.done <= charge.start:
            return
        write = self._obs_cpu_rows.get(op)
        if write is None:
            write = self._obs_cpu_rows[op] = self._obs.complete_writer(
                f"coordinator.cpu.{op}", "coordinator", self._obs_pid,
                "coordinator-cpu", "query", "queue_delay",
            )
        write(charge.start, charge.done - charge.start, query_id,
              charge.queue_delay)
        self._obs_cpu_util(charge.done, self.cpu.utilisation(charge.done))

    def _emit_message(
        self, kind: str, charge, query_id: int, shard: int, num_bytes: int
    ) -> None:
        if self._obs is None:
            return
        write = self._obs_message_rows.get(kind)
        if write is None:
            write = self._obs_message_rows[kind] = self._obs.instant_writer(
                f"coordinator.net.{kind}", "net", self._obs_pid,
                "coordinator-nic", "query", "shard", "bytes", "queue_delay",
            )
        write(charge.done, query_id, shard, num_bytes, charge.queue_delay)
        self._obs_nic_util(charge.done, self.nic.utilisation(charge.done))

    # ------------------------------------------------------------- protocol
    def admit(self, now: float, query_id: int, num_subqueries: int) -> float:
        """Charge classification + scatter build for one admitted query.

        Returns the time the scatter messages are ready to leave the
        coordinator.
        """
        seconds = (
            self.config.classify_s
            + self.config.scatter_per_subquery_s * num_subqueries
        )
        charge = self.cpu.charge("scatter", now, seconds)
        self._emit_cpu("scatter", charge, query_id)
        return charge.done

    def deliver_scatter(self, ready: float, shard: int, query_id: int) -> float:
        """Send one sub-query message to ``shard``; returns delivery time."""
        num_bytes = self.network.scatter_message_bytes
        sent = self.nic.send(ready, num_bytes)
        self._emit_message("scatter", sent, query_id, shard, num_bytes)
        received = self.shard_nics[shard].send(sent.done, num_bytes)
        return received.done

    def deliver_gather(self, now: float, shard: int, query_id: int) -> float:
        """Send one completion message from ``shard``; returns arrival time."""
        num_bytes = self.network.gather_message_bytes
        sent = self.shard_nics[shard].send(now, num_bytes)
        received = self.nic.send(sent.done, num_bytes)
        self._emit_message("gather", received, query_id, shard, num_bytes)
        return received.done

    def process_gather(self, arrived: float, query_id: int, final: bool) -> float:
        """Charge gather bookkeeping (plus the final merge) on the CPU.

        Returns the time the completion is fully processed — for the last
        sub-query, the whole query's completion time.
        """
        seconds = self.config.gather_per_subquery_s
        op = "gather"
        if final:
            seconds += self.config.merge_per_query_s
            op = "gather-merge"
        charge = self.cpu.charge(op, arrived, seconds)
        self._emit_cpu(op, charge, query_id)
        return charge.done

    # ------------------------------------------------------------- reporting
    def timelines(self) -> Dict[str, Tuple[Tuple[float, float], ...]]:
        """Validated ``(time, utilisation)`` timelines, one per resource.

        Every timeline passes :func:`repro.metrics.timeline.validate_timeline`
        — the same guard the MPL timelines get — before being returned.
        """
        series: Dict[str, Tuple[Tuple[float, float], ...]] = {
            "coordinator_cpu": tuple(self.cpu.utilisation_timeline),
            "coordinator_nic": tuple(self.nic.utilisation_timeline),
        }
        for shard, nic in enumerate(self.shard_nics):
            series[f"shard{shard}_nic"] = tuple(nic.utilisation_timeline)
        for name, points in series.items():
            validate_timeline(points, where=f"{name} utilisation timeline")
        return series

    def busy_timelines(self) -> Dict[str, Tuple[Tuple[float, float], ...]]:
        """Validated cumulative ``(time, busy_seconds)`` series per resource.

        These feed the windowed threshold alerts in
        :mod:`repro.obs.alerts` (``"coordinator.cpu"`` /
        ``"coordinator.nic"`` / ``"shard<i>.nic"``), which convert them to
        trailing-window utilisation; both coordinates are monotone by
        construction of :class:`repro.net.cost._SingleServerQueue`.
        """
        series: Dict[str, Tuple[Tuple[float, float], ...]] = {
            "coordinator.cpu": tuple(self.cpu.busy_timeline),
            "coordinator.nic": tuple(self.nic.busy_timeline),
        }
        for shard, nic in enumerate(self.shard_nics):
            series[f"shard{shard}.nic"] = tuple(nic.busy_timeline)
        for name, points in series.items():
            validate_timeline(points, where=f"{name} busy timeline")
        return series

    def report(self, duration: float) -> CoordinatorSLO:
        """Roll the books up into a :class:`CoordinatorSLO` for ``duration``."""
        cpu_util = self.cpu.utilisation(duration)
        nic_util = self.nic.utilisation(duration)
        shard_utils = tuple(nic.utilisation(duration) for nic in self.shard_nics)
        warnings = []
        if cpu_util >= SATURATION_WARN:
            warnings.append(
                f"coordinator CPU utilisation {cpu_util:.0%} — "
                f"the coordinator is the bottleneck"
            )
        if nic_util >= SATURATION_WARN:
            warnings.append(
                f"coordinator NIC utilisation {nic_util:.0%} — "
                f"the fabric is the bottleneck"
            )
        for shard, util in enumerate(shard_utils):
            if util >= SATURATION_WARN:
                warnings.append(
                    f"shard {shard} NIC utilisation {util:.0%}"
                )
        warn_s = self.config.queue_delay_warn_s
        if self.cpu.max_queue_delay > warn_s:
            warnings.append(
                f"coordinator CPU queue delay peaked at "
                f"{self.cpu.max_queue_delay:.3f}s (warn threshold {warn_s:g}s)"
            )
        if self.nic.max_queue_delay > warn_s:
            warnings.append(
                f"coordinator NIC queue delay peaked at "
                f"{self.nic.max_queue_delay:.3f}s (warn threshold {warn_s:g}s)"
            )
        return CoordinatorSLO(
            cpu_utilisation=cpu_util,
            nic_utilisation=nic_util,
            shard_nic_utilisation=shard_utils,
            cpu_busy_s=self.cpu.busy_seconds,
            cpu_ops=self.cpu.charges,
            cpu_queue_delay_mean_s=self.cpu.mean_queue_delay,
            cpu_queue_delay_max_s=self.cpu.max_queue_delay,
            nic_messages=self.nic.messages,
            nic_bytes=self.nic.bytes_moved,
            nic_queue_delay_mean_s=self.nic.mean_queue_delay,
            nic_queue_delay_max_s=self.nic.max_queue_delay,
            warnings=tuple(warnings),
        )
