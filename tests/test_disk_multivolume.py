"""Tests for the multi-volume disk subsystem."""

import pytest

from repro.common.config import DiskConfig
from repro.common.units import MB
from repro.disk.model import DiskModel
from repro.disk.multivolume import MultiVolumeDisk
from repro.disk.request import IORequest
from repro.obs import FlightRecorder
from repro.storage.volumes import VolumeLayout


def disk_config(volumes=1, placement="striped"):
    return DiskConfig(
        bandwidth_bytes_per_s=100 * MB,
        avg_seek_s=0.01,
        sequential_seek_s=0.001,
        volumes=volumes,
        placement=placement,
    )


def multi(volumes=1, placement="striped", num_chunks=16):
    config = disk_config(volumes, placement)
    return MultiVolumeDisk(
        config, VolumeLayout.from_disk_config(config, num_chunks)
    )


class TestConstruction:
    def test_one_model_per_volume(self):
        disk = multi(volumes=4)
        assert disk.num_volumes == 4
        assert len(disk.volumes) == 4

    def test_rejects_mismatched_layout(self):
        config = disk_config(volumes=2)
        layout = VolumeLayout(num_chunks=8, num_volumes=4)
        with pytest.raises(ValueError):
            MultiVolumeDisk(config, layout)


class TestSingleVolumeEquivalence:
    def test_matches_bare_disk_model_exactly(self):
        """With one volume the subsystem is bit-for-bit a lone DiskModel."""
        requests = [
            IORequest(chunk=chunk, num_bytes=MB)
            for chunk in (0, 1, 2, 2, 7, 8, 3, 3, 4)
        ]
        single = DiskModel(disk_config())
        for placement in ("striped", "range"):
            disk = multi(volumes=1, placement=placement)
            durations = [disk.serve(request) for request in requests]
            reference = DiskModel(disk_config())
            expected = [reference.serve(request) for request in requests]
            assert durations == expected
            assert disk.requests_served == reference.requests_served
            assert disk.sequential_requests == reference.sequential_requests
            assert disk.bytes_transferred == reference.bytes_transferred
            assert disk.volumes[0].busy_time == reference.busy_time
        del single


class TestIndependentHeads:
    def test_striped_scan_is_sequential_on_every_volume(self):
        # A full table scan in chunk order: after each volume's first chunk,
        # every further access on that volume is to the adjacent local slot.
        disk = multi(volumes=4, num_chunks=16)
        for chunk in range(16):
            disk.serve(IORequest(chunk=chunk, num_bytes=MB))
        assert disk.requests_served == 16
        assert disk.sequential_requests == 12  # all but each volume's first
        for model in disk.volumes:
            assert model.requests_served == 4
            assert model.sequential_requests == 3

    def test_heads_do_not_disturb_each_other(self):
        disk = multi(volumes=2, num_chunks=8)
        # Volume 0 serves chunks 0, 2 (locals 0, 1: sequential); the
        # interleaved chunk 1 goes to volume 1 and must not break that.
        disk.serve(IORequest(chunk=0, num_bytes=MB))
        disk.serve(IORequest(chunk=1, num_bytes=MB))
        duration = disk.serve(IORequest(chunk=2, num_bytes=MB))
        assert duration == pytest.approx(0.001 + MB / (100 * MB))

    def test_range_placement_keeps_ranges_sequential(self):
        durations = []
        for chunk in (5, 7):
            disk = multi(volumes=2, placement="range", num_chunks=8)
            disk.serve(IORequest(chunk=4, num_bytes=MB))  # volume 1, local 0
            durations.append(disk.serve(IORequest(chunk=chunk, num_bytes=MB)))
        sequential, random = durations
        assert sequential < random

    def test_statistics_aggregate_over_volumes(self):
        disk = multi(volumes=2, num_chunks=8)
        for chunk in range(6):
            disk.serve(IORequest(chunk=chunk, num_bytes=MB))
        assert disk.requests_served == 6
        assert disk.bytes_transferred == 6 * MB
        assert 0.0 < disk.sequential_fraction() <= 1.0

    def test_per_volume_utilisation(self):
        disk = multi(volumes=2, num_chunks=8)
        disk.serve(IORequest(chunk=0, num_bytes=MB))  # volume 0 only
        utilisation = disk.per_volume_utilisation(elapsed=1.0)
        assert len(utilisation) == 2
        assert utilisation[0] > 0.0
        assert utilisation[1] == 0.0
        assert disk.utilisation(1.0) == pytest.approx(sum(utilisation) / 2)


class TestBandwidthScale:
    def test_half_bandwidth_doubles_the_transfer(self):
        disk = multi(volumes=2, num_chunks=8)
        disk.set_bandwidth_scale(0.5)
        duration = disk.serve(IORequest(chunk=0, num_bytes=MB))
        assert duration == pytest.approx(0.01 + MB / (50 * MB))
        assert all(
            model.config.bandwidth_bytes_per_s == 50 * MB for model in disk.volumes
        )

    def test_scale_one_restores_the_healthy_config(self):
        disk = multi(volumes=2, num_chunks=8)
        healthy = disk.config
        disk.set_bandwidth_scale(0.25)
        disk.set_bandwidth_scale(1.0)
        assert disk.config is healthy
        assert all(model.config is healthy for model in disk.volumes)

    def test_repeated_degrades_do_not_compound(self):
        disk = multi(volumes=1, num_chunks=8)
        disk.set_bandwidth_scale(0.5)
        disk.set_bandwidth_scale(0.5)
        assert disk.config.bandwidth_bytes_per_s == 50 * MB

    def test_only_future_serves_slow_down(self):
        disk = multi(volumes=1, num_chunks=8)
        first = disk.serve(IORequest(chunk=0, num_bytes=MB))
        busy = disk.volumes[0].busy_time
        disk.set_bandwidth_scale(0.5)
        assert disk.volumes[0].busy_time == busy
        second = disk.serve(IORequest(chunk=1, num_bytes=MB))
        assert second - 0.001 == pytest.approx(2 * (first - 0.01))

    @pytest.mark.parametrize("scale", [0.0, -0.5, float("nan")])
    def test_rejects_non_positive_scale(self, scale):
        disk = multi(volumes=2, num_chunks=8)
        with pytest.raises(ValueError, match="bandwidth scale"):
            disk.set_bandwidth_scale(scale)
        assert disk.config.bandwidth_bytes_per_s == 100 * MB


class TestRoutingAndIdleStatistics:
    def test_volume_of_follows_the_placement(self):
        striped = multi(volumes=4, placement="striped", num_chunks=8)
        assert [striped.volume_of(chunk) for chunk in range(8)] == [
            0, 1, 2, 3, 0, 1, 2, 3
        ]
        ranged = multi(volumes=2, placement="range", num_chunks=8)
        assert [ranged.volume_of(chunk) for chunk in range(8)] == [
            0, 0, 0, 0, 1, 1, 1, 1
        ]

    def test_idle_disk_reports_zeros(self):
        disk = multi(volumes=3, num_chunks=9)
        assert disk.requests_served == 0
        assert disk.sequential_fraction() == 0.0
        assert disk.utilisation(0.0) == 0.0
        assert disk.utilisation(5.0) == 0.0
        assert disk.per_volume_utilisation(5.0) == (0.0, 0.0, 0.0)


class TestObservability:
    def test_timestamped_serve_records_seek_and_transfer_spans(self):
        disk = multi(volumes=2, num_chunks=8)
        flight = FlightRecorder()
        disk.attach_observability(flight, process="shard1")
        disk.serve(IORequest(chunk=3, num_bytes=MB, triggered_by=9), now=2.0)
        seek, transfer = flight.events
        assert (seek.name, seek.pid, seek.tid) == ("disk.seek", "shard1", "vol1")
        assert seek.ts == 2.0
        assert seek.dur == pytest.approx(0.01)
        assert seek.args == {"chunk": 3, "sequential": False}
        assert transfer.name == "disk.transfer"
        assert transfer.ts == pytest.approx(2.01)
        assert transfer.dur == pytest.approx(MB / (100 * MB))
        assert transfer.args["triggered_by"] == 9

    def test_serve_without_timestamp_records_nothing(self):
        disk = multi(volumes=2, num_chunks=8)
        flight = FlightRecorder()
        disk.attach_observability(flight)
        disk.serve(IORequest(chunk=0, num_bytes=MB))
        assert flight.events == []
        assert disk.requests_served == 1
