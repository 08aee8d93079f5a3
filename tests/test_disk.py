"""Tests for the disk model, I/O requests and traces."""

import pytest

from repro.common.config import DiskConfig
from repro.common.errors import SimulationError
from repro.common.units import MB
from repro.disk.model import DiskModel
from repro.disk.request import IORequest, RequestKind
from repro.disk.trace import IOTrace


class TestIORequest:
    def test_valid_request(self):
        request = IORequest(chunk=3, num_bytes=16 * MB)
        assert request.kind is RequestKind.NSM_CHUNK

    def test_rejects_negative_chunk(self):
        with pytest.raises(ValueError):
            IORequest(chunk=-1, num_bytes=10)

    def test_rejects_zero_bytes(self):
        with pytest.raises(ValueError):
            IORequest(chunk=0, num_bytes=0)

    def test_column_block_carries_its_column(self):
        request = IORequest(
            chunk=2, num_bytes=1024, kind=RequestKind.DSM_COLUMN_BLOCK,
            column="price", triggered_by=7,
        )
        assert request.kind is RequestKind.DSM_COLUMN_BLOCK
        assert request.column == "price"
        assert request.triggered_by == 7
        assert IORequest(chunk=2, num_bytes=1024).column is None


class TestDiskModel:
    def make_disk(self) -> DiskModel:
        return DiskModel(
            DiskConfig(bandwidth_bytes_per_s=100 * MB, avg_seek_s=0.01, sequential_seek_s=0.001)
        )

    def test_service_time_transfer_component(self):
        disk = self.make_disk()
        seek, transfer = disk.service_segments(IORequest(chunk=0, num_bytes=100 * MB))
        assert (seek, transfer) == pytest.approx((0.01, 1.0))

    def test_sequential_access_cheaper(self):
        disk = self.make_disk()
        disk.serve(IORequest(chunk=4, num_bytes=MB))
        sequential = sum(disk.service_segments(IORequest(chunk=5, num_bytes=MB)))
        random = sum(disk.service_segments(IORequest(chunk=9, num_bytes=MB)))
        assert sequential < random

    def test_same_chunk_reread_is_sequential(self):
        # Back-to-back requests for the *same* chunk (consecutive DSM column
        # blocks of one logical chunk) leave the head in place: they must pay
        # the track-to-track cost, not a full average seek.
        disk = self.make_disk()
        disk.serve(IORequest(chunk=4, num_bytes=MB))
        same = sum(disk.service_segments(IORequest(chunk=4, num_bytes=MB)))
        assert same == pytest.approx(0.001 + MB / (100 * MB))
        assert disk.is_sequential(4) and disk.is_sequential(5)
        assert not disk.is_sequential(6) and not disk.is_sequential(3)

    def test_first_request_pays_full_seek(self):
        disk = self.make_disk()
        assert not disk.is_sequential(0)
        duration = disk.serve(IORequest(chunk=0, num_bytes=MB))
        assert duration == pytest.approx(0.01 + MB / (100 * MB))

    def test_sequential_requests_counter(self):
        disk = self.make_disk()
        for chunk in (0, 1, 1, 5, 6):  # seq: 1 (next), 1 (same), 6 (next)
            disk.serve(IORequest(chunk=chunk, num_bytes=MB))
        assert disk.requests_served == 5
        assert disk.sequential_requests == 3

    def test_serve_accumulates_statistics(self):
        disk = self.make_disk()
        disk.serve(IORequest(chunk=0, num_bytes=MB))
        disk.serve(IORequest(chunk=1, num_bytes=MB))
        assert disk.requests_served == 2
        assert disk.bytes_transferred == 2 * MB
        assert disk.busy_time > 0

    def test_service_segments_do_not_mutate(self):
        disk = self.make_disk()
        request = IORequest(chunk=3, num_bytes=MB)
        assert disk.service_segments(request) == disk.service_segments(request)
        assert disk.requests_served == 0
        assert disk.last_chunk is None
        assert disk.busy_time == 0.0

    def test_serve_remembers_its_seek(self):
        disk = self.make_disk()
        disk.serve(IORequest(chunk=0, num_bytes=MB))
        assert disk.last_seek_s == pytest.approx(0.01)
        disk.serve(IORequest(chunk=1, num_bytes=MB))
        assert disk.last_seek_s == pytest.approx(0.001)
        assert disk.last_chunk == 1

    def test_utilisation_of_non_positive_elapsed_is_zero(self):
        disk = self.make_disk()
        disk.serve(IORequest(chunk=0, num_bytes=MB))
        assert disk.utilisation(0.0) == 0.0
        assert disk.utilisation(-1.0) == 0.0

    def test_utilisation_bounded(self):
        disk = self.make_disk()
        disk.serve(IORequest(chunk=0, num_bytes=MB))
        assert 0.0 < disk.utilisation(elapsed=100.0) <= 1.0
        assert disk.utilisation(elapsed=0.0) == 0.0

    def test_utilisation_overshoot_raises_instead_of_clamping(self):
        # Busy time beyond the elapsed wall clock means the caller
        # double-counted service time; the old silent clamp to 1.0 hid that.
        disk = self.make_disk()
        disk.serve(IORequest(chunk=0, num_bytes=100 * MB))  # ~1.01 s busy
        with pytest.raises(SimulationError):
            disk.utilisation(elapsed=0.5)

    def test_utilisation_tolerates_float_noise(self):
        disk = self.make_disk()
        disk.serve(IORequest(chunk=0, num_bytes=100 * MB))
        elapsed = disk.busy_time * (1.0 - 1e-12)
        assert disk.utilisation(elapsed) == pytest.approx(1.0)


class TestIOTrace:
    def build_trace(self) -> IOTrace:
        trace = IOTrace()
        for index, chunk in enumerate([0, 1, 2, 10, 11, 3, 0]):
            trace.record(time=float(index), chunk=chunk, num_bytes=MB, triggered_by=1)
        return trace

    def test_len_and_total_bytes(self):
        trace = self.build_trace()
        assert len(trace) == 7
        assert sum(event.num_bytes for event in trace) == 7 * MB

    def test_sequential_fraction(self):
        trace = self.build_trace()
        # transitions: 0->1 seq, 1->2 seq, 2->10 no, 10->11 seq, 11->3 no, 3->0 no
        assert trace.sequential_fraction() == pytest.approx(3 / 6)

    def test_empty_trace(self):
        trace = IOTrace()
        assert trace.sequential_fraction() == 1.0
        assert len(trace) == 0
        assert trace.render_ascii(10) == "(empty trace)"

    def test_rereads(self):
        trace = self.build_trace()
        assert trace.reread_count() == 1

    def test_concurrent_fronts_single_scan(self):
        trace = IOTrace()
        for index in range(32):
            trace.record(time=float(index), chunk=index, num_bytes=MB)
        assert trace.concurrent_fronts(window=8) == pytest.approx(1.0)

    def test_concurrent_fronts_interleaved_scans(self):
        trace = IOTrace()
        time = 0.0
        for index in range(16):
            trace.record(time=time, chunk=index, num_bytes=MB)
            time += 1.0
            trace.record(time=time, chunk=100 + index, num_bytes=MB)
            time += 1.0
        assert trace.concurrent_fronts(window=8) > 2.0

    def test_record_keeps_attribution(self):
        trace = IOTrace()
        trace.record(time=0.5, chunk=4, num_bytes=MB, triggered_by=3, column="price")
        (event,) = trace
        assert (event.time, event.chunk, event.num_bytes) == (0.5, 4, MB)
        assert event.triggered_by == 3
        assert event.column == "price"

    def test_concurrent_fronts_on_short_traces(self):
        trace = IOTrace()
        trace.record(time=0.0, chunk=5, num_bytes=MB)
        assert trace.concurrent_fronts(window=8) == 1.0
        # Shorter than one window: no window to count, so one front.
        for index, chunk in enumerate([9, 2, 7]):
            trace.record(time=float(index + 1), chunk=chunk, num_bytes=MB)
        assert trace.concurrent_fronts(window=8) == 1.0

    def test_render_ascii_plots_corner_events(self):
        trace = IOTrace()
        trace.record(time=0.0, chunk=0, num_bytes=MB)
        trace.record(time=2.0, chunk=9, num_bytes=MB)
        lines = trace.render_ascii(num_chunks=10, width=5, height=4).splitlines()
        assert lines[0] == "chunk 0..9 (y) over time 0..2.0s (x)"
        # Chunk 0 at time 0 is bottom-left; chunk 9 at the end is top-right.
        assert lines[1:] == ["    *", "     ", "     ", "*    "]

    def test_render_ascii_dimensions(self):
        art = self.build_trace().render_ascii(num_chunks=12, width=40, height=10)
        lines = art.splitlines()
        assert len(lines) == 11  # header + 10 rows
        assert all(len(line) == 40 for line in lines[1:])
