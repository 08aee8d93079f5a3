"""Tests for ScanRequest and CScanHandle."""

import dataclasses

import pytest

from repro.common.config import DEFAULT_QUERY_CLASS
from repro.common.errors import SchedulingError
from repro.core.cscan import CScanHandle, ScanRequest


class TestScanRequest:
    def test_valid_request(self):
        request = ScanRequest(1, "F-10", chunks=(0, 1, 2), cpu_per_chunk=0.1)
        assert request.num_chunks == 3

    def test_rejects_empty(self):
        with pytest.raises(SchedulingError):
            ScanRequest(1, "empty", chunks=())

    def test_rejects_duplicates(self):
        with pytest.raises(SchedulingError):
            ScanRequest(1, "dup", chunks=(1, 1, 2))

    def test_rejects_unsorted(self):
        with pytest.raises(SchedulingError):
            ScanRequest(1, "uns", chunks=(2, 1))

    def test_rejects_negative_chunk(self):
        with pytest.raises(SchedulingError):
            ScanRequest(1, "neg", chunks=(-1, 0))

    def test_rejects_duplicate_columns(self):
        # Duplicate columns would double-count missing blocks in the DSM
        # interest tracker (one decrement per loaded block, but one increment
        # per occurrence), diverging from the naive set-based walks.
        with pytest.raises(SchedulingError):
            ScanRequest(1, "dupcol", chunks=(0, 1), columns=("a", "a"))

    def test_rejects_negative_cpu(self):
        with pytest.raises(SchedulingError):
            ScanRequest(1, "cpu", chunks=(0,), cpu_per_chunk=-1.0)

    def test_union_of_ranges_is_accepted(self):
        # A zone-map scan announces several non-contiguous chunk ranges.
        request = ScanRequest(1, "zm", chunks=(0, 1, 2, 7, 8, 15))
        assert request.num_chunks == 6
        assert request.chunks == (0, 1, 2, 7, 8, 15)

    def test_defaults(self):
        request = ScanRequest(1, "F-10", chunks=(3,))
        assert request.columns == ()
        assert request.cpu_per_chunk == 0.0
        assert request.query_class == DEFAULT_QUERY_CLASS

    def test_rejects_empty_query_class(self):
        with pytest.raises(SchedulingError):
            ScanRequest(1, "cls", chunks=(0,), query_class="")

    def test_is_immutable(self):
        request = ScanRequest(1, "F-10", chunks=(0, 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.chunks = (2,)


class TestCScanHandle:
    def make_handle(self) -> CScanHandle:
        return CScanHandle(ScanRequest(7, "F-10", chunks=(2, 3, 4)), now=10.0)

    def test_initial_state(self):
        handle = self.make_handle()
        assert handle.chunks_needed == 3
        assert handle.request.num_chunks == 3
        assert not handle.is_processing
        assert not handle.is_blocked
        assert not handle.finished
        assert handle.is_interested(3)
        assert not handle.is_interested(9)

    def test_start_and_finish_chunk(self):
        handle = self.make_handle()
        handle.start_chunk(3, now=11.0)
        assert handle.is_processing
        assert handle.current_chunk == 3
        assert handle.chunks_needed == 3  # still counted until finished
        finished = handle.finish_chunk(now=12.0)
        assert finished == 3
        assert handle.chunks_needed == 2
        assert 3 in handle.consumed
        assert not handle.finished

    def test_finishing_all_chunks_completes_query(self):
        handle = self.make_handle()
        for chunk in (2, 3, 4):
            handle.start_chunk(chunk, now=0.0)
            handle.finish_chunk(now=0.0)
        assert handle.finished
        assert handle.delivery_order == [2, 3, 4]

    def test_out_of_order_delivery_is_fine(self):
        handle = self.make_handle()
        for chunk in (4, 2, 3):
            handle.start_chunk(chunk, now=0.0)
            handle.finish_chunk(now=0.0)
        assert handle.finished
        assert handle.delivery_order == [4, 2, 3]

    def test_cannot_start_unneeded_chunk(self):
        handle = self.make_handle()
        with pytest.raises(SchedulingError):
            handle.start_chunk(9, now=0.0)

    def test_cannot_start_while_processing(self):
        handle = self.make_handle()
        handle.start_chunk(2, now=0.0)
        with pytest.raises(SchedulingError):
            handle.start_chunk(3, now=0.0)

    def test_cannot_finish_without_start(self):
        with pytest.raises(SchedulingError):
            self.make_handle().finish_chunk(now=0.0)

    def test_cannot_restart_consumed_chunk(self):
        handle = self.make_handle()
        handle.start_chunk(2, now=0.0)
        handle.finish_chunk(now=0.0)
        with pytest.raises(SchedulingError):
            handle.start_chunk(2, now=1.0)

    def test_waiting_time(self):
        handle = self.make_handle()
        assert handle.waiting_time(now=15.0) == pytest.approx(5.0)
        handle.start_chunk(2, now=20.0)
        assert handle.waiting_time(now=22.0) == pytest.approx(2.0)

    def test_blocked_tracking(self):
        handle = self.make_handle()
        handle.mark_blocked(now=12.0)
        assert handle.is_blocked
        assert handle.blocked_since == 12.0
        handle.mark_blocked(now=15.0)
        assert handle.blocked_since == 12.0  # first block time preserved
        handle.start_chunk(2, now=16.0)
        assert not handle.is_blocked
