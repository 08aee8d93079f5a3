"""Tests for NSM and DSM physical layouts."""

import pytest

from repro.common.config import BufferConfig
from repro.common.errors import StorageError
from repro.common.units import KB, MB
from repro.storage.dsm import DSMTableLayout
from repro.storage.nsm import NSMTableLayout
from repro.storage.schema import ColumnSpec, DataType, TableSchema


class TestNSMLayout:
    def test_tuples_per_chunk(self, nsm_layout):
        assert nsm_layout.tuples_per_chunk == nsm_layout.chunk_bytes // 32

    def test_num_chunks(self, nsm_layout):
        assert nsm_layout.num_chunks == 32

    def test_chunk_tuple_ranges_cover_table(self, nsm_layout):
        covered = 0
        for chunk in nsm_layout.all_chunks():
            first, last = nsm_layout.chunk_tuple_range(chunk)
            assert first == covered
            covered = last
        assert covered == nsm_layout.num_tuples

    def test_last_chunk_may_be_partial(self, tiny_schema, small_config):
        layout = NSMTableLayout.from_buffer_config(
            tiny_schema, 100_001, small_config.buffer
        )
        last = layout.num_chunks - 1
        assert layout.chunk_tuple_count(last) <= layout.tuples_per_chunk
        assert layout.chunk_size_bytes(last) <= layout.chunk_bytes

    def test_chunk_out_of_range_raises(self, nsm_layout):
        with pytest.raises(StorageError):
            nsm_layout.chunk_tuple_range(nsm_layout.num_chunks)

    def test_rejects_tuple_larger_than_chunk(self):
        fat = TableSchema.build("fat", [ColumnSpec("s", DataType.STR256)] * 1)
        with pytest.raises(StorageError):
            NSMTableLayout(schema=fat, num_tuples=10, chunk_bytes=128, page_bytes=64)

    def test_total_bytes_close_to_tuple_volume(self, nsm_layout):
        expected = nsm_layout.num_tuples * nsm_layout.tuple_bytes
        assert nsm_layout.total_bytes == pytest.approx(expected, rel=0.01)

    def test_describe(self, nsm_layout):
        info = nsm_layout.describe()
        assert info["num_chunks"] == nsm_layout.num_chunks

    def test_from_buffer_config_takes_chunk_and_page_sizes(self, tiny_schema):
        buffer = BufferConfig(chunk_bytes=2 * MB, page_bytes=128 * KB)
        layout = NSMTableLayout.from_buffer_config(tiny_schema, 1000, buffer)
        assert (layout.chunk_bytes, layout.page_bytes) == (2 * MB, 128 * KB)
        assert layout.tuples_per_chunk == 2 * MB // 32

    def test_partial_last_chunk_is_sized_by_its_tuples(self, tiny_schema):
        layout = NSMTableLayout(
            schema=tiny_schema, num_tuples=10, chunk_bytes=128, page_bytes=64
        )
        assert layout.tuples_per_chunk == 4
        assert layout.num_chunks == 3
        assert [layout.chunk_tuple_count(c) for c in layout.all_chunks()] == [4, 4, 2]
        assert layout.chunk_size_bytes(2) == 64
        assert layout.total_bytes == 128 + 128 + 64

    def test_all_chunks_in_physical_order(self, nsm_layout):
        assert list(nsm_layout.all_chunks()) == list(range(nsm_layout.num_chunks))

    @pytest.mark.parametrize(
        "num_tuples, chunk_bytes, page_bytes",
        [(0, 128, 64), (10, 0, 64), (10, 128, 0), (10, 128, 48)],
    )
    def test_rejects_bad_geometry(self, tiny_schema, num_tuples, chunk_bytes, page_bytes):
        with pytest.raises(StorageError):
            NSMTableLayout(
                schema=tiny_schema, num_tuples=num_tuples,
                chunk_bytes=chunk_bytes, page_bytes=page_bytes,
            )


class TestDSMLayout:
    def test_num_chunks(self, dsm_layout):
        assert dsm_layout.num_chunks == 24

    def test_wide_columns_use_more_pages(self, dsm_layout):
        assert dsm_layout.column_total_pages("price") > dsm_layout.column_total_pages("key")

    def test_block_pages_positive(self, dsm_layout):
        for chunk in range(dsm_layout.num_chunks):
            for column in dsm_layout.schema.column_names:
                assert dsm_layout.block_pages(column, chunk) >= 1

    def test_column_pages_consistent_with_blocks(self, dsm_layout):
        # Summed block pages may double-count shared boundary pages but can
        # never be less than the column total.
        for column in dsm_layout.schema.column_names:
            summed = sum(
                dsm_layout.block_pages(column, chunk)
                for chunk in range(dsm_layout.num_chunks)
            )
            assert summed >= dsm_layout.column_total_pages(column)

    def test_blocks_cover_column_contiguously(self, dsm_layout):
        for column in ("key", "price"):
            previous_last = -1
            for chunk in range(dsm_layout.num_chunks):
                block = dsm_layout.block(column, chunk)
                assert block.first_page <= block.last_page
                # Adjacent chunks either continue on the next page or share
                # the boundary page.
                assert block.first_page in (previous_last, previous_last + 1)
                previous_last = block.last_page

    def test_narrow_column_blocks_share_pages(self, dsm_layout):
        # The 3-bit "key" column packs many chunks into one page, so most
        # chunk boundaries fall inside a page.
        shared = sum(
            dsm_layout.block("key", chunk).shares_first_page
            for chunk in range(1, dsm_layout.num_chunks)
        )
        assert shared > 0

    def test_chunk_pages_subset_smaller(self, dsm_layout):
        full = dsm_layout.chunk_pages(0, dsm_layout.schema.column_names)
        subset = dsm_layout.chunk_pages(0, ["key", "flag"])
        assert subset < full

    def test_with_target_chunk_bytes(self, dsm_schema):
        layout = DSMTableLayout.with_target_chunk_bytes(
            dsm_schema, num_tuples=1_000_000, target_chunk_bytes=1 * MB, page_bytes=64 * KB
        )
        # A full-width logical chunk should occupy roughly the target size.
        per_tuple = dsm_schema.tuple_physical_bytes
        assert layout.tuples_per_chunk == pytest.approx(1 * MB / per_tuple, rel=0.01)

    def test_chunk_tuple_range(self, dsm_layout):
        tuples_per_chunk = dsm_layout.tuples_per_chunk
        assert dsm_layout.chunk_tuple_range(3) == (
            3 * tuples_per_chunk, 4 * tuples_per_chunk
        )

    def test_average_pages_per_chunk(self, dsm_layout):
        avg = dsm_layout.average_pages_per_chunk("price")
        assert avg == pytest.approx(
            dsm_layout.column_total_pages("price") / dsm_layout.num_chunks
        )

    def test_invalid_chunk_raises(self, dsm_layout):
        with pytest.raises(StorageError):
            dsm_layout.chunk_tuple_range(dsm_layout.num_chunks)

    def test_describe_lists_columns(self, dsm_layout):
        info = dsm_layout.describe()
        assert set(info["columns"]) == set(dsm_layout.schema.column_names)
