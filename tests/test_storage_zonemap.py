"""Tests for zone maps."""

import numpy as np
import pytest

from repro.common.errors import StorageError
from repro.storage.zonemap import ZoneMap, build_zonemap


class TestZoneMap:
    def test_build_from_sorted_column(self):
        values = np.arange(1000)
        zonemap = build_zonemap("x", values, tuples_per_chunk=100)
        assert zonemap.num_chunks == 10
        assert zonemap.minima[0] == 0
        assert zonemap.maxima[-1] == 999

    def test_range_on_sorted_column_is_contiguous(self):
        zonemap = build_zonemap("x", np.arange(1000), tuples_per_chunk=100)
        assert zonemap.chunks_for_range(250, 449) == [2, 3, 4]

    def test_range_on_correlated_column_skips_chunks(self):
        # A noisy but increasing column: zone maps prune most chunks.
        rng = np.random.default_rng(0)
        values = np.arange(1000) + rng.integers(0, 50, size=1000)
        zonemap = build_zonemap("x", values.astype(float), tuples_per_chunk=100)
        selected = zonemap.chunks_for_range(500, 520)
        assert 0 < len(selected) < zonemap.num_chunks

    def test_uncorrelated_column_selects_everything(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 1000, size=1000)
        zonemap = build_zonemap("x", values, tuples_per_chunk=100)
        assert zonemap.chunks_for_range(400, 600) == list(range(10))

    def test_empty_range(self):
        zonemap = build_zonemap("x", np.arange(100), tuples_per_chunk=10)
        assert zonemap.chunks_for_range(50, 40) == []

    def test_validation_min_greater_than_max(self):
        with pytest.raises(StorageError):
            ZoneMap("x", minima=(5.0,), maxima=(1.0,))

    def test_validation_length_mismatch(self):
        with pytest.raises(StorageError):
            ZoneMap("x", minima=(1.0, 2.0), maxima=(3.0,))

    def test_build_rejects_empty(self):
        with pytest.raises(StorageError):
            build_zonemap("x", np.array([]), tuples_per_chunk=10)

    def test_build_rejects_bad_chunk_size(self):
        with pytest.raises(StorageError):
            build_zonemap("x", np.arange(10), tuples_per_chunk=0)

    def test_partial_last_chunk(self):
        zonemap = build_zonemap("x", np.arange(25), tuples_per_chunk=10)
        assert zonemap.num_chunks == 3
        assert (zonemap.minima[-1], zonemap.maxima[-1]) == (20.0, 24.0)

    def test_range_bounds_are_inclusive(self):
        zonemap = build_zonemap("x", np.arange(100), tuples_per_chunk=10)
        # 19 is the max of chunk 1 and 40 the min of chunk 4.
        assert zonemap.chunks_for_range(19, 40) == [1, 2, 3, 4]

    def test_point_range_selects_one_chunk(self):
        zonemap = build_zonemap("x", np.arange(100), tuples_per_chunk=10)
        assert zonemap.chunks_for_range(57, 57) == [5]

    def test_range_outside_domain_selects_nothing(self):
        zonemap = build_zonemap("x", np.arange(100), tuples_per_chunk=10)
        assert zonemap.chunks_for_range(100, 200) == []
        assert zonemap.chunks_for_range(-50, -1) == []
        assert zonemap.chunks_for_range(0, 99) == list(range(10))

    def test_build_rejects_multidimensional_values(self):
        with pytest.raises(StorageError):
            build_zonemap("x", np.zeros((4, 2)), tuples_per_chunk=2)

    def test_validation_requires_a_chunk(self):
        with pytest.raises(StorageError):
            ZoneMap("x", minima=(), maxima=())

    def test_chunk_larger_than_column_gives_one_entry(self):
        zonemap = build_zonemap("x", np.array([7.0, -2.0, 3.0]), tuples_per_chunk=10)
        assert zonemap.num_chunks == 1
        assert (zonemap.minima, zonemap.maxima) == ((-2.0,), (7.0,))

    def test_range_in_a_gap_between_chunks_selects_nothing(self):
        zonemap = ZoneMap("x", minima=(0.0, 10.0), maxima=(4.0, 14.0))
        assert zonemap.chunks_for_range(5.0, 9.0) == []
        assert zonemap.chunks_for_range(4.5, 10.0) == [1]
