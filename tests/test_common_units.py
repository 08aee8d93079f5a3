"""Tests for repro.common.units."""

import pytest

from repro.common.units import GB, KB, MB, ceil_div


class TestCeilDiv:
    def test_exact_division(self):
        assert ceil_div(9, 3) == 3

    def test_rounds_up(self):
        assert ceil_div(10, 3) == 4

    def test_one_item(self):
        assert ceil_div(1, 100) == 1

    def test_zero_numerator(self):
        assert ceil_div(0, 5) == 0

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(10, 0)

    def test_rejects_negative_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(10, -1)

    def test_negative_numerator_rounds_up(self):
        assert ceil_div(-7, 2) == -3

    def test_pages_per_paper_chunk(self):
        # 16 MB chunks of 256 KB pages, plus one partial page.
        assert ceil_div(16 * MB, 256 * KB) == 64
        assert ceil_div(16 * MB + 1, 256 * KB) == 65


class TestUnits:
    def test_kb_mb_gb_relationship(self):
        assert MB == 1024 * KB
        assert GB == 1024 * MB

    def test_units_are_byte_counts(self):
        assert KB == 1024
        assert GB == 2**30
