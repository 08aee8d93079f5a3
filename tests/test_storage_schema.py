"""Tests for repro.storage.schema and repro.storage.compression."""

import pytest

from repro.common.errors import StorageError
from repro.storage.compression import (
    NONE,
    PDICT,
    PFOR,
    PFOR_DELTA,
    CompressionScheme,
    physical_bits_per_value,
)
from repro.storage.schema import ColumnSpec, DataType, TableSchema


class TestDataType:
    def test_bits_and_bytes(self):
        assert DataType.INT64.bits == 64
        assert DataType.INT64.bytes == 8.0

    def test_string_widths(self):
        assert DataType.STR256.bytes == 256.0


class TestCompression:
    def test_none_preserves_width(self):
        assert NONE.compressed_bits(64) == 64

    def test_pfor_delta_compresses_hard(self):
        assert PFOR_DELTA.compressed_bits(64) == 3

    def test_pfor_matches_paper_figure9(self):
        assert PFOR.compressed_bits(64) == 21

    def test_pdict_char(self):
        assert PDICT.compressed_bits(8) == 2

    def test_minimum_one_bit(self):
        assert PFOR_DELTA.compressed_bits(8) >= 1

    def test_rejects_invalid_ratio(self):
        with pytest.raises(StorageError):
            CompressionScheme("bogus", 0.0)

    def test_physical_bits_rejects_zero(self):
        with pytest.raises(StorageError):
            physical_bits_per_value(0, PFOR)

    def test_physical_bits_per_value_uses_the_scheme(self):
        for scheme in (NONE, PFOR, PFOR_DELTA, PDICT):
            assert physical_bits_per_value(64, scheme) == scheme.compressed_bits(64)

    def test_paper_schemes_order_by_ratio(self):
        ratios = [scheme.default_ratio for scheme in (PFOR_DELTA, PDICT, PFOR, NONE)]
        assert ratios == sorted(ratios)
        assert NONE.default_ratio == 1.0

    def test_rejects_ratio_above_one(self):
        with pytest.raises(StorageError):
            CompressionScheme("expand", 1.5)


class TestColumnSpec:
    def test_physical_bits_without_compression(self):
        assert ColumnSpec("a", DataType.INT32).physical_bits == 32

    def test_physical_bits_with_compression(self):
        assert ColumnSpec("a", DataType.OID, PFOR).physical_bits == 21

    def test_explicit_override_wins(self):
        spec = ColumnSpec("a", DataType.OID, PFOR, compressed_bits=12)
        assert spec.physical_bits == 12

    def test_logical_bytes(self):
        assert ColumnSpec("a", DataType.DECIMAL).logical_bytes == 8.0

    def test_rejects_empty_name(self):
        with pytest.raises(StorageError):
            ColumnSpec("", DataType.INT32)

    def test_rejects_bad_override(self):
        with pytest.raises(StorageError):
            ColumnSpec("a", DataType.INT32, compressed_bits=0)


class TestTableSchema:
    def test_column_lookup(self, tiny_schema):
        assert tiny_schema.column("a").dtype is DataType.INT64

    def test_unknown_column_raises(self, tiny_schema):
        with pytest.raises(StorageError):
            tiny_schema.column("nope")

    def test_tuple_widths(self, tiny_schema):
        assert tiny_schema.tuple_logical_bytes == 32.0
        assert tiny_schema.tuple_physical_bytes == 32.0

    def test_compressed_tuple_narrower(self, dsm_schema):
        assert dsm_schema.tuple_physical_bytes < dsm_schema.tuple_logical_bytes

    def test_rejects_duplicate_columns(self):
        with pytest.raises(StorageError):
            TableSchema.build(
                "t", [ColumnSpec("x", DataType.INT32), ColumnSpec("x", DataType.INT64)]
            )

    def test_rejects_empty_schema(self):
        with pytest.raises(StorageError):
            TableSchema.build("t", [])

    def test_describe(self, tiny_schema):
        described = tiny_schema.describe()
        assert described["columns"] == 4

    def test_column_names_in_declaration_order(self, dsm_schema):
        assert dsm_schema.column_names == ["key", "ref", "price", "flag", "date"]

    def test_rejects_empty_table_name(self):
        with pytest.raises(StorageError):
            TableSchema.build("", [ColumnSpec("x", DataType.INT32)])

    def test_describe_reports_both_tuple_widths(self, dsm_schema):
        described = dsm_schema.describe()
        assert described["tuple_logical_bytes"] == dsm_schema.tuple_logical_bytes
        assert described["tuple_physical_bytes"] == dsm_schema.tuple_physical_bytes


class TestFractionalWidths:
    def test_physical_bytes_may_be_fractional(self):
        assert ColumnSpec("a", DataType.OID, PFOR).physical_bytes == 21 / 8

    def test_tuple_physical_bytes_sums_bits(self, dsm_schema):
        bits = sum(spec.physical_bits for spec in dsm_schema.columns)
        assert dsm_schema.tuple_physical_bytes == pytest.approx(bits / 8)
