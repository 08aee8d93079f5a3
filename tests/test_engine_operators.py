"""Tests for the in-memory engine: tables, expressions, operators."""

import numpy as np
import pytest

from repro.common.errors import EngineError
from repro.engine import (
    AggregateSpec,
    CScan,
    ColumnTable,
    HashAggregate,
    Scan,
    Select,
    col,
    collect,
)
from repro.engine.table import ChunkBatch


@pytest.fixture
def small_table() -> ColumnTable:
    rows = 1000
    return ColumnTable(
        "t",
        {
            "k": np.repeat(np.arange(100), 10),
            "v": np.arange(rows, dtype=float),
            "w": np.ones(rows),
        },
        tuples_per_chunk=128,
    )


class TestColumnTable:
    def test_chunk_count_and_bounds(self, small_table):
        assert small_table.num_chunks == 8
        assert small_table.chunk_bounds(0) == (0, 128)
        assert small_table.chunk_bounds(7) == (896, 1000)

    def test_read_chunk_columns(self, small_table):
        batch = small_table.read_chunk(1, columns=["v"])
        assert set(batch.columns) == {"v"}
        assert batch.num_rows == 128
        assert batch.start_row == 128

    def test_iter_chunks_custom_order(self, small_table):
        chunks = [batch.chunk for batch in small_table.iter_chunks([3, 0, 5])]
        assert chunks == [3, 0, 5]

    def test_invalid_chunk(self, small_table):
        with pytest.raises(EngineError):
            small_table.chunk_bounds(99)

    def test_unknown_column(self, small_table):
        with pytest.raises(EngineError):
            small_table.column("zzz")

    def test_ragged_columns_rejected(self):
        with pytest.raises(EngineError):
            ColumnTable("bad", {"a": np.arange(5), "b": np.arange(6)}, 10)

    def test_batch_filter(self, small_table):
        batch = small_table.read_chunk(0)
        filtered = batch.filter(np.asarray(batch.column("v")) < 10)
        assert filtered.num_rows == 10
        assert set(filtered.columns) == {"k", "v", "w"}

    def test_batch_filter_shape_mismatch(self, small_table):
        batch = small_table.read_chunk(0)
        with pytest.raises(EngineError):
            batch.filter(np.ones(3, dtype=bool))


class TestExpressions:
    def test_arithmetic(self, small_table):
        batch = small_table.read_chunk(0)
        result = (col("v") * col("w") * 2).evaluate(batch)
        assert result[5] == pytest.approx(10.0)

    def test_comparisons_and_boolean(self, small_table):
        batch = small_table.read_chunk(0)
        mask = ((col("v") >= 10) & (col("v") < 20)).evaluate(batch)
        assert mask.sum() == 10
        assert (col("v") <= 9).evaluate(batch).sum() == 10

    def test_wrap_rejects_strings(self):
        with pytest.raises(EngineError):
            col("a") * "nope"  # type: ignore[operator]


class TestOperators:
    def test_scan_covers_all_rows(self, small_table):
        total = sum(batch.num_rows for batch in Scan(small_table))
        assert total == 1000

    def test_scan_chunk_subset(self, small_table):
        rows = sum(batch.num_rows for batch in Scan(small_table, chunks=[0, 1]))
        assert rows == 256

    def test_scan_invalid_chunk(self, small_table):
        with pytest.raises(EngineError):
            Scan(small_table, chunks=[99])

    def test_cscan_requires_unique_chunks(self, small_table):
        with pytest.raises(EngineError):
            CScan(small_table, [0, 0])

    def test_cscan_out_of_order_same_data(self, small_table):
        in_order = collect(Scan(small_table, columns=["v"]))
        shuffled = collect(CScan(small_table, [7, 2, 0, 5, 1, 3, 6, 4], columns=["v"]))
        assert np.sort(in_order["v"]).tolist() == np.sort(shuffled["v"]).tolist()

    def test_select_filters_rows(self, small_table):
        out = collect(Select(Scan(small_table, columns=["v"]), col("v") < 100))
        assert len(out["v"]) == 100

    def test_select_drops_empty_batches(self, small_table):
        batches = list(Select(Scan(small_table, columns=["v"]), col("v") < 100))
        assert all(batch.num_rows > 0 for batch in batches)

    def test_hash_aggregate_global(self, small_table):
        agg = HashAggregate(
            Scan(small_table, columns=["v"]),
            keys=[],
            aggregates=[
                AggregateSpec("total", "sum", col("v")),
                AggregateSpec("rows", "count"),
                AggregateSpec("largest", "max", col("v")),
                AggregateSpec("smallest", "min", col("v")),
                AggregateSpec("mean", "avg", col("v")),
            ],
        )
        result = agg.result()[()]
        assert result["total"] == pytest.approx(np.arange(1000).sum())
        assert result["rows"] == 1000
        assert result["largest"] == 999
        assert result["smallest"] == 0
        assert result["mean"] == pytest.approx(499.5)

    def test_hash_aggregate_grouped(self, small_table):
        agg = HashAggregate(
            Scan(small_table, columns=["k", "w"]),
            keys=["k"],
            aggregates=[AggregateSpec("n", "sum", col("w"))],
        )
        result = agg.result()
        assert len(result) == 100
        assert all(value["n"] == pytest.approx(10.0) for value in result.values())

    def test_hash_aggregate_independent_of_order(self, small_table):
        def build(scan):
            return HashAggregate(
                scan, keys=["k"], aggregates=[AggregateSpec("s", "sum", col("v"))]
            ).result()

        ordered = build(Scan(small_table, columns=["k", "v"]))
        shuffled = build(CScan(small_table, [4, 1, 7, 0, 2, 6, 3, 5], columns=["k", "v"]))
        assert ordered == shuffled

    def test_aggregate_spec_validation(self):
        with pytest.raises(EngineError):
            AggregateSpec("x", "median", col("v"))
        with pytest.raises(EngineError):
            AggregateSpec("x", "sum")

    def test_hash_aggregate_is_not_iterable(self, small_table):
        agg = HashAggregate(
            Scan(small_table), keys=[], aggregates=[AggregateSpec("n", "count")]
        )
        with pytest.raises(EngineError):
            iter(agg)
