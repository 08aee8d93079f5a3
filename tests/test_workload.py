"""Tests for workload generation: TPC-H tables, query families, streams, mixes."""

import numpy as np
import pytest

from repro.common.config import DEFAULT_QUERY_CLASS, PAPER_DSM_SYSTEM, PAPER_NSM_SYSTEM
from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.workload.mixes import SIZE_MIXES, SPEED_MIXES, all_mixes, mix_label, mix_templates
from repro.workload.queries import (
    Q1_COLUMNS,
    Q6_COLUMNS,
    QueryFamily,
    QueryTemplate,
    classed_templates,
    dsm_query_families,
    make_scan_request,
    nsm_query_families,
    standard_templates,
)
from repro.workload.streams import build_streams, build_uniform_streams
from repro.workload.synthetic import (
    overlap_query_sets,
    overlap_streams,
    ten_column_layout,
    ten_column_schema,
)
from repro.workload.tpch import (
    LINEITEM_TUPLES_PER_SF,
    generate_lineitem,
    lineitem_dsm_layout,
    lineitem_dsm_schema,
    lineitem_nsm_layout,
    lineitem_nsm_schema,
)


class TestLineitemSchemas:
    def test_nsm_tuple_width_matches_paper_footprint(self):
        schema = lineitem_nsm_schema()
        # SF-10 lineitem (60M tuples) should be "slightly over 4 GB".
        total_gb = 10 * LINEITEM_TUPLES_PER_SF * schema.tuple_logical_bytes / 2**30
        assert 3.5 < total_gb < 5.0

    def test_dsm_schema_is_much_narrower(self):
        nsm = lineitem_nsm_schema()
        dsm = lineitem_dsm_schema()
        assert dsm.tuple_physical_bytes < 0.5 * nsm.tuple_logical_bytes

    def test_nsm_layout_chunk_count_close_to_paper(self):
        layout = lineitem_nsm_layout(10.0, buffer=PAPER_NSM_SYSTEM.buffer)
        # The paper's SF-10 table is ~4 GB in 16 MB chunks: ~250-290 chunks.
        assert 240 <= layout.num_chunks <= 300

    def test_dsm_layout_has_more_tuples_per_chunk(self):
        layout = lineitem_dsm_layout(10.0, buffer=PAPER_DSM_SYSTEM.buffer)
        assert layout.tuples_per_chunk > 100_000


class TestLineitemData:
    def test_columns_and_length(self, lineitem_data):
        assert len(lineitem_data["l_orderkey"]) == 20_000
        for name in ("l_shipdate", "l_quantity", "l_discount", "l_extendedprice"):
            assert name in lineitem_data

    def test_orderkey_is_sorted(self, lineitem_data):
        keys = lineitem_data["l_orderkey"]
        assert np.all(np.diff(keys) >= 0)

    def test_shipdate_correlated_with_position(self, lineitem_data):
        dates = lineitem_data["l_shipdate"]
        positions = np.arange(len(dates))
        correlation = np.corrcoef(positions, dates)[0, 1]
        assert correlation > 0.9

    def test_distributions_in_expected_ranges(self, lineitem_data):
        assert lineitem_data["l_quantity"].min() >= 1
        assert lineitem_data["l_quantity"].max() <= 50
        assert lineitem_data["l_discount"].min() >= 0.0
        assert lineitem_data["l_discount"].max() <= 0.10 + 1e-9

    def test_deterministic_by_seed(self):
        first = generate_lineitem(1000, seed=5)
        second = generate_lineitem(1000, seed=5)
        assert np.array_equal(first["l_shipdate"], second["l_shipdate"])

    def test_rejects_zero_tuples(self):
        with pytest.raises(ValueError):
            generate_lineitem(0)


class TestQueryFamilies:
    def test_fast_is_io_bound_slow_is_cpu_bound(self):
        config = PAPER_NSM_SYSTEM
        fast, slow = nsm_query_families(config)
        io_per_chunk = config.chunk_load_time()
        assert fast.cpu_per_chunk < io_per_chunk
        assert slow.cpu_per_chunk > io_per_chunk

    def test_dsm_families_use_query_columns(self):
        config = PAPER_DSM_SYSTEM
        layout = lineitem_dsm_layout(1.0, buffer=config.buffer)
        fast, slow = dsm_query_families(layout, config)
        assert fast.columns == Q6_COLUMNS
        assert slow.columns == Q1_COLUMNS
        assert slow.cpu_per_chunk > fast.cpu_per_chunk

    def test_template_label(self):
        family = QueryFamily("F", 0.1)
        assert QueryTemplate(family, 10).label == "F-10"
        assert QueryTemplate(family, 1).label == "F-01"

    def test_template_rejects_bad_percent(self):
        family = QueryFamily("F", 0.1)
        with pytest.raises(ConfigurationError):
            QueryTemplate(family, 0)
        with pytest.raises(ConfigurationError):
            QueryTemplate(family, 150)

    def test_standard_templates(self):
        fast, slow = QueryFamily("F", 0.1), QueryFamily("S", 0.2)
        templates = standard_templates(fast, slow)
        assert len(templates) == 8
        assert {template.label for template in templates} == {
            "F-01", "F-10", "F-50", "F-100", "S-01", "S-10", "S-50", "S-100",
        }


class TestScanRequests:
    def test_request_span_matches_percentage(self, nsm_layout):
        family = QueryFamily("F", 0.1)
        rng = make_rng(0)
        request = make_scan_request(QueryTemplate(family, 50), 1, nsm_layout, rng)
        assert request.num_chunks == round(0.5 * nsm_layout.num_chunks)
        chunks = request.chunks
        assert chunks == tuple(range(chunks[0], chunks[0] + len(chunks)))

    def test_full_scan_covers_whole_table(self, nsm_layout):
        family = QueryFamily("S", 0.1)
        request = make_scan_request(
            QueryTemplate(family, 100), 1, nsm_layout, make_rng(0)
        )
        assert request.chunks == tuple(range(nsm_layout.num_chunks))

    def test_random_location_varies(self, nsm_layout):
        family = QueryFamily("F", 0.1)
        rng = make_rng(3)
        starts = {
            make_scan_request(QueryTemplate(family, 10), i, nsm_layout, rng).chunks[0]
            for i in range(20)
        }
        assert len(starts) > 1

    def test_columns_default_to_family(self, dsm_layout):
        family = QueryFamily("F", 0.1, columns=("key", "price"))
        request = make_scan_request(QueryTemplate(family, 10), 1, dsm_layout, make_rng(0))
        assert request.columns == ("key", "price")

    def test_explicit_columns_override(self, dsm_layout):
        family = QueryFamily("F", 0.1, columns=("key",))
        request = make_scan_request(
            QueryTemplate(family, 10), 1, dsm_layout, make_rng(0), columns=("flag",)
        )
        assert request.columns == ("flag",)

    def test_tiny_percentage_reads_at_least_one_chunk(self, nsm_layout):
        family = QueryFamily("F", 0.1)
        request = make_scan_request(
            QueryTemplate(family, 0.01), 1, nsm_layout, make_rng(0)
        )
        assert request.num_chunks == 1

    def test_request_carries_family_cost_and_class(self, nsm_layout):
        family = QueryFamily("S", 0.25, query_class="batch")
        request = make_scan_request(QueryTemplate(family, 10), 9, nsm_layout, make_rng(0))
        assert request.query_id == 9
        assert request.name == "S-10"
        assert request.cpu_per_chunk == 0.25
        assert request.query_class == "batch"

    def test_classed_templates_only_change_the_class(self):
        fast, slow = QueryFamily("F", 0.1), QueryFamily("S", 0.2)
        templates = standard_templates(fast, slow)
        classed = classed_templates(templates, "interactive")
        assert [t.label for t in classed] == [t.label for t in templates]
        assert [t.family.cpu_per_chunk for t in classed] == [
            t.family.cpu_per_chunk for t in templates
        ]
        assert {t.family.query_class for t in classed} == {"interactive"}
        assert {t.family.query_class for t in templates} == {DEFAULT_QUERY_CLASS}

    def test_query_family_validation(self):
        with pytest.raises(ConfigurationError):
            QueryFamily("", 0.1)
        with pytest.raises(ConfigurationError):
            QueryFamily("F", -0.1)
        with pytest.raises(ConfigurationError):
            QueryFamily("F", 0.1, query_class="")


class TestStreams:
    def test_build_streams_shape_and_unique_ids(self, nsm_layout):
        fast, slow = QueryFamily("F", 0.1), QueryFamily("S", 0.2)
        templates = standard_templates(fast, slow)
        streams = build_streams(templates, nsm_layout, num_streams=4, queries_per_stream=3, seed=1)
        assert len(streams) == 4
        assert all(len(stream) == 3 for stream in streams)
        ids = [spec.query_id for stream in streams for spec in stream]
        assert len(set(ids)) == len(ids)

    def test_build_streams_deterministic(self, nsm_layout):
        fast, slow = QueryFamily("F", 0.1), QueryFamily("S", 0.2)
        templates = standard_templates(fast, slow)
        first = build_streams(templates, nsm_layout, 2, 2, seed=9)
        second = build_streams(templates, nsm_layout, 2, 2, seed=9)
        assert [[q.chunks for q in s] for s in first] == [
            [q.chunks for q in s] for s in second
        ]

    def test_build_streams_validation(self, nsm_layout):
        with pytest.raises(ConfigurationError):
            build_streams([], nsm_layout, 2, 2)
        fast = QueryFamily("F", 0.1)
        with pytest.raises(ConfigurationError):
            build_streams([QueryTemplate(fast, 10)], nsm_layout, 0, 2)

    def test_uniform_streams(self, nsm_layout):
        fast = QueryFamily("F", 0.1)
        streams = build_uniform_streams(QueryTemplate(fast, 20), nsm_layout, 8, seed=2)
        assert len(streams) == 8
        assert all(len(stream) == 1 for stream in streams)
        assert all(stream[0].name == "F-20" for stream in streams)


class TestMixes:
    def test_all_mixes_count(self):
        assert len(all_mixes()) == len(SPEED_MIXES) * len(SIZE_MIXES) == 15

    def test_mix_templates_composition(self):
        fast, slow = QueryFamily("F", 0.1), QueryFamily("S", 0.2)
        templates = mix_templates("FFS", "S", fast, slow)
        assert len(templates) == 3 * len(SIZE_MIXES["S"])
        fast_count = sum(1 for t in templates if t.family.name == "F")
        slow_count = sum(1 for t in templates if t.family.name == "S")
        assert fast_count == 2 * slow_count

    def test_mix_label(self):
        assert mix_label("SF", "M") == "SF-M"

    def test_unknown_mix_raises(self):
        fast, slow = QueryFamily("F", 0.1), QueryFamily("S", 0.2)
        with pytest.raises(ConfigurationError):
            mix_templates("XX", "M", fast, slow)
        with pytest.raises(ConfigurationError):
            mix_templates("SF", "XL", fast, slow)


class TestSynthetic:
    def test_schema_has_ten_8byte_columns(self):
        schema = ten_column_schema()
        assert len(schema.columns) == 10
        assert all(spec.physical_bytes == 8.0 for spec in schema.columns)

    def test_overlap_query_sets_match_paper(self):
        sets = overlap_query_sets()
        assert set(sets) == {
            "ABC", "ABC,DEF", "ABC,BCD", "ABC,BCD,CDE", "ABC,BCD,CDE,DEF",
        }
        assert sets["ABC,BCD"] == [("A", "B", "C"), ("B", "C", "D")]

    def test_overlap_streams_rotation_and_fraction(self):
        layout = ten_column_layout(num_tuples=200_000, tuples_per_chunk=10_000, page_bytes=8192)
        streams = overlap_streams(
            [("A", "B", "C"), ("D", "E", "F")], layout, num_streams=2,
            queries_per_stream=2, scan_fraction=0.4, seed=0,
        )
        specs = [spec for stream in streams for spec in stream]
        assert [spec.columns for spec in specs] == [
            ("A", "B", "C"), ("D", "E", "F"), ("A", "B", "C"), ("D", "E", "F"),
        ]
        expected_span = round(0.4 * layout.num_chunks)
        assert all(spec.num_chunks == expected_span for spec in specs)

    def test_overlap_streams_validation(self):
        layout = ten_column_layout(num_tuples=10_000, tuples_per_chunk=1_000, page_bytes=8192)
        with pytest.raises(ConfigurationError):
            overlap_streams([], layout, 1, 1)
        with pytest.raises(ConfigurationError):
            overlap_streams([("A",)], layout, 1, 1, scan_fraction=0.0)
