"""Tests for the order-aware operators (ordered aggregation, merge joins) and
the cooperative session (Section 7.2)."""

import numpy as np
import pytest

from repro.common.errors import EngineError
from repro.core.cscan import ScanRequest
from repro.engine import (
    AggregateSpec,
    CScan,
    ColumnTable,
    CooperativeMergeJoin,
    HashAggregate,
    MergeJoin,
    OrderedAggregate,
    Scan,
    Session,
    build_join_index,
    col,
    collect,
)
from repro.workload.tpch import generate_lineitem


@pytest.fixture
def clustered_table() -> ColumnTable:
    """A table clustered on a key with groups spanning chunk boundaries."""
    rng = np.random.default_rng(11)
    keys = np.sort(rng.integers(0, 300, size=5000))
    return ColumnTable(
        "clustered",
        {"key": keys, "value": rng.uniform(0, 10, size=5000)},
        tuples_per_chunk=512,
    )


@pytest.fixture
def shuffled_order(clustered_table):
    rng = np.random.default_rng(5)
    return list(rng.permutation(clustered_table.num_chunks))


class TestOrderedAggregate:
    def aggregate(self, scan):
        return OrderedAggregate(
            scan,
            keys=["key"],
            aggregates=[
                AggregateSpec("total", "sum", col("value")),
                AggregateSpec("rows", "count"),
            ],
        )

    def reference(self, table):
        return HashAggregate(
            Scan(table, columns=["key", "value"]),
            keys=["key"],
            aggregates=[
                AggregateSpec("total", "sum", col("value")),
                AggregateSpec("rows", "count"),
            ],
        ).result()

    def test_in_order_matches_hash_aggregate(self, clustered_table):
        ordered = self.aggregate(Scan(clustered_table, columns=["key", "value"])).result()
        expected = self.reference(clustered_table)
        assert set(ordered) == {(key,) for key, in expected}
        for key, values in expected.items():
            assert ordered[key]["total"] == pytest.approx(values["total"])
            assert ordered[key]["rows"] == values["rows"]

    def test_out_of_order_matches_hash_aggregate(self, clustered_table, shuffled_order):
        operator = self.aggregate(
            CScan(clustered_table, shuffled_order, columns=["key", "value"])
        )
        ordered = operator.result()
        expected = self.reference(clustered_table)
        for key, values in expected.items():
            assert ordered[key]["total"] == pytest.approx(values["total"])
        # Border bookkeeping is bounded by the number of chunks.
        assert operator.max_pending_borders <= clustered_table.num_chunks

    def test_interior_groups_emitted_early(self, clustered_table, shuffled_order):
        operator = self.aggregate(
            CScan(clustered_table, shuffled_order, columns=["key", "value"])
        )
        operator.result()
        assert operator.interior_groups_emitted > 0

    def test_partial_chunk_set_with_gap(self, clustered_table):
        operator = self.aggregate(
            CScan(clustered_table, [0, 5], columns=["key", "value"])
        )
        result = operator.result()
        expected = HashAggregate(
            Scan(clustered_table, columns=["key", "value"], chunks=[0, 5]),
            keys=["key"],
            aggregates=[
                AggregateSpec("total", "sum", col("value")),
                AggregateSpec("rows", "count"),
            ],
        ).result()
        assert set(result) == set(expected)
        for key, values in expected.items():
            assert result[key]["total"] == pytest.approx(values["total"])

    def test_duplicate_chunk_rejected(self, clustered_table):
        operator = self.aggregate(
            clustered_table.iter_chunks([0, 0], columns=["key", "value"])
        )
        # Wrap the raw iterator in a tiny operator-like object.
        class _Wrapper:
            def __init__(self, batches):
                self._batches = list(batches)

            def __iter__(self):
                return iter(self._batches)

        wrapped = OrderedAggregate(
            _Wrapper(clustered_table.iter_chunks([0, 0], columns=["key", "value"])),
            keys=["key"],
            aggregates=[AggregateSpec("rows", "count")],
        )
        with pytest.raises(EngineError):
            wrapped.result()

    def test_validation(self, clustered_table):
        with pytest.raises(EngineError):
            OrderedAggregate(Scan(clustered_table), keys=[], aggregates=[AggregateSpec("n", "count")])
        with pytest.raises(EngineError):
            OrderedAggregate(Scan(clustered_table), keys=["key"], aggregates=[])


class TestMergeJoins:
    @pytest.fixture
    def tables(self):
        lineitem_data = generate_lineitem(8000, seed=2)
        lineitem = ColumnTable("lineitem", lineitem_data, tuples_per_chunk=1024)
        order_keys = np.unique(lineitem_data["l_orderkey"])
        orders = ColumnTable(
            "orders",
            {
                "o_orderkey": order_keys,
                "o_priority": np.arange(len(order_keys)) % 5,
            },
            tuples_per_chunk=1024,
        )
        return lineitem, orders

    def test_join_index_points_to_matching_rows(self, tables):
        lineitem, orders = tables
        index = build_join_index(lineitem.column("l_orderkey"), orders.column("o_orderkey"))
        assert np.array_equal(
            orders.column("o_orderkey")[index], lineitem.column("l_orderkey")
        )

    def test_join_index_validation(self):
        with pytest.raises(EngineError):
            build_join_index(np.array([1, 2]), np.array([2, 1]))  # unsorted inner
        with pytest.raises(EngineError):
            build_join_index(np.array([5]), np.array([1, 2, 3]))  # missing key

    def test_merge_join_matches_cooperative_join(self, tables):
        lineitem, orders = tables
        ordered = collect(
            MergeJoin(
                Scan(lineitem, columns=["l_orderkey", "l_quantity"]),
                orders,
                "l_orderkey",
                "o_orderkey",
                ["o_priority"],
            )
        )
        rng = np.random.default_rng(3)
        order = list(rng.permutation(lineitem.num_chunks))
        index = build_join_index(lineitem.column("l_orderkey"), orders.column("o_orderkey"))
        cooperative = collect(
            CooperativeMergeJoin(
                CScan(lineitem, order, columns=["l_orderkey", "l_quantity"]),
                orders,
                "l_orderkey",
                "o_orderkey",
                ["o_priority"],
                join_index=index,
            )
        )
        assert len(ordered["o_priority"]) == len(cooperative["o_priority"]) == 8000
        assert ordered["o_priority"].sum() == cooperative["o_priority"].sum()
        assert ordered["l_quantity"].sum() == pytest.approx(cooperative["l_quantity"].sum())

    def test_merge_join_rejects_out_of_order_input(self, tables):
        lineitem, orders = tables
        join = MergeJoin(
            CScan(lineitem, list(reversed(range(lineitem.num_chunks))),
                  columns=["l_orderkey"]),
            orders,
            "l_orderkey",
            "o_orderkey",
            ["o_priority"],
        )
        with pytest.raises(EngineError):
            collect(join)

    def test_cooperative_join_without_index_uses_search(self, tables):
        lineitem, orders = tables
        joined = collect(
            CooperativeMergeJoin(
                CScan(lineitem, [3, 0, 1, 2, 4, 5, 6, 7], columns=["l_orderkey"]),
                orders,
                "l_orderkey",
                "o_orderkey",
                ["o_priority"],
            )
        )
        assert len(joined["o_priority"]) == 8000


class TestSession:
    def test_register_and_scan(self, clustered_table):
        session = Session()
        session.register_table(clustered_table)
        rows = sum(batch.num_rows for batch in Scan(session.table("clustered")))
        assert rows == clustered_table.num_rows

    def test_duplicate_registration(self, clustered_table):
        session = Session()
        session.register_table(clustered_table)
        with pytest.raises(EngineError):
            session.register_table(clustered_table)

    def test_unknown_table(self):
        with pytest.raises(EngineError):
            Session().table("missing")

    def test_run_cooperative_shares_loads(self, clustered_table):
        session = Session()
        session.register_table(clustered_table)
        requests = [
            ScanRequest(0, "full", tuple(range(clustered_table.num_chunks))),
            ScanRequest(1, "half", tuple(range(clustered_table.num_chunks // 2))),
        ]
        run = session.run_cooperative("clustered", requests, policy="relevance",
                                      buffer_chunks=4)
        assert run.loads <= clustered_table.num_chunks
        assert run.sharing_factor > 1.0
        for request in requests:
            assert sorted(run.delivery_orders[request.query_id]) == sorted(request.chunks)

    def test_run_cooperative_results_match_plain_scan(self, clustered_table):
        session = Session()
        session.register_table(clustered_table)
        request = ScanRequest(0, "q", tuple(range(clustered_table.num_chunks)))
        run = session.run_cooperative("clustered", [request], policy="relevance",
                                      buffer_chunks=3)
        cooperative_sum = collect(
            session.cscan("clustered", run.delivery_orders[0], columns=["value"])
        )["value"].sum()
        plain_sum = collect(Scan(clustered_table, columns=["value"]))["value"].sum()
        assert cooperative_sum == pytest.approx(plain_sum)

    def test_run_cooperative_validates_chunks(self, clustered_table):
        session = Session()
        session.register_table(clustered_table)
        bad = ScanRequest(0, "bad", (999,))
        with pytest.raises(EngineError):
            session.run_cooperative("clustered", [bad])
