"""Cross-policy behavioural comparisons on controlled micro-scenarios.

These tests reproduce, at a tiny scale, the *reasoning* the paper uses to
motivate relevance: the introduction's 30-chunk/10-chunk example, the attach
"detach" problem, elevator's short-query penalty and the multi-range
(zone-map) scan weakness of attach.
"""

import pytest

from repro.common.config import BufferConfig, CpuConfig, DiskConfig, SystemConfig
from repro.common.units import KB, MB
from repro.core.cscan import ScanRequest
from repro.sim.runner import run_simulation
from repro.sim.setup import make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.storage.schema import ColumnSpec, DataType, TableSchema


def micro_config(cores=2, capacity=8, delay=0.0):
    return SystemConfig(
        disk=DiskConfig(bandwidth_bytes_per_s=100 * MB, avg_seek_s=0.002,
                        sequential_seek_s=0.0005),
        cpu=CpuConfig(cores=cores),
        buffer=BufferConfig(chunk_bytes=1 * MB, page_bytes=64 * KB,
                            capacity_chunks=capacity),
        stream_start_delay_s=delay,
    )


def micro_layout(num_chunks, config):
    schema = TableSchema.build("t", [ColumnSpec("a", DataType.INT64)] * 1)
    tuples = num_chunks * (config.buffer.chunk_bytes // 8)
    return NSMTableLayout.from_buffer_config(schema, tuples, config.buffer)


def run_policy(policy, streams, config, layout, capacity=None):
    abm = make_nsm_abm(layout, config, policy, capacity_chunks=capacity)
    return run_simulation(streams, config, abm)


class TestIntroductionExample:
    """Q1 needs 30 chunks, Q2 needs 10 disjoint chunks, same speed, same start."""

    def build_streams(self):
        cpu = 0.001  # I/O bound, as in the example
        q1 = ScanRequest(0, "Q1", tuple(range(0, 30)), cpu_per_chunk=cpu)
        q2 = ScanRequest(1, "Q2", tuple(range(30, 40)), cpu_per_chunk=cpu)
        return [[q1], [q2]]

    def test_relevance_average_latency_beats_normal(self):
        config = micro_config(capacity=4)
        layout = micro_layout(40, config)
        normal = run_policy("normal", self.build_streams(), config, layout, capacity=4)
        relevance = run_policy("relevance", self.build_streams(), config, layout, capacity=4)
        normal_avg = normal.average_latency
        relevance_avg = relevance.average_latency
        # Round-robin servicing makes the short query wait for the long one;
        # relevance services the short query first and lowers the average.
        assert relevance_avg < normal_avg
        # The long query is not significantly penalised.
        normal_q1 = max(q.latency for q in normal.queries)
        relevance_q1 = max(q.latency for q in relevance.queries)
        assert relevance_q1 <= normal_q1 * 1.1


class TestAttachDetach:
    """A fast and a slow query attached together drift apart under attach."""

    def build_streams(self, layout):
        full = tuple(range(layout.num_chunks))
        fast = ScanRequest(0, "fast", full, cpu_per_chunk=0.001)
        slow = ScanRequest(1, "slow", full, cpu_per_chunk=0.1)
        return [[fast], [slow]]

    def test_detach_causes_rereads_with_small_buffer(self):
        config = micro_config(capacity=3)
        layout = micro_layout(24, config)
        result = run_policy("attach", self.build_streams(layout), config, layout,
                            capacity=3)
        # The slow query cannot keep up within a 3-chunk buffer, so chunks are
        # read more than once (the "detach" effect of Figure 4).
        assert result.io_requests > layout.num_chunks

    def test_relevance_limits_rereads_in_same_scenario(self):
        config = micro_config(capacity=3)
        layout = micro_layout(24, config)
        attach = run_policy("attach", self.build_streams(layout), config, layout,
                            capacity=3)
        relevance = run_policy("relevance", self.build_streams(layout), config,
                               layout, capacity=3)
        assert relevance.io_requests <= attach.io_requests


class TestElevatorShortQueryPenalty:
    def test_short_range_query_waits_for_cursor(self):
        # The second stream starts 0.5 s later, by which time the elevator
        # cursor has moved well past the short query's range.
        config = micro_config(capacity=6, delay=0.5)
        layout = micro_layout(32, config)
        cpu = 0.02
        long_query = ScanRequest(0, "long", tuple(range(0, 32)), cpu_per_chunk=cpu)
        # Short query over the *beginning* of the table, arriving second: the
        # elevator cursor has already passed its range.
        short_query = ScanRequest(1, "short", tuple(range(0, 2)), cpu_per_chunk=cpu)
        streams = [[long_query], [short_query]]
        elevator = run_policy("elevator", streams, config, layout, capacity=6)
        relevance = run_policy("relevance", streams, config, layout, capacity=6)
        elevator_short = next(q for q in elevator.queries if q.name == "short").latency
        relevance_short = next(q for q in relevance.queries if q.name == "short").latency
        assert relevance_short < elevator_short


class TestMultiRangeScans:
    """Zone-map plans produce non-contiguous chunk sets; relevance still shares."""

    def test_relevance_handles_multi_range_requests(self):
        config = micro_config(capacity=6)
        layout = micro_layout(32, config)
        cpu = 0.002
        ranged = ScanRequest(
            0, "zonemap", (*range(0, 6), *range(20, 26)), cpu_per_chunk=cpu
        )
        full = ScanRequest(1, "full", tuple(range(32)), cpu_per_chunk=cpu)
        streams = [[ranged], [full]]
        relevance = run_policy("relevance", streams, config, layout, capacity=6)
        normal = run_policy("normal", streams, config, layout, capacity=6)
        ranged_result = next(q for q in relevance.queries if q.name == "zonemap")
        assert sorted(ranged_result.delivery_order) == list(ranged.chunks)
        assert relevance.io_requests <= normal.io_requests
