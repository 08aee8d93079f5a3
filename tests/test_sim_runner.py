"""Tests for the discrete-event simulator."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.common.config import CpuConfig
from repro.common.errors import SimulationError
from repro.core.policies import POLICY_NAMES
from repro.sim.runner import ScanSimulator, run_simulation, run_standalone
from repro.sim.setup import make_nsm_abm, nsm_abm_factory, make_dsm_abm
from repro.sim.source import ClosedStreamSource
from tests.conftest import make_request


class TestBasicRuns:
    def test_single_query_standalone(self, nsm_layout, small_config):
        spec = make_request(0, range(8), cpu_per_chunk=0.001)
        abm = make_nsm_abm(nsm_layout, small_config, "normal")
        result = run_simulation([[spec]], small_config, abm)
        assert len(result.queries) == 1
        query = result.queries[0]
        assert query.chunks == 8
        assert query.latency > 0
        # Cold run: every chunk must be read exactly once.
        assert result.io_requests == 8
        assert query.delivery_order and sorted(query.delivery_order) == list(range(8))

    def test_io_bound_query_latency_close_to_io_time(self, nsm_layout, small_config):
        spec = make_request(0, range(8), cpu_per_chunk=0.0001)
        abm = make_nsm_abm(nsm_layout, small_config, "normal")
        result = run_simulation([[spec]], small_config, abm)
        expected_io = 8 * small_config.chunk_load_time()
        assert result.queries[0].latency == pytest.approx(expected_io, rel=0.2)

    def test_cpu_bound_query_latency_close_to_cpu_time(self, nsm_layout, small_config):
        spec = make_request(0, range(8), cpu_per_chunk=0.5)
        abm = make_nsm_abm(nsm_layout, small_config, "normal")
        result = run_simulation([[spec]], small_config, abm)
        assert result.queries[0].latency == pytest.approx(8 * 0.5, rel=0.2)

    def test_stream_delay_staggers_arrivals(self, nsm_layout, small_config):
        streams = [
            [make_request(0, range(4), cpu_per_chunk=0.001)],
            [make_request(1, range(4), cpu_per_chunk=0.001)],
        ]
        abm = make_nsm_abm(nsm_layout, small_config, "normal")
        result = run_simulation(streams, small_config, abm)
        arrivals = sorted(query.arrival_time for query in result.queries)
        assert arrivals[1] - arrivals[0] == pytest.approx(
            small_config.stream_start_delay_s
        )

    def test_queries_within_stream_run_sequentially(self, nsm_layout, small_config):
        streams = [
            [
                make_request(0, range(4), cpu_per_chunk=0.001, name="first"),
                make_request(1, range(4, 8), cpu_per_chunk=0.001, name="second"),
            ]
        ]
        abm = make_nsm_abm(nsm_layout, small_config, "normal")
        result = run_simulation(streams, small_config, abm)
        by_name = {query.name: query for query in result.queries}
        assert by_name["second"].arrival_time == pytest.approx(
            by_name["first"].finish_time
        )

    def test_stream_results_cover_all_streams(self, nsm_layout, small_config):
        streams = [
            [make_request(0, range(4), cpu_per_chunk=0.001)],
            [make_request(1, range(2, 6), cpu_per_chunk=0.001)],
        ]
        abm = make_nsm_abm(nsm_layout, small_config, "relevance")
        result = run_simulation(streams, small_config, abm)
        assert len(result.streams) == 2
        assert result.total_time >= max(stream.finish_time for stream in result.streams) - 1e-9
        assert result.average_stream_time > 0

    def test_cpu_utilisation_bounded(self, nsm_layout, small_config):
        streams = [
            [make_request(i, range(16), cpu_per_chunk=0.01)] for i in range(4)
        ]
        abm = make_nsm_abm(nsm_layout, small_config, "relevance")
        result = run_simulation(streams, small_config, abm)
        assert 0.0 < result.cpu_utilisation <= 1.0

    def test_trace_recording(self, nsm_layout, small_config):
        spec = make_request(0, range(8), cpu_per_chunk=0.001)
        abm = make_nsm_abm(nsm_layout, small_config, "normal")
        result = run_simulation([[spec]], small_config, abm, record_trace=True)
        assert result.trace is not None
        assert len(result.trace) == result.io_requests
        assert result.trace.sequential_fraction() == pytest.approx(1.0)

    def test_rejects_empty_workload(self, nsm_layout, small_config):
        abm = make_nsm_abm(nsm_layout, small_config, "normal")
        with pytest.raises(SimulationError):
            ScanSimulator([[]], small_config, abm)

    def test_rejects_duplicate_query_ids(self, nsm_layout, small_config):
        abm = make_nsm_abm(nsm_layout, small_config, "normal")
        streams = [[make_request(0, range(2))], [make_request(0, range(2))]]
        with pytest.raises(SimulationError):
            ScanSimulator(streams, small_config, abm)


class TestSharingBehaviour:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_every_policy_completes_concurrent_workload(
        self, nsm_layout, small_config, policy
    ):
        streams = [
            [make_request(0, range(0, 20), cpu_per_chunk=0.002, name="A")],
            [make_request(1, range(10, 30), cpu_per_chunk=0.004, name="B")],
            [make_request(2, range(5, 15), cpu_per_chunk=0.002, name="C")],
        ]
        abm = make_nsm_abm(nsm_layout, small_config, policy)
        result = run_simulation(streams, small_config, abm)
        assert len(result.queries) == 3
        for query in result.queries:
            assert sorted(query.delivery_order) == sorted(
                streams[query.stream][0].chunks
            )

    def test_identical_concurrent_queries_share_loads(self, nsm_layout, small_config):
        config = small_config
        streams = [
            [make_request(i, range(16), cpu_per_chunk=0.002)] for i in range(4)
        ]
        from dataclasses import replace

        config = replace(config, stream_start_delay_s=0.0)
        abm = make_nsm_abm(nsm_layout, config, "relevance")
        result = run_simulation(streams, config, abm)
        # Four identical queries arriving together: near-perfect sharing.
        assert result.io_requests <= 16 + 4

    def test_relevance_never_issues_more_ios_than_normal(
        self, nsm_layout, small_config
    ):
        def build_streams():
            return [
                [make_request(0, range(0, 24), cpu_per_chunk=0.003, name="A")],
                [make_request(1, range(8, 32), cpu_per_chunk=0.006, name="B")],
                [make_request(2, range(0, 8), cpu_per_chunk=0.003, name="C")],
                [make_request(3, range(16, 28), cpu_per_chunk=0.006, name="D")],
            ]

        normal = run_simulation(
            build_streams(), small_config, make_nsm_abm(nsm_layout, small_config, "normal")
        )
        relevance = run_simulation(
            build_streams(),
            small_config,
            make_nsm_abm(nsm_layout, small_config, "relevance"),
        )
        assert relevance.io_requests <= normal.io_requests

    def test_run_standalone_uses_fresh_buffer(self, nsm_layout, small_config):
        spec = make_request(0, range(8), cpu_per_chunk=0.001)
        factory = nsm_abm_factory(nsm_layout, small_config, "normal", prefetch=False)
        first = run_standalone(spec, small_config, factory)
        second = run_standalone(spec, small_config, factory)
        assert first == pytest.approx(second)
        # Synchronous standalone time is roughly chunks * (io + cpu).
        expected = 8 * (small_config.chunk_load_time() + 0.001)
        assert first == pytest.approx(expected, rel=0.25)


class TestDSMSimulation:
    def test_dsm_run_completes_and_counts_pages(self, dsm_layout, small_config):
        streams = [
            [make_request(0, range(0, 10), columns=("key", "price"), cpu_per_chunk=0.002)],
            [make_request(1, range(5, 15), columns=("price", "flag"), cpu_per_chunk=0.002)],
        ]
        abm = make_dsm_abm(dsm_layout, small_config, "relevance", capacity_pages=400)
        result = run_simulation(streams, small_config, abm, record_trace=True)
        assert len(result.queries) == 2
        assert result.io_requests > 0
        assert result.bytes_read > 0
        # Column traces carry the column name.
        assert any(event.column is not None for event in result.trace)


class TestCpuHeapCompaction:
    """The CPU-completion heap must stay bounded under cancellation churn.

    Lazy invalidation leaves a cancelled query's heap entry in place; the
    compaction pass purges stale entries once they outnumber live ones, so
    a long hedge/fail-stop run cannot grow the heap (and every heappush)
    without bound.
    """

    def _churn_simulator(self, tiny_schema, small_config):
        from repro.storage.nsm import NSMTableLayout

        tuples = 16 * (small_config.buffer.chunk_bytes // 32)
        layout = NSMTableLayout.from_buffer_config(
            tiny_schema, tuples, small_config.buffer
        )
        # 48 single-query streams of slow scans: everything admits quickly
        # and stays on the CPU long enough to be cancelled mid-flight.
        streams = [
            [make_request(index, range(0, 16), cpu_per_chunk=2.0)]
            for index in range(48)
        ]
        abm = make_nsm_abm(layout, small_config, "relevance", capacity_chunks=8)
        source = ClosedStreamSource(streams, 0.001)
        return ScanSimulator(source, small_config, abm)

    def test_fail_stop_compacts_the_heap(self, tiny_schema, small_config):
        simulator = self._churn_simulator(tiny_schema, small_config)
        simulator.begin_run()
        for _ in range(10_000):
            if simulator.is_done() or len(simulator._running) >= 40:
                break
            simulator.step(simulator.next_step_time())
        assert len(simulator._running) >= 40
        assert len(simulator._cpu_heap) >= len(simulator._running)
        simulator.fail_stop(simulator._now)
        # Every entry went stale at once; compaction must have kept the
        # heap within its constant bound instead of retaining all of them.
        assert len(simulator._running) == 0
        assert len(simulator._cpu_heap) <= 32

    def test_incremental_cancellation_keeps_the_bound(
        self, tiny_schema, small_config
    ):
        simulator = self._churn_simulator(tiny_schema, small_config)
        simulator.begin_run()
        for _ in range(10_000):
            if simulator.is_done() or len(simulator._running) >= 40:
                break
            simulator.step(simulator.next_step_time())
        victims = sorted(simulator._running)[:-4]
        for query_id in victims:
            simulator.cancel_query(query_id, simulator._now)
            assert len(simulator._cpu_heap) <= max(
                32, 2 * len(simulator._running)
            )
        # The survivors still run to completion on the compacted heap.
        for _ in range(100_000):
            if simulator.is_done():
                break
            simulator.step(simulator.next_step_time())
        assert simulator.is_done()
        result = simulator.finish()
        assert len(result.queries) == 48 - len(victims)


class TestMemoizedCpuRate:
    """The event core reads the processor-sharing rate from a table of
    ``CpuConfig.rate_per_query`` by running-query count, filled on first
    use; the next event time and the virtual clock must use exactly
    ``rate_per_query(running)``, bit for bit, whether the entry was just
    filled or read back."""

    NOW, VTIME, TARGET, DT = 3.3, 1.7, 2.9, 0.7

    def _check(self, simulator, config, running: int) -> None:
        rate = config.cpu.rate_per_query(running)
        simulator._running = {
            query_id: SimpleNamespace(cpu_seq=query_id) for query_id in range(running)
        }
        simulator._cpu_heap = [(self.TARGET, 0, 0)]
        simulator._now = self.NOW
        simulator._vtime = self.VTIME
        simulator._cpu_busy_area = 0.0
        expected = self.NOW + max(0.0, self.TARGET - self.VTIME) / rate
        assert simulator._next_event_time().hex() == expected.hex()
        simulator._advance_to(self.NOW + self.DT)
        dt = self.NOW + self.DT - self.NOW
        assert simulator._vtime.hex() == (self.VTIME + dt * rate).hex()
        assert simulator._cpu_busy_area == min(running, config.cpu.cores) * dt
        assert simulator._rates[running].hex() == rate.hex()

    @pytest.mark.parametrize("cores", [1, 2, 3, 4, 6, 8, 16])
    def test_rate_matches_rate_per_query(self, cores, nsm_layout, small_config):
        config = replace(small_config, cpu=CpuConfig(cores=cores))
        abm = make_nsm_abm(nsm_layout, config, "normal")
        simulator = ScanSimulator([[make_request(0, range(2))]], config, abm)
        # Only the CPU completes: no arrival and no disk operation is due.
        simulator._source = SimpleNamespace(next_event_time=lambda: None)
        simulator._disk_done = {}
        counts = range(1, 4 * cores + 1)
        for running in counts:  # each entry filled on first use
            self._check(simulator, config, running)
        for running in reversed(counts):  # each entry read back
            self._check(simulator, config, running)
