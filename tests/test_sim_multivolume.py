"""Integration tests for the simulator on multi-volume disks."""

import pytest

from repro.common.config import ServiceConfig
from repro.core.policies import POLICY_NAMES
from repro.service import poisson_arrivals, run_service
from repro.sim.runner import run_simulation
from repro.sim.setup import make_dsm_abm, make_nsm_abm
from repro.workload.queries import QueryFamily, QueryTemplate
from tests.conftest import make_request


def nsm_streams(num_streams=4, span=16, stride=8, num_chunks=32, cpu=0.001):
    """Deterministic staggered overlapping scans (wrap at ``num_chunks``)."""
    return [
        [
            make_request(
                index,
                sorted((index * stride + offset) % num_chunks for offset in range(span)),
                cpu_per_chunk=cpu,
            )
        ]
        for index in range(num_streams)
    ]


class TestSingleVolumeEquivalence:
    def test_striped_and_range_identical_with_one_volume(
        self, nsm_layout, small_config
    ):
        """volumes=1 must reproduce the single-disk run bit-for-bit, whatever
        the placement: both placements are the identity mapping."""
        results = {}
        for placement in ("striped", "range"):
            config = small_config.with_volumes(1, placement)
            results[placement] = run_simulation(
                nsm_streams(), config, make_nsm_abm(nsm_layout, config, "relevance")
            )
        striped, ranged = results["striped"], results["range"]
        assert striped.total_time == ranged.total_time
        assert striped.io_requests == ranged.io_requests
        assert striped.queries == ranged.queries
        assert striped.volume_utilisation == ranged.volume_utilisation

    def test_explicit_single_volume_matches_default_config(
        self, nsm_layout, small_config
    ):
        default = run_simulation(
            nsm_streams(), small_config,
            make_nsm_abm(nsm_layout, small_config, "relevance"),
        )
        explicit_config = small_config.with_volumes(1)
        explicit = run_simulation(
            nsm_streams(), explicit_config,
            make_nsm_abm(nsm_layout, explicit_config, "relevance"),
        )
        assert default.total_time == explicit.total_time
        assert default.io_requests == explicit.io_requests
        assert default.queries == explicit.queries


class TestMultiVolumeRuns:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("volumes", [2, 4])
    def test_every_policy_completes_nsm(
        self, nsm_layout, small_config, policy, volumes
    ):
        config = small_config.with_volumes(volumes)
        streams = nsm_streams()
        abm = make_nsm_abm(nsm_layout, config, policy)
        result = run_simulation(streams, config, abm)
        assert len(result.queries) == len(streams)
        for query in result.queries:
            assert sorted(query.delivery_order) == sorted(
                streams[query.stream][0].chunks
            )
        # Every issued load completed.
        assert abm.pending_loads == 0
        assert len(result.volume_utilisation) == volumes

    @pytest.mark.parametrize("policy", ["normal", "elevator", "relevance"])
    def test_every_policy_completes_dsm(self, dsm_layout, small_config, policy):
        config = small_config.with_volumes(4)
        streams = [
            [make_request(0, range(0, 12), columns=("key", "price"),
                          cpu_per_chunk=0.002)],
            [make_request(1, range(6, 18), columns=("price", "flag"),
                          cpu_per_chunk=0.002)],
            [make_request(2, range(3, 15), columns=("key", "date"),
                          cpu_per_chunk=0.002)],
        ]
        abm = make_dsm_abm(dsm_layout, config, policy, capacity_pages=400)
        result = run_simulation(streams, config, abm)
        assert len(result.queries) == 3
        assert abm.pending_loads == 0

    @pytest.mark.parametrize("placement", ["striped", "range"])
    def test_more_volumes_are_never_slower(
        self, nsm_layout, small_config, placement
    ):
        # An I/O-bound workload with simultaneous streams (no start
        # stagger, which would serialise arrivals and mask the disks):
        # doubling the spindle count must not slow the run down, and going
        # 1 -> 4 must show a real speedup.
        from dataclasses import replace

        base = replace(small_config, stream_start_delay_s=0.0)
        streams = nsm_streams(num_streams=6, cpu=0.0002)
        times = {}
        for volumes in (1, 2, 4):
            config = base.with_volumes(volumes, placement)
            result = run_simulation(
                streams, config, make_nsm_abm(nsm_layout, config, "relevance")
            )
            times[volumes] = result.total_time
        assert times[2] <= times[1] + 1e-9
        assert times[4] <= times[2] + 1e-9
        assert times[4] < times[1] * 0.8

    def test_volume_utilisation_is_consistent(self, nsm_layout, small_config):
        config = small_config.with_volumes(4)
        result = run_simulation(
            nsm_streams(num_streams=6, cpu=0.0002), config,
            make_nsm_abm(nsm_layout, config, "elevator"),
        )
        assert len(result.volume_utilisation) == 4
        for utilisation in result.volume_utilisation:
            assert 0.0 <= utilisation <= 1.0
        assert result.disk_utilisation == pytest.approx(
            sum(result.volume_utilisation) / 4
        )
        assert 0.0 <= result.disk_sequential_fraction <= 1.0

    def test_determinism_across_reruns(self, nsm_layout, small_config):
        config = small_config.with_volumes(4)

        def once():
            return run_simulation(
                nsm_streams(), config, make_nsm_abm(nsm_layout, config, "relevance")
            )

        first, second = once(), once()
        assert first.total_time == second.total_time
        assert first.io_requests == second.io_requests
        assert first.queries == second.queries
        assert first.volume_utilisation == second.volume_utilisation


class TestDSMElevatorLiveness:
    def test_elevator_evicts_needed_blocks_as_last_resort(
        self, dsm_layout, small_config
    ):
        """Regression for a livelock surfaced by multi-volume load issuing.

        With several loads committed per scheduling round, a DSM pool can
        fill up with *partial* chunks (one column buffered, the other still
        missing) that every active scan needs but none can consume.  The
        elevator policy used to refuse to evict any still-needed block, so
        no further load could ever start and the run deadlocked.  It must
        now fall back to evicting LRU blocks (the cursor re-reads them on
        its next revolution).
        """
        from repro.sim.setup import make_dsm_abm

        chunks = list(range(6))
        key_pages = {
            chunk: dsm_layout.block_pages("key", chunk) for chunk in chunks
        }
        capacity = sum(key_pages.values())
        abm = make_dsm_abm(dsm_layout, small_config, "elevator",
                           capacity_pages=capacity)
        for query_id in range(2):
            abm.register(
                make_request(query_id, chunks, columns=("key", "price"),
                             cpu_per_chunk=0.01),
                0.0,
            )
        # Fill the pool with "key" blocks only: every chunk is interesting
        # to both queries but ready for neither (the "price" block is
        # missing and there is no room left to load it).
        for chunk in chunks:
            abm.pool.start_load((chunk, "key"), key_pages[chunk])
            abm.pool.complete_load((chunk, "key"), float(chunk))
        assert abm.pool.free_pages() == 0
        for handle in abm.active_handles():
            assert not abm.chunk_ready(handle, chunks[0])

        victims = abm.policy.choose_evictions(
            0, incoming_chunk=0, pages_short=key_pages[1], now=10.0
        )
        assert victims, "elevator must free space even from needed blocks"
        freed = sum(abm.pool.block(key).pages for key in victims)
        assert freed >= key_pages[1]


class TestDSMTraceTimings:
    def test_same_chunk_column_blocks_amortise_seeks(
        self, dsm_layout, small_config
    ):
        """Regression pin for the same-chunk seek bugfix.

        A lone synchronous DSM scan reads two column blocks per chunk,
        back to back, walking chunks in order.  Only the very first block
        pays the average seek: the second block of each chunk targets the
        *same* chunk and every following chunk is adjacent.  The old model
        charged a full ``avg_seek_s`` for the same-chunk block of every
        chunk, inflating exactly the per-request seek cost the paper's
        elevator-vs-relevance comparison is about.
        """
        chunks = range(4)
        columns = ("key", "price")
        streams = [[make_request(0, chunks, columns=columns, cpu_per_chunk=0.001)]]
        abm = make_dsm_abm(dsm_layout, small_config, "normal",
                           capacity_pages=400, prefetch=False)
        result = run_simulation(streams, small_config, abm, record_trace=True)

        num_blocks = len(list(chunks)) * len(columns)
        assert len(result.trace) == num_blocks
        total_bytes = sum(event.num_bytes for event in result.trace)
        disk = small_config.disk
        expected_busy = (
            disk.avg_seek_s
            + (num_blocks - 1) * disk.sequential_seek_s
            + total_bytes / disk.bandwidth_bytes_per_s
        )
        busy = result.disk_utilisation * result.total_time
        assert busy == pytest.approx(expected_busy, rel=1e-9)
        assert result.disk_sequential_fraction == pytest.approx(
            (num_blocks - 1) / num_blocks
        )


class TestServiceOnMultipleVolumes:
    def test_slo_report_carries_per_volume_utilisation(
        self, nsm_layout, small_config
    ):
        fast = QueryFamily("F", cpu_per_chunk=0.002)
        templates = (QueryTemplate(fast, 25), QueryTemplate(fast, 50))
        arrivals = poisson_arrivals(templates, nsm_layout, 2.0, 10, seed=3)
        config = small_config.with_volumes(2)
        outcome = run_service(
            arrivals, config, make_nsm_abm(nsm_layout, config, "relevance"),
            ServiceConfig(max_concurrent=3),
        )
        report = outcome.slo
        assert report.num_volumes == 2
        assert len(report.volume_utilisation) == 2
        assert report.disk_utilisation == pytest.approx(
            sum(report.volume_utilisation) / 2
        )
        flat = report.as_dict()
        assert flat["num_volumes"] == 2.0
        assert "volume_0_utilisation" in flat and "volume_1_utilisation" in flat

    def test_service_on_more_volumes_is_not_slower(self, nsm_layout, small_config):
        fast = QueryFamily("F", cpu_per_chunk=0.0005)
        templates = (QueryTemplate(fast, 50), QueryTemplate(fast, 100))

        def served(volumes):
            arrivals = poisson_arrivals(templates, nsm_layout, 4.0, 12, seed=5)
            config = small_config.with_volumes(volumes)
            return run_service(
                arrivals, config, make_nsm_abm(nsm_layout, config, "relevance"),
                ServiceConfig(max_concurrent=4),
            )

        single, quad = served(1), served(4)
        assert quad.slo.completed == single.slo.completed == 12
        assert quad.run.total_time <= single.run.total_time + 1e-9
