"""Multiprocess lockstep: worker count must never change results.

The parallel fan-out (:mod:`repro.sim.parallel`) forks a fleet of
self-contained simulators across ``workers=N`` processes and merges the
results — and the flight-recorder state — back at the join barrier.  These
tests pin the contract from every side: per-shard results identical for
every worker count (including workers > shards and fleets full of
simultaneous events), merged telemetry identical and equal to the serial
run's, coupled fleets (cluster shard sources, interrupts) always on the
serial path, and worker failures propagating as :class:`SimulationError`
with no process left behind.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.common.config import ObservabilityConfig
from repro.common.errors import SimulationError
from repro.sim.lockstep import LockstepRunner
from repro.sim.parallel import fleet_parallelizable
from repro.sim.results import scheduling_fingerprint as _fingerprint
from repro.sim.runner import ScanSimulator
from repro.sim.setup import make_nsm_abm
from repro.sim.source import ClosedStreamSource
from repro.storage.nsm import NSMTableLayout
from tests.conftest import make_request

NUM_CHUNKS = 16


def _layout(tiny_schema, small_config):
    tuples = NUM_CHUNKS * (small_config.buffer.chunk_bytes // 32)
    return NSMTableLayout.from_buffer_config(
        tiny_schema, tuples, small_config.buffer
    )


def _make_simulator(tiny_schema, small_config, shard, identical=False):
    """One self-contained shard simulator; ``identical`` makes every shard
    run the exact same workload (all fleet events then coincide)."""
    spread = 0 if identical else shard % 3
    # Query ids only need to be unique within one simulator; identical
    # fleets reuse the same ids so the shards are true clones.
    base = 0 if identical else shard * 100
    streams = [
        [
            make_request(base + 1, range(0, 8 + spread)),
            make_request(base + 2, range(4, NUM_CHUNKS)),
        ],
        [make_request(base + 3, range(0, NUM_CHUNKS), cpu_per_chunk=0.02)],
        [make_request(base + 4, range(2, 10 + spread))],
    ]
    abm = make_nsm_abm(
        _layout(tiny_schema, small_config), small_config, "relevance",
        capacity_chunks=4,
    )
    source = ClosedStreamSource(streams, small_config.stream_start_delay_s)
    return ScanSimulator(source, small_config, abm)


def _fleet(tiny_schema, small_config, shards=3, identical=False):
    return [
        _make_simulator(tiny_schema, small_config, shard, identical=identical)
        for shard in range(shards)
    ]


def _packed_events(recorder):
    """Trace events as comparable tuples (args flattened deterministically)."""
    return [
        (e.name, e.cat, e.ph, e.ts, e.pid, e.tid, e.dur, e.id,
         repr(sorted(e.args.items())))
        for e in recorder.trace.events
    ]


# ----------------------------------------------------------- worker counts
class TestWorkerCountInvariance:
    def test_results_identical_across_worker_counts(
        self, tiny_schema, small_config
    ):
        fingerprints = {}
        for workers in (1, 2, 3, 8):  # 8 > shards: capped to the fleet size
            fleet = _fleet(tiny_schema, small_config, shards=3)
            results = LockstepRunner(fleet, workers=workers).run()
            fingerprints[workers] = [_fingerprint(result) for result in results]
        assert fingerprints[1] == fingerprints[2]
        assert fingerprints[1] == fingerprints[3]
        assert fingerprints[1] == fingerprints[8]

    def test_simultaneous_events_across_shards(self, tiny_schema, small_config):
        # Identical shards put every fleet event at the same timestamps, so
        # the serial driver steps all shards inside zero-width windows each
        # round; the forked path must still agree bit for bit.
        serial = LockstepRunner(
            _fleet(tiny_schema, small_config, shards=3, identical=True),
            workers=1,
        ).run()
        forked = LockstepRunner(
            _fleet(tiny_schema, small_config, shards=3, identical=True),
            workers=3,
        ).run()
        assert [_fingerprint(r) for r in serial] == [
            _fingerprint(r) for r in forked
        ]
        # Identical inputs really did produce identical per-shard runs
        # (guards the fixture against accidental divergence).
        first = _fingerprint(serial[0])
        assert all(_fingerprint(r) == first for r in serial[1:])

    def test_workers_below_one_rejected(self, tiny_schema, small_config):
        with pytest.raises(SimulationError, match="workers must be >= 1"):
            LockstepRunner(
                _fleet(tiny_schema, small_config, shards=1), workers=0
            )


# --------------------------------------------------------- recorder merges
class TestRecorderMerge:
    def _run(self, tiny_schema, small_config, workers):
        runner = LockstepRunner(
            _fleet(tiny_schema, small_config, shards=3),
            obs=ObservabilityConfig(),
            workers=workers,
        )
        results = runner.run()
        return results, runner.flight_recorder

    def test_merged_telemetry_matches_serial(self, tiny_schema, small_config):
        _, serial = self._run(tiny_schema, small_config, workers=1)
        _, forked2 = self._run(tiny_schema, small_config, workers=2)
        _, forked3 = self._run(tiny_schema, small_config, workers=3)
        # The merge order — (timestamp, shard, emission order) — is fixed
        # by the trajectories, so every parallel partition produces the
        # same merged sequence...
        assert _packed_events(forked2) == _packed_events(forked3)
        # ...and the same events as the serial interleaving (which orders
        # same-timestamp events by step order instead).
        assert sorted(_packed_events(serial)) == sorted(_packed_events(forked2))
        assert serial.trace.dropped == forked2.trace.dropped
        for name, counter in serial.metrics.counters().items():
            assert forked2.metrics.counter(name).total == pytest.approx(
                counter.total
            )
        for name, histogram in serial.metrics.histograms().items():
            assert sorted(forked2.metrics.histogram(name).points) == sorted(
                histogram.points
            )


# ------------------------------------------------------------ eligibility
class TestFleetParallelizable:
    class _Free:
        master_coupled = False

    class _Coupled:
        master_coupled = True

    def test_self_contained_fleet_is_eligible(self):
        assert fleet_parallelizable([self._Free(), self._Free()])

    def test_coupling_disqualifies(self):
        assert not fleet_parallelizable([self._Free(), self._Coupled()])
        assert not fleet_parallelizable([self._Free()], message_source=object())
        assert not fleet_parallelizable([self._Free()], interrupts=[object()])

    def test_cluster_shard_sources_are_master_coupled(
        self, tiny_schema, small_config
    ):
        # The real guard for cluster runs: a ShardSource-backed simulator
        # must never be forked away from its coordinator.
        from repro.cluster.coordinator import ShardSource

        assert ShardSource.master_coupled is True


# ----------------------------------------------- engine x workers matrix
@pytest.mark.slow
class TestGoldenMatrix:
    """The full cross product: ``engine`` x ``workers`` on one fleet.

    Heavier than the tier-1 tests (a 6-shard fleet big enough for the numpy
    engine to engage), so it carries the ``slow`` marker and runs in the
    dedicated CI equivalence job.
    """

    def _fleet(self, tiny_schema, small_config, engine):
        from repro.workload.queries import QueryFamily, QueryTemplate
        from repro.workload.streams import build_streams

        layout = _layout(tiny_schema, small_config)
        fast = QueryFamily("F", cpu_per_chunk=0.002)
        slow = QueryFamily("S", cpu_per_chunk=0.02)
        templates = [QueryTemplate(fast, 50), QueryTemplate(slow, 100)]
        fleet = []
        for shard in range(6):
            streams = build_streams(
                templates, layout, 20, 2, seed=300 + shard
            )
            abm = make_nsm_abm(
                layout, small_config, "relevance", capacity_chunks=4
            )
            source = ClosedStreamSource(
                streams, small_config.stream_start_delay_s
            )
            fleet.append(
                ScanSimulator(source, small_config, abm, engine=engine)
            )
        return fleet

    def test_engine_workers_cross_product(self, tiny_schema, small_config):
        from repro.sim.vector import numpy_available

        engines = ["scalar"] + (["numpy"] if numpy_available() else [])
        fingerprints = {}
        for engine in engines:
            for workers in (1, 4):
                fleet = self._fleet(tiny_schema, small_config, engine)
                results = LockstepRunner(fleet, workers=workers).run()
                assert all(
                    simulator.resolved_engine == engine for simulator in fleet
                )
                fingerprints[(engine, workers)] = [
                    _fingerprint(result) for result in results
                ]
        baseline = fingerprints[("scalar", 1)]
        for key, value in fingerprints.items():
            assert value == baseline, f"{key} diverged from (scalar, 1)"


# ------------------------------------------------------------ worker death
class TestWorkerFailure:
    def test_worker_error_propagates_and_pool_is_reaped(
        self, tiny_schema, small_config, monkeypatch
    ):
        def boom(self, until):
            raise SimulationError("injected shard fault")

        # Forked workers inherit the patch; every worker fails fast.
        monkeypatch.setattr(ScanSimulator, "step", boom)
        fleet = _fleet(tiny_schema, small_config, shards=3)
        with pytest.raises(
            SimulationError, match="parallel lockstep worker failed"
        ):
            LockstepRunner(fleet, workers=2).run()
        for process in multiprocessing.active_children():
            process.join(timeout=5)
        assert multiprocessing.active_children() == []
