"""Edge-case tests for the lockstep multi-simulator driver."""

import pytest

from repro.cluster import run_cluster_service
from repro.common.config import ClusterConfig, ObservabilityConfig, ServiceConfig
from repro.common.errors import SimulationError
from repro.service import Arrival
from repro.sim.lockstep import LockstepRunner
from repro.sim.results import scheduling_fingerprint
from repro.sim.runner import ScanSimulator
from repro.sim.setup import make_nsm_abm
from repro.sim.source import AdmittedQuery, ClosedStreamSource, QuerySource
from repro.storage.nsm import NSMTableLayout
from tests.conftest import make_request
from tests.reference_lockstep import ReferenceLockstepRunner


def _shard_layouts(tiny_schema, small_config, shard_map):
    tuples_per_chunk = small_config.buffer.chunk_bytes // 32
    return [
        NSMTableLayout.from_buffer_config(
            tiny_schema,
            shard_map.chunks_owned(shard) * tuples_per_chunk,
            small_config.buffer,
        )
        for shard in range(shard_map.num_shards)
    ]


def _run_cluster(tiny_schema, small_config, arrivals, shards=2, num_chunks=16):
    from repro.cluster import ShardMap

    cluster = ClusterConfig(shards=shards, mpl_per_shard=2)
    shard_map = ShardMap.from_cluster_config(cluster, num_chunks)
    abms = [
        make_nsm_abm(layout, small_config, "relevance", capacity_chunks=4)
        for layout in _shard_layouts(tiny_schema, small_config, shard_map)
    ]
    return run_cluster_service(
        arrivals, small_config, abms, cluster, record_trace=True
    )


class TestZeroArrivalShard:
    def test_shard_without_subqueries_finishes_clean(
        self, tiny_schema, small_config
    ):
        # Range placement over 16 chunks: shard 0 owns 0-7, shard 1 owns
        # 8-15.  Every arrival stays inside shard 0, so shard 1 must idle
        # through the whole run without deadlocking the lockstep driver.
        arrivals = [
            Arrival(0.0, make_request(0, range(0, 6))),
            Arrival(0.5, make_request(1, range(2, 8))),
            Arrival(1.0, make_request(2, range(0, 4))),
        ]
        result = _run_cluster(tiny_schema, small_config, arrivals)
        assert len(result.records) == 3
        assert result.shard_runs[1].queries == []
        # The idle shard's clock only ever advanced to arrival instants
        # (it wakes to pump the front door), never into work of its own.
        assert result.shard_runs[1].total_time == 1.0
        assert result.shard_runs[1].io_requests == 0
        assert all(record.shards == (0,) for record in result.records)

    def test_zero_arrival_shard_run_repeats_identically(
        self, tiny_schema, small_config
    ):
        arrivals = [
            Arrival(0.0, make_request(0, range(0, 6))),
            Arrival(0.5, make_request(1, range(2, 8))),
        ]
        first = _run_cluster(tiny_schema, small_config, arrivals)
        second = _run_cluster(tiny_schema, small_config, arrivals)
        for run_a, run_b in zip(first.shard_runs, second.shard_runs):
            assert scheduling_fingerprint(run_a) == scheduling_fingerprint(run_b)


class TestShardsFinishBeforeFrontDrains:
    def test_late_arrival_after_all_shards_went_idle(
        self, tiny_schema, small_config
    ):
        # Both shards finish all scattered work long before the last
        # arrival is due: the front door still holds an unconsumed arrival,
        # so no shard may report drained, and the frontier must jump over
        # the idle gap to the late arrival.
        arrivals = [
            Arrival(0.0, make_request(0, range(0, 8))),
            Arrival(500.0, make_request(1, range(8, 16))),
        ]
        result = _run_cluster(tiny_schema, small_config, arrivals)
        assert len(result.records) == 2
        by_id = {record.query_id: record for record in result.records}
        assert by_id[1].admit_time >= 500.0
        # Shard 1 only worked after the idle gap.
        assert by_id[1].shards == (1,)
        assert result.shard_runs[1].queries[0].arrival_time >= 500.0

    def test_front_queue_drains_after_early_shard_finished(
        self, tiny_schema, small_config
    ):
        # MPL 1 cluster: the front queue still holds queries when shard 1's
        # only sub-query is done.  The finished-shard skip must not starve
        # the queue — every queued query still runs on shard 0.
        from repro.cluster import ShardMap
        from repro.service.admission import AdmissionController
        from repro.cluster.coordinator import ClusterCoordinator, ShardSource

        cluster = ClusterConfig(shards=2, mpl_per_shard=1)
        shard_map = ShardMap.from_cluster_config(cluster, 16)
        admission = AdmissionController(
            ServiceConfig(max_concurrent=1)  # tighter than the cluster MPL
        )
        arrivals = [
            Arrival(0.0, make_request(0, range(4, 12))),   # both shards
            Arrival(0.1, make_request(1, range(0, 4))),    # shard 0, queued
            Arrival(0.2, make_request(2, range(2, 6))),    # shard 0, queued
        ]
        coordinator = ClusterCoordinator(arrivals, shard_map, admission)
        abms = [
            make_nsm_abm(layout, small_config, "relevance", capacity_chunks=4)
            for layout in _shard_layouts(tiny_schema, small_config, shard_map)
        ]
        simulators = [
            ScanSimulator(ShardSource(coordinator, shard), small_config, abm)
            for shard, abm in enumerate(abms)
        ]
        runs = LockstepRunner(simulators).run()
        assert len(coordinator.records) == 3
        assert {record.query_id for record in coordinator.records} == {0, 1, 2}
        # Queries 1 and 2 ran after shard 1 had nothing left to do.
        assert len(runs[0].queries) == 3
        assert len(runs[1].queries) == 1


class _Beeper:
    """Stub interrupt source: fires at fixed times, mutates nothing."""

    def __init__(self, times):
        self.times = list(times)
        self.fired = []

    def next_event_time(self):
        return self.times[0] if self.times else None

    def fire(self, now):
        self.fired.append(now)
        self.times.pop(0)


class TestLockstepInterrupts:
    def _build(self, nsm_layout, small_config):
        return ScanSimulator(
            [[make_request(0, range(0, 8), cpu_per_chunk=0.002),
              make_request(1, range(4, 12), cpu_per_chunk=0.004)]],
            small_config,
            make_nsm_abm(nsm_layout, small_config, "relevance"),
            record_trace=True,
        )

    def test_interrupt_fires_at_its_exact_time(self, nsm_layout, small_config):
        beeper = _Beeper([0.05])
        (run,) = LockstepRunner(
            [self._build(nsm_layout, small_config)], interrupts=[beeper]
        ).run()
        assert beeper.fired == [0.05]
        assert len(run.queries) == 2

    def test_noop_interrupt_never_perturbs_the_run(
        self, nsm_layout, small_config
    ):
        plain = LockstepRunner([self._build(nsm_layout, small_config)]).run()
        interrupted = LockstepRunner(
            [self._build(nsm_layout, small_config)],
            interrupts=[_Beeper([0.01, 0.05, 0.2])],
        ).run()
        assert scheduling_fingerprint(plain[0]) == scheduling_fingerprint(
            interrupted[0]
        )

    def test_interrupt_after_the_run_never_fires(self, nsm_layout, small_config):
        beeper = _Beeper([1e9])
        (run,) = LockstepRunner(
            [self._build(nsm_layout, small_config)], interrupts=[beeper]
        ).run()
        assert beeper.fired == []
        assert len(run.queries) == 2

    def test_same_time_events_drain_in_one_round(self, nsm_layout, small_config):
        beeper = _Beeper([0.05, 0.05, 0.05])
        LockstepRunner(
            [self._build(nsm_layout, small_config)], interrupts=[beeper]
        ).run()
        assert beeper.fired == [0.05, 0.05, 0.05]

    def test_multiple_interrupt_sources_all_fire(self, nsm_layout, small_config):
        early = _Beeper([0.02])
        late = _Beeper([0.1])
        LockstepRunner(
            [self._build(nsm_layout, small_config)], interrupts=[early, late]
        ).run()
        assert early.fired == [0.02]
        assert late.fired == [0.1]


class TestSingleStepAndSingleton:
    def test_fleet_of_one_equals_solo_run(self, nsm_layout, small_config):
        def build():
            return ScanSimulator(
                [[make_request(0, range(0, 8), cpu_per_chunk=0.002),
                  make_request(1, range(4, 12), cpu_per_chunk=0.004)],
                 [make_request(2, range(2, 10), cpu_per_chunk=0.002)]],
                small_config,
                make_nsm_abm(nsm_layout, small_config, "relevance"),
                record_trace=True,
            )

        solo = build().run()
        (lockstepped,) = LockstepRunner([build()]).run()
        assert scheduling_fingerprint(solo) == scheduling_fingerprint(lockstepped)

    def test_single_query_single_chunk_simulator(self, nsm_layout, small_config):
        # The smallest possible simulation: one query over one chunk, no
        # CPU cost — a handful of steps end to end.  The lockstep driver
        # must finish it and produce a coherent result.
        simulator = ScanSimulator(
            [[make_request(0, [3], cpu_per_chunk=0.0)]],
            small_config,
            make_nsm_abm(nsm_layout, small_config, "normal"),
        )
        (run,) = LockstepRunner([simulator]).run()
        assert len(run.queries) == 1
        assert run.queries[0].chunks == 1
        assert run.io_requests == 1
        assert run.total_time > 0

    def test_empty_fleet_rejected(self):
        with pytest.raises(SimulationError):
            LockstepRunner([])

    def test_finished_simulators_are_skipped_not_reprobed(
        self, nsm_layout, small_config
    ):
        # A fleet of unequal closed workloads: the short simulator finishes
        # first and must be skipped (its policy makes no further calls)
        # while the longer one keeps stepping.
        short = ScanSimulator(
            [[make_request(0, [0], cpu_per_chunk=0.0)]],
            small_config,
            make_nsm_abm(nsm_layout, small_config, "relevance"),
        )
        long = ScanSimulator(
            [[make_request(1, range(0, 16), cpu_per_chunk=0.01)]],
            small_config,
            make_nsm_abm(nsm_layout, small_config, "relevance"),
        )
        short_run, long_run = LockstepRunner([short, long]).run()
        assert short.is_done() and long.is_done()
        assert short_run.total_time < long_run.total_time
        # The short sim's scheduling calls stop growing once it is done:
        # re-running the probe loop would have inflated them.
        assert short_run.scheduling_calls < long_run.scheduling_calls


# ------------------------------------------------------ independent fleets
FLEET_CHUNKS = 16


def _fleet_simulator(tiny_schema, small_config, shard, identical=False, obs=None):
    """One self-contained simulator; ``identical`` makes every member run
    the same workload, so all fleet events coincide."""
    spread = 0 if identical else shard % 3
    base = 0 if identical else shard * 100
    streams = [
        [
            make_request(base + 1, range(0, 8 + spread)),
            make_request(base + 2, range(4, FLEET_CHUNKS)),
        ],
        [make_request(base + 3, range(0, FLEET_CHUNKS), cpu_per_chunk=0.02)],
        [make_request(base + 4, range(2, 10 + spread))],
    ]
    layout = NSMTableLayout.from_buffer_config(
        tiny_schema,
        FLEET_CHUNKS * (small_config.buffer.chunk_bytes // 32),
        small_config.buffer,
    )
    abm = make_nsm_abm(layout, small_config, "relevance", capacity_chunks=4)
    source = ClosedStreamSource(streams, small_config.stream_start_delay_s)
    return ScanSimulator(
        source, small_config, abm, obs=obs, obs_process=f"shard{shard}"
    )


def _fleet(tiny_schema, small_config, shards=3, identical=False):
    return [
        _fleet_simulator(tiny_schema, small_config, shard, identical=identical)
        for shard in range(shards)
    ]


def _packed_events(recorder):
    """Trace events as comparable tuples (args flattened deterministically)."""
    return [
        (e.name, e.cat, e.ph, e.ts, e.pid, e.tid, e.dur, e.id,
         repr(sorted(e.args.items())))
        for e in recorder.trace.events
    ]


class TestIndependentFleet:
    def test_each_member_runs_its_solo_trajectory(self, tiny_schema, small_config):
        solo = [
            scheduling_fingerprint(simulator.run())
            for simulator in _fleet(tiny_schema, small_config)
        ]
        fleet = LockstepRunner(_fleet(tiny_schema, small_config)).run()
        assert [scheduling_fingerprint(run) for run in fleet] == solo

    def test_simultaneous_events_across_shards(self, tiny_schema, small_config):
        # Identical members put every fleet event at the same timestamps,
        # so every round steps all of them inside one zero-width window.
        runs = LockstepRunner(
            _fleet(tiny_schema, small_config, identical=True)
        ).run()
        first = scheduling_fingerprint(runs[0])
        assert all(scheduling_fingerprint(run) == first for run in runs[1:])

    def test_shared_recorder_holds_every_solo_event(self, tiny_schema, small_config):
        runner = LockstepRunner(
            _fleet(tiny_schema, small_config), obs=ObservabilityConfig()
        )
        runner.run()
        shared = runner.flight_recorder
        solo = []
        for shard in range(3):
            simulator = _fleet_simulator(
                tiny_schema, small_config, shard, obs=ObservabilityConfig()
            )
            simulator.run()
            solo.extend(_packed_events(simulator.flight_recorder))
        assert sorted(_packed_events(shared)) == sorted(solo)

    def test_only_stepped_members_are_reprobed(
        self, tiny_schema, small_config, monkeypatch
    ):
        calls = {"probes": 0, "steps": 0}
        probe, step = ScanSimulator.next_step_time, ScanSimulator.step

        def counted_probe(self):
            calls["probes"] += 1
            return probe(self)

        def counted_step(self, now):
            calls["steps"] += 1
            return step(self, now)

        monkeypatch.setattr(ScanSimulator, "next_step_time", counted_probe)
        monkeypatch.setattr(ScanSimulator, "step", counted_step)
        fleet = _fleet(tiny_schema, small_config, shards=4)
        runner = LockstepRunner(fleet)
        runner.run()
        # One initial probe each, then one per step of a still-live member.
        assert calls["probes"] <= calls["steps"] + len(fleet)
        driven = dict(calls)
        calls.update(probes=0, steps=0)
        oracle = ReferenceLockstepRunner(_fleet(tiny_schema, small_config, shards=4))
        oracle.run()
        assert calls["steps"] == driven["steps"]
        assert oracle.rounds == runner.rounds
        assert calls["probes"] > driven["probes"]


# ------------------------------------------------------------- touch misses
class _Mailbox(QuerySource):
    """Receives its one query from another simulator's completion."""

    def __init__(self):
        self.inbox = []
        self.polled = 0

    def next_event_time(self):
        return self.inbox[0][0] if self.inbox else None

    def poll(self, now):
        due = [admitted for when, admitted in self.inbox if when <= now]
        self.inbox = [item for item in self.inbox if item[0] > now]
        self.polled += len(due)
        return due

    def on_complete(self, query_id, now):
        return []

    def drained(self):
        return self.polled >= 1


class _Forwarder(ClosedStreamSource):
    """A closed stream that posts work to a mailbox when its query ends."""

    def __init__(self, streams, mailbox, courier):
        super().__init__(streams, 0.0)
        self._mailbox = mailbox
        self._courier = courier

    def on_complete(self, query_id, now):
        self._mailbox.inbox.append(
            (now, AdmittedQuery(spec=make_request(7, range(0, 4))))
        )
        self._courier.posted = True
        return super().on_complete(query_id, now)


class _Courier:
    """Message source that reports (or, ``silent``, hides) its deliveries."""

    def __init__(self, silent):
        self.silent = silent
        self.posted = False

    def take_touched(self):
        touched = {1} if self.posted and not self.silent else set()
        self.posted = False
        return touched

    def earliest_in_flight(self):
        return None


class TestMissedTouch:
    def _run(self, nsm_layout, small_config, silent):
        courier = _Courier(silent)
        mailbox = _Mailbox()
        sender = ScanSimulator(
            _Forwarder([[make_request(0, range(0, 4))]], mailbox, courier),
            small_config,
            make_nsm_abm(nsm_layout, small_config, "relevance"),
        )
        receiver = ScanSimulator(
            mailbox, small_config, make_nsm_abm(nsm_layout, small_config, "relevance")
        )
        return LockstepRunner([sender, receiver], message_source=courier).run()

    def test_reported_touch_delivers_the_work(self, nsm_layout, small_config):
        sent, received = self._run(nsm_layout, small_config, silent=False)
        assert [query.query_id for query in received.queries] == [7]
        assert received.queries[0].arrival_time == sent.total_time

    def test_unreported_touch_fails_loudly(self, nsm_layout, small_config):
        with pytest.raises(
            SimulationError,
            match=r"lockstep frontier missed a touch on shard 1 "
            r"\(cached idle, fresh probe \d+\.\d+\)",
        ):
            self._run(nsm_layout, small_config, silent=True)
