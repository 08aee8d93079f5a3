"""Tracing a service run must observe everything and change nothing."""

import pytest

from repro.common.config import ObservabilityConfig, ServiceConfig
from repro.common.errors import ConfigurationError
from repro.obs import (
    FlightRecorder,
    chrome_trace,
    read_jsonl,
    render_run_timelines,
    to_jsonl,
    validate_chrome_trace,
)
from repro.obs.events import PH_ASYNC_BEGIN, PH_ASYNC_END
from repro.service import poisson_arrivals, run_service
from repro.sim.results import scheduling_fingerprint
from repro.sim.setup import make_dsm_abm, make_nsm_abm
from repro.workload.queries import QueryFamily, QueryTemplate


@pytest.fixture
def templates():
    fast = QueryFamily("F", cpu_per_chunk=0.002)
    slow = QueryFamily("S", cpu_per_chunk=0.02)
    return (
        QueryTemplate(fast, 25),
        QueryTemplate(fast, 50),
        QueryTemplate(slow, 25),
    )


def _run(layout, config, templates, policy, obs, abm_maker=make_nsm_abm,
         service=None):
    arrivals = poisson_arrivals(templates, layout, 2.5, 10, seed=11)
    return run_service(
        arrivals, config, abm_maker(layout, config, policy),
        service or ServiceConfig(max_concurrent=3), obs=obs,
    )


class TestTracingChangesNothing:
    @pytest.mark.parametrize("policy", ["normal", "attach", "relevance"])
    def test_nsm_fingerprints_identical(
        self, templates, nsm_layout, small_config, policy
    ):
        plain = _run(nsm_layout, small_config, templates, policy, obs=None)
        traced = _run(nsm_layout, small_config, templates, policy,
                      obs=ObservabilityConfig())
        assert scheduling_fingerprint(plain.run) == scheduling_fingerprint(
            traced.run
        )
        assert plain.slo.as_dict() == traced.slo.as_dict()
        assert plain.obs is None
        assert traced.obs is not None
        assert len(traced.obs.events) > 0

    def test_dsm_fingerprints_identical(
        self, templates, dsm_layout, small_config
    ):
        plain = _run(dsm_layout, small_config, templates, "relevance",
                     obs=None, abm_maker=make_dsm_abm)
        traced = _run(dsm_layout, small_config, templates, "relevance",
                      obs=ObservabilityConfig(), abm_maker=make_dsm_abm)
        assert scheduling_fingerprint(plain.run) == scheduling_fingerprint(
            traced.run
        )
        assert plain.slo.as_dict() == traced.slo.as_dict()

    def test_no_config_builds_no_recorder(
        self, templates, nsm_layout, small_config
    ):
        result = _run(nsm_layout, small_config, templates, "relevance",
                      obs=None)
        assert result.obs is None


class TestTraceContent:
    @pytest.fixture
    def traced(self, templates, nsm_layout, small_config):
        return _run(nsm_layout, small_config, templates, "relevance",
                    obs=ObservabilityConfig())

    def test_point_events_emitted_in_time_order(self, traced):
        # Complete spans are emitted retroactively (at span end, stamped
        # with span start), but point events of one layer must appear in
        # simulated-clock order.
        for cat in ("frontdoor", "admission", "query", "exec", "abm"):
            times = [event.ts for event in traced.obs.events
                     if event.cat == cat and event.ph != "X"]
            assert times, f"expected {cat} events in a traced run"
            assert all(a <= b + 1e-9 for a, b in zip(times, times[1:])), cat

    def test_every_query_has_paired_lifecycles(self, traced):
        # Each query gets a front-door ("query") and a simulator ("exec")
        # async pair; ends match begins id-for-id.
        for cat in ("query", "exec"):
            begins = [e.id for e in traced.obs.events
                      if e.cat == cat and e.ph == PH_ASYNC_BEGIN]
            ends = [e.id for e in traced.obs.events
                    if e.cat == cat and e.ph == PH_ASYNC_END]
            assert len(begins) == 10
            assert sorted(begins) == sorted(ends)

    def test_spans_nest_inside_their_query_lifecycle(self, traced):
        begin_at = {e.id: e.ts for e in traced.obs.events
                    if e.cat == "exec" and e.ph == PH_ASYNC_BEGIN}
        end_at = {e.id: e.ts for e in traced.obs.events
                  if e.cat == "exec" and e.ph == PH_ASYNC_END}
        spans = [e for e in traced.obs.events if e.name == "cpu.chunk"]
        assert spans, "expected cpu.chunk spans in a traced run"
        for span in spans:
            query = span.args["query"]
            assert span.ts >= begin_at[query] - 1e-9
            assert span.ts + span.dur <= end_at[query] + 1e-9

    def test_disk_spans_land_on_volume_tracks(self, traced):
        seeks = [e for e in traced.obs.events if e.name == "disk.seek"]
        transfers = [e for e in traced.obs.events if e.name == "disk.transfer"]
        assert seeks and len(seeks) == len(transfers)
        assert {event.tid for event in seeks} <= {"vol0"}
        for seek, transfer in zip(seeks, transfers):
            assert transfer.ts == pytest.approx(seek.ts + seek.dur)

    def test_expected_metric_series_recorded(self, traced):
        names = set(traced.obs.metrics.names())
        assert "frontdoor.mpl.active" in names
        assert "frontdoor.mpl.limit" in names
        assert "service.abm.hit_rate" in names
        assert "service.abm.starved_queries" in names
        assert any(name.endswith(".depth") for name in names)

    def test_exports_round_trip_and_validate(self, traced):
        assert read_jsonl(to_jsonl(traced.obs)) == traced.obs.events
        assert validate_chrome_trace(chrome_trace(traced.obs)) >= len(
            traced.obs.events
        )

    def test_timeline_drilldown_renders(self, traced):
        text = render_run_timelines(traced.obs)
        assert "frontdoor.mpl.active" in text
        assert "window" in text

    def test_scheduling_counters_reconcile_with_run(self, traced):
        run = traced.run
        assert len(run.queries) == 10
        assert run.scheduling_calls > 0
        assert run.scheduling_seconds > 0.0
        assert run.per_decision_seconds == pytest.approx(
            run.scheduling_seconds / run.scheduling_calls
        )
        assert run.scheduling_fraction == pytest.approx(
            run.scheduling_seconds / run.total_time
        )


class TestDisciplineTraceVocabulary:
    def test_priority_discipline_is_rejected(self):
        # "priority" (the old name of "sjf") can no longer reach a trace:
        # the config rejects it before any run starts.
        with pytest.raises(ConfigurationError, match="'sjf'"):
            ServiceConfig(max_concurrent=1, discipline="priority")

    def test_sjf_discipline_traces_as_sjf(
        self, templates, nsm_layout, small_config
    ):
        # Every admission event names the discipline "sjf".
        result = _run(
            nsm_layout, small_config, templates, "relevance",
            obs=ObservabilityConfig(),
            service=ServiceConfig(max_concurrent=1, discipline="sjf"),
        )
        disciplines = {
            event.args["discipline"]
            for event in result.obs.events
            if "discipline" in event.args
        }
        assert disciplines == {"sjf"}
        for event in result.obs.events:
            assert "priority" not in event.name
            assert event.args.get("discipline") != "priority"
