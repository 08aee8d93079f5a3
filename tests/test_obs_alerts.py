"""SLO burn-rate and utilisation-threshold alerting.

Covers the rule validation, the trailing-window burn-rate and utilisation
math on hand-built series, the rejection paths (every input series passes
``validate_timeline``: NaN indicators and backwards stamps raise instead of
producing NaN burn rates), the multi-window guard, and the end-to-end
acceptance scenario: on a scripted degraded-shard cluster run the burn-rate
alert fires *during* the degradation window (simulated time) with the
degraded shard's disk phase as top blame, while the healthy baseline stays
alert-free.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster import ShardMap, run_cluster_service
from repro.common.config import (
    ClusterConfig,
    FailureConfig,
    FailureEvent,
    ObservabilityConfig,
    ServiceConfig,
)
from repro.common.errors import ConfigurationError, SimulationError
from repro.obs.alerts import (
    AlertPolicy,
    BurnRateRule,
    QueryCompletion,
    ThresholdRule,
    burn_rate_points,
    evaluate_alerts,
    render_health_digest,
    utilisation_points,
)
from repro.obs.postmortem import build_breakdown
from repro.service import Arrival, run_service
from repro.sim.setup import make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from tests.conftest import make_request

NUM_CHUNKS = 32


# ------------------------------------------------------------- config guards
class TestRuleValidation:
    def test_burn_rule_rejects_bad_budget(self):
        with pytest.raises(ConfigurationError, match="budget"):
            BurnRateRule("r", threshold_s=1.0, budget=0.0)
        with pytest.raises(ConfigurationError, match="budget"):
            BurnRateRule("r", threshold_s=1.0, budget=1.5)

    def test_burn_rule_rejects_inverted_windows(self):
        with pytest.raises(ConfigurationError, match="fast window"):
            BurnRateRule("r", threshold_s=1.0, fast_window_s=10.0,
                         slow_window_s=5.0)

    def test_burn_rule_rejects_nonpositive_threshold(self):
        with pytest.raises(ConfigurationError, match="threshold_s"):
            BurnRateRule("r", threshold_s=0.0)

    def test_threshold_rule_rejects_bad_level(self):
        with pytest.raises(ConfigurationError, match="threshold"):
            ThresholdRule("r", series="disk", threshold=0.0)
        with pytest.raises(ConfigurationError, match="threshold"):
            ThresholdRule("r", series="disk", threshold=1.5)

    def test_policy_rejects_duplicate_names(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            AlertPolicy(
                burn_rules=(BurnRateRule("same", threshold_s=1.0),),
                threshold_rules=(ThresholdRule("same", series="disk",
                                               threshold=0.5),),
            )

    def test_empty_policy_is_empty(self):
        assert AlertPolicy().is_empty
        assert not AlertPolicy(
            burn_rules=(BurnRateRule("r", threshold_s=1.0),)
        ).is_empty


# ------------------------------------------------------------ window math
class TestBurnRatePoints:
    def test_all_good_burns_zero(self):
        samples = [(float(i), 0.0) for i in range(1, 6)]
        points = burn_rate_points(samples, window_s=10.0, budget=0.1)
        assert [burn for _, burn in points] == [0.0] * 5

    def test_all_bad_burns_inverse_budget(self):
        samples = [(float(i), 1.0) for i in range(1, 6)]
        points = burn_rate_points(samples, window_s=10.0, budget=0.1)
        assert all(burn == pytest.approx(10.0) for _, burn in points)

    def test_window_forgets_old_badness(self):
        samples = [(0.0, 1.0), (1.0, 1.0), (10.0, 0.0), (11.0, 0.0)]
        points = burn_rate_points(samples, window_s=2.0, budget=0.5)
        assert points[1][1] == pytest.approx(2.0)
        assert points[-1][1] == 0.0

    def test_nan_indicator_raises(self):
        with pytest.raises(SimulationError):
            burn_rate_points([(0.0, float("nan"))], window_s=1.0, budget=0.1)

    def test_backwards_stamps_raise(self):
        with pytest.raises(SimulationError):
            burn_rate_points([(1.0, 0.0), (0.5, 1.0)], window_s=1.0,
                             budget=0.1)

    def test_non_binary_indicator_raises(self):
        with pytest.raises(SimulationError, match="0 or 1"):
            burn_rate_points([(0.0, 0.5)], window_s=1.0, budget=0.1)

    def test_nonpositive_window_raises(self):
        with pytest.raises(SimulationError, match="window_s"):
            burn_rate_points([(0.0, 0.0)], window_s=0.0, budget=0.1)


class TestUtilisationPoints:
    def test_fully_busy_window_is_one(self):
        busy = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        points = utilisation_points(busy, window_s=1.0)
        assert points[-1][1] == pytest.approx(1.0)

    def test_half_busy_window(self):
        busy = [(2.0, 1.0)]
        points = utilisation_points(busy, window_s=2.0)
        assert points[0][1] == pytest.approx(0.5)

    def test_backwards_busy_seconds_raise(self):
        with pytest.raises(SimulationError, match="backwards"):
            utilisation_points([(1.0, 2.0), (2.0, 1.0)], window_s=1.0)

    def test_backwards_time_raises(self):
        with pytest.raises(SimulationError):
            utilisation_points([(2.0, 1.0), (1.0, 2.0)], window_s=1.0)

    def test_nan_busy_seconds_raise(self):
        with pytest.raises(SimulationError):
            utilisation_points([(1.0, float("nan"))], window_s=1.0)


# --------------------------------------------------------------- evaluation
def _completion(finish, total, query_class="default"):
    return QueryCompletion(
        finish_time=finish,
        query_class=query_class,
        breakdown=build_breakdown(total, disk_transfer=total),
    )


class TestEvaluateAlerts:
    def test_multi_window_guard_filters_short_spike(self):
        # A long good stretch, then 3 bad completions in one burst: the
        # fast window screams but the slow window stays below its burn
        # threshold, so nothing fires.
        completions = [_completion(0.1 * i, 0.1) for i in range(60)]
        completions += [_completion(6.0 + 0.1 * i, 5.0) for i in range(1, 4)]
        policy = AlertPolicy(burn_rules=(BurnRateRule(
            "slo", threshold_s=1.0, budget=0.05, fast_window_s=0.5,
            fast_burn=6.0, slow_window_s=10.0, slow_burn=3.0),))
        alerts = evaluate_alerts(policy, completions, {}, 10.0)
        assert alerts == ()

    def test_sustained_badness_fires_with_blame(self):
        completions = [_completion(0.1 * i, 5.0) for i in range(1, 40)]
        policy = AlertPolicy(burn_rules=(BurnRateRule(
            "slo", threshold_s=1.0, budget=0.05, fast_window_s=0.5,
            fast_burn=6.0, slow_window_s=2.0, slow_burn=3.0),))
        alerts = evaluate_alerts(policy, completions, {}, 4.0)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.kind == "burn-rate"
        assert alert.active
        assert alert.top_phase == "disk_transfer"
        assert alert.peak == pytest.approx(20.0)

    def test_class_filter_only_sees_its_class(self):
        bad_batch = [_completion(0.1 * i, 5.0, "batch") for i in range(1, 30)]
        good_live = [_completion(0.1 * i + 0.05, 0.1, "live")
                     for i in range(1, 30)]
        rule = BurnRateRule("live-slo", threshold_s=1.0, budget=0.05,
                            fast_window_s=0.5, fast_burn=6.0,
                            slow_window_s=2.0, slow_burn=3.0,
                            query_class="live")
        alerts = evaluate_alerts(AlertPolicy(burn_rules=(rule,)),
                                 bad_batch + good_live, {}, 3.0)
        assert alerts == ()

    def test_threshold_rule_missing_series_raises(self):
        policy = AlertPolicy(threshold_rules=(ThresholdRule(
            "hot", series="absent.disk", threshold=0.9),))
        with pytest.raises(SimulationError, match="absent.disk"):
            evaluate_alerts(policy, [], {"disk": ((1.0, 1.0),)}, 2.0)

    def test_threshold_rule_fires_and_respects_for_s(self):
        busy = tuple((0.5 * i, 0.5 * i) for i in range(1, 9))
        firing = AlertPolicy(threshold_rules=(ThresholdRule(
            "hot", series="disk", threshold=0.9, window_s=1.0, for_s=1.0),))
        alerts = evaluate_alerts(firing, [], {"disk": busy}, 4.0)
        assert len(alerts) == 1 and alerts[0].kind == "threshold"
        too_long = AlertPolicy(threshold_rules=(ThresholdRule(
            "hot", series="disk", threshold=0.9, window_s=1.0, for_s=10.0),))
        assert evaluate_alerts(too_long, [], {"disk": busy}, 4.0) == ()

    def test_alerts_emitted_as_flight_recorder_instants(self):
        from repro.obs.recorder import build_flight_recorder

        recorder = build_flight_recorder(ObservabilityConfig())
        completions = [_completion(0.1 * i, 5.0) for i in range(1, 40)]
        policy = AlertPolicy(burn_rules=(BurnRateRule(
            "slo", threshold_s=1.0, budget=0.05, fast_window_s=0.5,
            fast_burn=6.0, slow_window_s=2.0, slow_burn=3.0),))
        evaluate_alerts(policy, completions, {}, 4.0, obs=recorder)
        assert any(event.name == "alert.fire" for event in recorder.events)


class TestHealthDigest:
    def test_clean_run_renders_all_clear(self):
        digest = render_health_digest((), 12.0)
        assert "no alerts fired" in digest
        assert "12.0s" in digest

    def test_firing_alert_names_top_phase(self):
        completions = [_completion(0.1 * i, 5.0) for i in range(1, 40)]
        policy = AlertPolicy(burn_rules=(BurnRateRule(
            "slo", threshold_s=1.0, budget=0.05, fast_window_s=0.5,
            fast_burn=6.0, slow_window_s=2.0, slow_burn=3.0),))
        alerts = evaluate_alerts(policy, completions, {}, 4.0)
        digest = render_health_digest(alerts, 4.0)
        assert "[burn-rate] slo" in digest
        assert "top blame: disk_transfer" in digest
        assert "ACTIVE" in digest


# ------------------------------------------------- end-to-end run scenarios
def _shard_abms(tiny_schema, small_config, cluster, policy="relevance"):
    shard_map = ShardMap.from_cluster_config(cluster, NUM_CHUNKS)
    tuples_per_chunk = small_config.buffer.chunk_bytes // 32
    return [
        make_nsm_abm(
            NSMTableLayout.from_buffer_config(
                tiny_schema,
                shard_map.chunks_owned(shard) * tuples_per_chunk,
                small_config.buffer,
            ),
            small_config,
            policy,
            capacity_chunks=4,
        )
        for shard in range(cluster.shards)
    ]


def _arrivals(count, spacing=0.25):
    return [
        Arrival(spacing * index,
                make_request(index + 1, range(NUM_CHUNKS), name="F",
                             cpu_per_chunk=0.001))
        for index in range(count)
    ]


DEGRADED_POLICY = AlertPolicy(
    burn_rules=(BurnRateRule("slo-latency", threshold_s=0.1, budget=0.05,
                             fast_window_s=1.0, fast_burn=6.0,
                             slow_window_s=4.0, slow_burn=3.0),),
    threshold_rules=(ThresholdRule("shard2-disk-hot", series="shard2.disk",
                                   threshold=0.9, window_s=1.0, for_s=0.5),),
)

DEGRADE_START, DEGRADE_END = 1.0, 4.0


def _degraded_cluster(with_failure):
    events = ()
    if with_failure:
        events = (FailureEvent(DEGRADE_START, 2, "degrade"),
                  FailureEvent(DEGRADE_END, 2, "repair"))
    return ClusterConfig(
        shards=4, replicas=2,
        failures=FailureConfig(events=events, degrade_factor=0.05),
    )


class TestDegradedShardScenario:
    def test_healthy_baseline_fires_nothing(self, tiny_schema, small_config):
        cluster = _degraded_cluster(False)
        result = run_cluster_service(
            _arrivals(24), small_config,
            _shard_abms(tiny_schema, small_config, cluster), cluster,
            alerts=DEGRADED_POLICY,
        )
        assert result.alerts == ()
        assert "no alerts fired" in result.health_digest()

    def test_alert_fires_during_degradation_with_disk_blame(
        self, tiny_schema, small_config
    ):
        cluster = _degraded_cluster(True)
        result = run_cluster_service(
            _arrivals(24), small_config,
            _shard_abms(tiny_schema, small_config, cluster), cluster,
            alerts=DEGRADED_POLICY,
        )
        burn = [alert for alert in result.alerts if alert.kind == "burn-rate"]
        assert burn, result.alerts
        # Fires *during* the degradation window on the simulated clock,
        # not at the end of the run.
        assert DEGRADE_START <= burn[0].start <= DEGRADE_END
        assert burn[0].top_phase in ("disk_transfer", "disk_seek")
        hot = [alert for alert in result.alerts if alert.kind == "threshold"]
        assert hot and hot[0].rule == "shard2-disk-hot"
        digest = result.health_digest()
        assert "slo-latency" in digest and "disk" in digest


class TestServiceAlerts:
    def _run(self, tiny_schema, small_config, alerts):
        tuples = NUM_CHUNKS * (small_config.buffer.chunk_bytes // 32)
        layout = NSMTableLayout.from_buffer_config(
            tiny_schema, tuples, small_config.buffer
        )
        abm = make_nsm_abm(layout, small_config, "relevance")
        return run_service(
            _arrivals(8, spacing=0.1), small_config, abm, ServiceConfig(),
            alerts=alerts,
        )

    def test_disk_threshold_alert_on_saturated_single_node(
        self, tiny_schema, small_config
    ):
        policy = AlertPolicy(threshold_rules=(ThresholdRule(
            "disk-hot", series="disk", threshold=0.9, window_s=0.5),))
        result = self._run(tiny_schema, small_config, policy)
        assert result.alerts
        assert result.alerts[0].rule == "disk-hot"
        assert "disk-hot" in result.health_digest()

    def test_no_policy_means_no_alerts(self, tiny_schema, small_config):
        result = self._run(tiny_schema, small_config, None)
        assert result.alerts == ()
        assert "no alerts fired" in result.health_digest()
