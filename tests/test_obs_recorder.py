"""Unit tests for the flight recorder: events, buffers, exporters."""

import pytest

from repro.common.config import ObservabilityConfig
from repro.common.errors import ConfigurationError
from repro.obs import (
    FlightRecorder,
    TraceEvent,
    TraceRecorder,
    build_flight_recorder,
    chrome_trace,
    read_jsonl,
    to_jsonl,
    validate_chrome_trace,
)
from repro.obs.events import PH_ASYNC_BEGIN, PH_ASYNC_END, PH_COMPLETE, PH_INSTANT


class TestTraceEvent:
    def test_round_trips_through_dict(self):
        event = TraceEvent("disk.seek", "disk", PH_COMPLETE, 1.5,
                           "service", "vol0", dur=0.002, args={"chunk": 3})
        assert TraceEvent.from_dict(event.as_dict()) == event

    def test_equality_covers_all_fields(self):
        base = TraceEvent("a", "cat", PH_INSTANT, 0.0, "p", "t")
        assert base == TraceEvent("a", "cat", PH_INSTANT, 0.0, "p", "t")
        assert base != TraceEvent("b", "cat", PH_INSTANT, 0.0, "p", "t")
        assert base != TraceEvent("a", "cat", PH_INSTANT, 0.5, "p", "t")
        assert base != TraceEvent("a", "cat", PH_INSTANT, 0.0, "p", "t",
                                  args={"x": 1})


    def test_as_dict_keeps_only_the_phase_fields(self):
        instant = TraceEvent("a", "cat", PH_INSTANT, 1.0, "p", "t").as_dict()
        assert instant == {"name": "a", "cat": "cat", "ph": PH_INSTANT,
                           "ts": 1.0, "pid": "p", "tid": "t"}
        begin = TraceEvent("q", "cat", PH_ASYNC_BEGIN, 0.0, "p", "t", id=4)
        assert begin.as_dict()["id"] == 4
        assert "dur" not in begin.as_dict()
        assert TraceEvent.from_dict(begin.as_dict()) == begin

    def test_not_equal_to_other_types(self):
        assert TraceEvent("a", "cat", PH_INSTANT, 0.0, "p", "t") != ("a", "cat")


class TestTraceRecorder:
    def test_appends_in_emission_order(self):
        recorder = TraceRecorder()
        recorder.emit(TraceEvent("b", "cat", PH_INSTANT, 1.0, "p", "t"))
        recorder.emit(TraceEvent("a", "cat", PH_INSTANT, 0.5, "p", "t"))
        assert [event.name for event in recorder.events] == ["b", "a"]

    def test_caps_events_and_counts_dropped(self):
        recorder = TraceRecorder(max_events=3)
        for index in range(5):
            recorder.emit(TraceEvent(f"e{index}", "cat", PH_INSTANT,
                                     float(index), "p", "t"))
        assert recorder.dropped == 2
        assert [event.name for event in recorder.events] == ["e0", "e1", "e2"]


class TestFlightRecorder:
    def test_tracing_disabled_leaves_metrics_working(self):
        flight = FlightRecorder(ObservabilityConfig(trace=False))
        flight.instant("x", "cat", 0.0, "p", "t")
        flight.set_gauge("depth", 0.0, 2.0)
        assert flight.trace is None
        assert flight.events == []
        assert flight.metrics.series("depth") == [(0.0, 2.0)]

    def test_metrics_disabled_leaves_tracing_working(self):
        flight = FlightRecorder(ObservabilityConfig(metrics=False))
        flight.set_gauge("depth", 0.0, 2.0)
        flight.inc_counter("shed", 0.0)
        flight.observe("latency", 0.0, 1.0)
        flight.instant("x", "cat", 0.0, "p", "t")
        assert flight.metrics is None
        assert [event.name for event in flight.events] == ["x"]

    def test_emitters_set_phase_duration_and_id(self):
        flight = FlightRecorder()
        flight.instant("i", "cat", 0.0, "p", "t", chunk=1)
        flight.complete("x", "cat", 1.0, 0.5, "p", "t")
        flight.async_begin("q", "cat", 2.0, 7, "p", "t")
        flight.async_end("q", "cat", 3.0, 7, "p", "t")
        assert [event.ph for event in flight.events] == [
            PH_INSTANT, PH_COMPLETE, PH_ASYNC_BEGIN, PH_ASYNC_END
        ]
        instant, span, begin, end = flight.events
        assert instant.args == {"chunk": 1}
        assert span.dur == 0.5
        assert (begin.id, end.id) == (7, 7)

    def test_metric_emitters_feed_the_registry(self):
        flight = FlightRecorder()
        flight.inc_counter("shed", 0.0)
        flight.inc_counter("shed", 1.0, 2.0)
        flight.observe("latency", 1.0, 0.25)
        assert flight.metrics.series("shed") == [(0.0, 1.0), (1.0, 3.0)]
        assert flight.metrics.series("latency") == [(1.0, 0.25)]
        assert flight.summary_lines() == ["0 trace events", "2 metric series"]

    def test_fully_disabled_recorder_is_silent(self):
        flight = FlightRecorder(ObservabilityConfig(trace=False, metrics=False))
        flight.complete("x", "cat", 0.0, 1.0, "p", "t")
        flight.observe("latency", 0.0, 1.0)
        assert flight.events == []
        assert flight.summary_lines() == []

    def test_summary_lines_mention_drops(self):
        flight = FlightRecorder(ObservabilityConfig(max_trace_events=1))
        flight.instant("a", "cat", 0.0, "p", "t")
        flight.instant("b", "cat", 1.0, "p", "t")
        assert any("1 dropped at cap" in line for line in flight.summary_lines())

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ConfigurationError):
            ObservabilityConfig(max_trace_events=0)


class TestBuildFlightRecorder:
    def test_none_is_none(self):
        assert build_flight_recorder(None) is None

    def test_config_builds_fresh_recorder(self):
        config = ObservabilityConfig(max_trace_events=7)
        flight = build_flight_recorder(config)
        assert isinstance(flight, FlightRecorder)
        assert flight.trace.max_events == 7

    def test_existing_recorder_passes_through(self):
        flight = FlightRecorder()
        assert build_flight_recorder(flight) is flight

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            build_flight_recorder(object())


def _populated_recorder() -> FlightRecorder:
    flight = FlightRecorder()
    flight.async_begin("Q0", "query", 0.0, 0, "frontdoor", "queries",
                       query_class="default")
    flight.complete("disk.seek", "disk", 0.1, 0.002, "service", "vol0",
                    chunk=1)
    flight.instant("frontdoor.arrival", "frontdoor", 0.2, "frontdoor",
                   "arrivals", query=1)
    flight.async_end("Q0", "query", 0.9, 0, "frontdoor", "queries")
    flight.set_gauge("frontdoor.mpl.active", 0.0, 1.0)
    flight.set_gauge("frontdoor.mpl.active", 0.9, 0.0)
    return flight


class TestJsonlExport:
    def test_round_trip_is_exact(self):
        flight = _populated_recorder()
        assert read_jsonl(to_jsonl(flight)) == flight.events

    def test_header_carries_schema_and_count(self):
        import json

        flight = _populated_recorder()
        header = json.loads(to_jsonl(flight).splitlines()[0])
        assert header["schema"] == "repro-trace-jsonl"
        assert header["events"] == len(flight.events)


class TestChromeTrace:
    def test_validates_and_counts_records(self):
        flight = _populated_recorder()
        payload = chrome_trace(flight)
        # 4 trace events + 2 counter samples; metadata records excluded.
        assert validate_chrome_trace(payload) == 6

    def test_labels_become_metadata_records(self):
        payload = chrome_trace(_populated_recorder())
        names = {
            record["args"]["name"]
            for record in payload["traceEvents"]
            if record["ph"] == "M" and record["name"] == "process_name"
        }
        assert names == {"frontdoor", "service", "metrics"}

    def test_timestamps_are_microseconds(self):
        payload = chrome_trace(_populated_recorder())
        seek = next(record for record in payload["traceEvents"]
                    if record.get("name") == "disk.seek")
        assert seek["ts"] == pytest.approx(0.1 * 1e6)
        assert seek["dur"] == pytest.approx(0.002 * 1e6)

    def test_rejects_unknown_phase(self):
        payload = chrome_trace(_populated_recorder())
        payload["traceEvents"].append(
            {"name": "bad", "ph": "Z", "ts": 0, "pid": 1, "tid": 1}
        )
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace(payload)

    def test_rejects_unnamed_pid(self):
        payload = chrome_trace(_populated_recorder())
        payload["traceEvents"].append(
            {"name": "orphan", "cat": "x", "ph": "i", "s": "t",
             "ts": 0.0, "pid": 99, "tid": 1}
        )
        with pytest.raises(ValueError, match="no process_name"):
            validate_chrome_trace(payload)

    def test_rejects_span_without_duration(self):
        payload = chrome_trace(_populated_recorder())
        payload["traceEvents"].append(
            {"name": "span", "cat": "x", "ph": "X", "ts": 0.0,
             "pid": 1, "tid": 1}
        )
        with pytest.raises(ValueError, match="needs dur"):
            validate_chrome_trace(payload)

    def test_rejects_async_without_id(self):
        payload = chrome_trace(_populated_recorder())
        payload["traceEvents"].append(
            {"name": "life", "cat": "x", "ph": "b", "ts": 0.0,
             "pid": 1, "tid": 1}
        )
        with pytest.raises(ValueError, match="needs an id"):
            validate_chrome_trace(payload)

    def test_rejects_missing_trace_events_array(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"foo": []})
