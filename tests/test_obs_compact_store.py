"""The recorder's compact rows rebuild exactly the events it was sent.

:class:`repro.obs.recorder.TraceRecorder` stores events column-wise and
builds :class:`TraceEvent` records only when they are read.  The
property test here drives random emitter calls into a
:class:`FlightRecorder` and into ``tests/reference_obs.py``'s
:class:`KeywordFlightRecorder`, whose :class:`EagerTrace` builds one
``TraceEvent`` per emission the way the recorder did before the rows, and
requires the same events, counts and summary.  The pinned hashes hold the
JSONL and Chrome trace exports of two traced cluster runs (the
``examples/flight_recorder.py`` workload and ``bench_obs_overhead``'s
traced run) to the bytes those eager records produced.
"""

from __future__ import annotations

import hashlib
import json
import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.coordinator import run_cluster_service
from repro.common.config import ObservabilityConfig
from repro.obs import FlightRecorder, chrome_trace, read_jsonl, to_jsonl
from repro.obs.events import PH_ASYNC_BEGIN, PH_ASYNC_END, PH_COMPLETE, PH_INSTANT
from tests.reference_obs import KeywordFlightRecorder

REPO = Path(__file__).resolve().parent.parent


def _send(flight: FlightRecorder, phase, name, cat, ts, dur, id, pid, tid, args):
    if phase == PH_INSTANT:
        flight.instant(name, cat, ts, pid, tid, **args)
    elif phase == PH_COMPLETE:
        flight.complete(name, cat, ts, dur, pid, tid, **args)
    elif phase == PH_ASYNC_BEGIN:
        flight.async_begin(name, cat, ts, id, pid, tid, **args)
    else:
        flight.async_end(name, cat, ts, id, pid, tid, **args)


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_values = st.one_of(
    st.integers(-10**12, 10**12),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    _finite,
    st.lists(st.integers(-100, 100), max_size=4),
)
_calls = st.tuples(
    st.sampled_from((PH_INSTANT, PH_COMPLETE, PH_ASYNC_BEGIN, PH_ASYNC_END)),
    st.sampled_from(("abm.evict", "disk.seek", "Q0", "cluster.scatter")),
    st.sampled_from(("abm", "disk", "query")),
    _finite,
    _finite,
    st.integers(0, 50),
    st.sampled_from(("service", "shard0", "shard1", "frontdoor")),
    st.sampled_from(("abm", "vol0", "cpu")),
    st.dictionaries(
        st.sampled_from(("query", "chunk", "victims", "woken", "a", "zz")),
        _values,
        max_size=6,
    ),
)


def _assert_rows_rebuild_the_eager_events(calls, max_events) -> None:
    flight = FlightRecorder(ObservabilityConfig(max_trace_events=max_events))
    eager = KeywordFlightRecorder(
        ObservabilityConfig(max_trace_events=max_events, metrics=False)
    )
    for phase, name, cat, ts, dur, id, pid, tid, args in calls:
        _send(flight, phase, name, cat, ts, dur, id, pid, tid, args)
        _send(eager, phase, name, cat, ts, dur, id, pid, tid, dict(args))
    assert flight.events == eager.events
    assert [list(event.args) for event in flight.events] == [
        list(event.args) for event in eager.events
    ]
    assert len(flight.trace.events) == len(flight.trace) == len(eager.events)
    assert flight.trace.dropped == eager.trace.dropped
    assert flight.summary_lines() == eager.summary_lines() + ["0 metric series"]


@settings(max_examples=60, deadline=None)
@given(calls=st.lists(_calls, max_size=40), max_events=st.integers(1, 30))
def test_rows_rebuild_the_eager_events(calls, max_events):
    _assert_rows_rebuild_the_eager_events(calls, max_events)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(calls=st.lists(_calls, max_size=40), max_events=st.integers(1, 30))
def test_rows_rebuild_the_eager_events_many_examples(calls, max_events):
    _assert_rows_rebuild_the_eager_events(calls, max_events)


def test_events_are_rebuilt_on_each_read():
    flight = FlightRecorder()
    flight.instant("a", "abm", 0.0, "p", "t", victims=[1, 2])
    first, second = flight.events, flight.events
    assert first == second and first is not second
    assert first[0] is not second[0]


def test_tuples_read_back_as_lists():
    """A tuple value, stored as it was passed, reads back as the list its
    JSONL round trip gives, nested tuples too, on both ways in."""
    flight = FlightRecorder()
    write = flight.instant_writer("abm.evict", "abm", "p", "t", "victims", "for_chunk")
    write(1.0, ((3, "a"), (4, "b")), 7)
    flight.instant("cluster.gather", "cluster", 2.0, "p", "t", shards=(0, 2))
    evict, gather = flight.events
    assert evict.args == {"victims": [[3, "a"], [4, "b"]], "for_chunk": 7}
    assert gather.args == {"shards": [0, 2]}
    assert read_jsonl(to_jsonl(flight)) == flight.events


def test_one_kind_per_call_shape():
    flight = FlightRecorder()
    for ts in range(3):
        flight.instant("a", "abm", float(ts), "p", "t", query=ts, chunk=ts)
    flight.instant("a", "abm", 3.0, "p", "t", chunk=3, query=3)
    assert len(flight.trace._kinds) == 2
    assert list(flight.trace._kind_of) == [0, 0, 0, 1]


# ------------------------------------------------------------ export pins
def _digests(flight: FlightRecorder):
    return (
        len(flight.events),
        hashlib.sha256(to_jsonl(flight).encode()).hexdigest(),
        hashlib.sha256(json.dumps(chrome_trace(flight)).encode()).hexdigest(),
    )


def test_example_exports_are_pinned():
    from repro.common.config import BufferConfig, CpuConfig, DiskConfig, SystemConfig
    from repro.common.units import KB, MB

    example = runpy.run_path(
        str(REPO / "examples" / "flight_recorder.py"), run_name="example"
    )
    # The configuration ``examples/flight_recorder.py``'s main() builds.
    config = SystemConfig(
        disk=DiskConfig(bandwidth_bytes_per_s=100 * MB, avg_seek_s=0.002,
                        sequential_seek_s=0.0005),
        cpu=CpuConfig(cores=2),
        buffer=BufferConfig(chunk_bytes=1 * MB, page_bytes=64 * KB,
                            capacity_chunks=8),
    )
    arrivals, cluster, shard_abms = example["build_workload"](config)
    traced = run_cluster_service(
        arrivals, config, shard_abms(), cluster, obs=ObservabilityConfig()
    )
    assert _digests(traced.obs) == (
        1668,
        "f4af6150c6e8bbb7f3449e668b6a8935fe5a11d5492dd619976e9a1ec38bba18",
        "f1dc2112ca59e2a7a99a8257db6b215554738cd55b49943d9231a263ce8e6ce9",
    )


def test_obs_overhead_exports_are_pinned():
    from benchmarks import bench_obs_overhead as bench

    config = bench._config()
    arrivals, cluster, shard_abms = bench._workload(config)
    traced = run_cluster_service(
        arrivals, config, shard_abms(), cluster, obs=ObservabilityConfig()
    )
    assert _digests(traced.obs) == (
        8110,
        "9aa716567f7b1899f0e68b5b10514fbbec15e76f7b90700bf252ecbf6f289c5b",
        "782be8a68a13d75d45529251c8bbeebe8a41d9184e02506164725eb3a19055ca",
    )


def test_example_main_leaves_no_trace_directory(tmp_path, monkeypatch, capsys):
    """``examples/flight_recorder.py``'s ``main()`` writes its exports into
    a temporary directory and removes it before returning."""
    import tempfile

    example = runpy.run_path(
        str(REPO / "examples" / "flight_recorder.py"), run_name="example"
    )
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    example["main"]()
    assert "cluster_trace.jsonl" in capsys.readouterr().out
    assert list(tmp_path.glob("repro_trace_*")) == []
