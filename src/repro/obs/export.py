"""Trace exporters: JSONL event logs and Chrome trace-event JSON.

Two output formats, same event stream:

* **JSONL** — one event per line in the recorder's own schema
  (:meth:`TraceEvent.as_dict`), exact round-trip via :func:`read_jsonl`;
  grep/`jq`-friendly for scripted analysis.
* **Chrome trace-event JSON** — the ``{"traceEvents": [...]}`` object
  format understood by Perfetto (https://ui.perfetto.dev) and
  ``chrome://tracing``.  Track labels are mapped to numeric pids/tids with
  ``"M"`` metadata records, timestamps are converted to microseconds, and
  metric series are attached as ``"C"`` counter samples — so one file shows
  query lifecycles as async tracks, shards as processes, volumes/CPU as
  threads and MPL/queue-depth as counter lanes.

:func:`validate_chrome_trace` checks the structural rules of the format and
is used by tests and the CI observability job before uploading artifacts.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.events import (
    PH_ASYNC_BEGIN,
    PH_ASYNC_END,
    PH_COMPLETE,
    PH_COUNTER,
    PH_INSTANT,
    PH_METADATA,
    TraceEvent,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder, TraceRecorder

#: Bumped whenever the JSONL schema changes shape.
JSONL_SCHEMA_VERSION = 1

_EventSource = Union[FlightRecorder, TraceRecorder, Iterable[TraceEvent]]


def _events_of(source: _EventSource) -> List[TraceEvent]:
    if isinstance(source, (FlightRecorder, TraceRecorder)):
        return source.events  # a fresh list on every read
    return list(source)


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def to_jsonl(source: _EventSource) -> str:
    """Serialise events as JSONL: a header line, then one event per line."""
    events = _events_of(source)
    lines = [json.dumps({"schema": "repro-trace-jsonl",
                         "version": JSONL_SCHEMA_VERSION,
                         "events": len(events)})]
    lines.extend(json.dumps(event.as_dict(), sort_keys=True)
                 for event in events)
    return "\n".join(lines) + "\n"


def write_jsonl(source: _EventSource, path: str) -> int:
    """Write the JSONL log to ``path``; returns the number of events."""
    events = _events_of(source)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_jsonl(events))
    return len(events)


def read_jsonl(text_or_path: str, from_path: bool = False) -> List[TraceEvent]:
    """Parse a JSONL log back into events (exact round-trip of `to_jsonl`)."""
    if from_path:
        with open(text_or_path, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = text_or_path
    events: List[TraceEvent] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        payload = json.loads(line)
        if payload.get("schema") == "repro-trace-jsonl":
            continue
        events.append(TraceEvent.from_dict(payload))
    return events


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------

def _seconds_to_us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def chrome_trace(
    source: _EventSource,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Build a Perfetto-loadable Chrome trace-event object.

    When ``source`` is a :class:`FlightRecorder` its metrics registry is
    attached automatically (pass ``metrics`` explicitly to override).
    """
    if metrics is None and isinstance(source, FlightRecorder):
        metrics = source.metrics
    events = _events_of(source)

    pid_ids: Dict[str, int] = {}
    tid_ids: Dict[Tuple[str, str], int] = {}
    trace_events: List[Dict[str, object]] = []

    def pid_of(label: str) -> int:
        pid = pid_ids.get(label)
        if pid is None:
            pid = pid_ids[label] = len(pid_ids) + 1
            trace_events.append({
                "name": "process_name", "ph": PH_METADATA, "pid": pid,
                "tid": 0, "args": {"name": label},
            })
        return pid

    def tid_of(pid_label: str, tid_label: str) -> int:
        key = (pid_label, tid_label)
        tid = tid_ids.get(key)
        if tid is None:
            tid = tid_ids[key] = len(tid_ids) + 1
            trace_events.append({
                "name": "thread_name", "ph": PH_METADATA,
                "pid": pid_of(pid_label), "tid": tid,
                "args": {"name": tid_label},
            })
        return tid

    for event in events:
        record: Dict[str, object] = {
            "name": event.name,
            "cat": event.cat,
            "ph": event.ph,
            "ts": _seconds_to_us(event.ts),
            "pid": pid_of(event.pid),
            "tid": tid_of(event.pid, event.tid),
        }
        if event.ph == PH_COMPLETE:
            record["dur"] = _seconds_to_us(event.dur)
        if event.ph == PH_INSTANT:
            record["s"] = "t"  # thread-scoped instant
        if event.ph in (PH_ASYNC_BEGIN, PH_ASYNC_END):
            record["id"] = event.id
        if event.args:
            record["args"] = dict(event.args)
        trace_events.append(record)

    if metrics is not None:
        counter_pid = pid_of("metrics")
        for name in metrics.names():
            for ts, value in metrics.series(name):
                trace_events.append({
                    "name": name,
                    "ph": PH_COUNTER,
                    "ts": _seconds_to_us(ts),
                    "pid": counter_pid,
                    "tid": 0,
                    "args": {"value": value},
                })

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs", "clock": "simulated"},
    }


def write_chrome_trace(
    source: _EventSource,
    path: str,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Write the Chrome trace JSON to ``path``; returns the payload."""
    payload = chrome_trace(source, metrics=metrics)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return payload


#: Phases that must carry a ``dur`` field.
_NEEDS_DUR = {PH_COMPLETE}
#: Phases that must carry an ``id`` field.
_NEEDS_ID = {PH_ASYNC_BEGIN, PH_ASYNC_END}
#: All phases the exporter may legally emit.
_KNOWN_PHASES = {PH_COMPLETE, PH_INSTANT, PH_ASYNC_BEGIN, PH_ASYNC_END,
                 PH_METADATA, PH_COUNTER}


def validate_chrome_trace(payload: Dict[str, object]) -> int:
    """Structurally validate a Chrome trace-event object.

    Checks the trace-event format rules Perfetto relies on: the
    ``traceEvents`` array exists, every record names a known phase, spans
    carry non-negative ``dur``, async events carry ``id``, timestamped
    records carry non-negative numeric ``ts`` and integer ``pid``/``tid``,
    and every referenced pid/tid has a matching metadata record.  Returns
    the number of non-metadata events; raises ``ValueError`` on the first
    violation.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload must contain a 'traceEvents' array")

    named_pids = set()
    named_tids = set()
    for index, record in enumerate(events):
        if not isinstance(record, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        if record.get("ph") == PH_METADATA:
            if record.get("name") == "process_name":
                named_pids.add(record.get("pid"))
            elif record.get("name") == "thread_name":
                named_tids.add((record.get("pid"), record.get("tid")))

    count = 0
    for index, record in enumerate(events):
        where = f"traceEvents[{index}]"
        ph = record.get("ph")
        if ph not in _KNOWN_PHASES:
            raise ValueError(f"{where}: unknown phase {ph!r}")
        if not isinstance(record.get("name"), str) or not record["name"]:
            raise ValueError(f"{where}: missing event name")
        if ph == PH_METADATA:
            continue
        count += 1
        ts = record.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where}: bad timestamp {ts!r}")
        pid = record.get("pid")
        tid = record.get("tid")
        if not isinstance(pid, int) or not isinstance(tid, int):
            raise ValueError(f"{where}: pid/tid must be integers")
        if pid not in named_pids:
            raise ValueError(f"{where}: pid {pid} has no process_name metadata")
        if ph not in (PH_COUNTER,) and (pid, tid) not in named_tids:
            raise ValueError(f"{where}: tid {tid} has no thread_name metadata")
        if ph in _NEEDS_DUR:
            dur = record.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}: complete event needs dur >= 0")
        if ph in _NEEDS_ID:
            if record.get("id") is None:
                raise ValueError(f"{where}: async event needs an id")
    return count
