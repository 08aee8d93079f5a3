"""Typed trace events of the flight recorder.

One simulation run produces a stream of :class:`TraceEvent` records on the
*simulated* clock (stored compactly by the recorder, built when read).
The vocabulary follows the Chrome trace-event format (so the exporters in
:mod:`repro.obs.export` are a direct mapping):

* ``ph="X"`` — a *complete* span: something that occupied a track for
  ``dur`` seconds (a disk seek, a transfer, a CPU service interval);
* ``ph="i"`` — an *instant* event: a point decision (a load issued, a
  query shed, a starvation flip);
* ``ph="b"`` / ``ph="e"`` — an *async* begin/end pair keyed by ``id``:
  long-lived lifecycles that overlap freely (whole queries at the front
  door, per-shard sub-query executions).

Tracks are labelled, not numbered: ``pid`` names the component owning the
event (``"frontdoor"``, ``"service"``, ``"shard0"``...) and ``tid`` the
lane within it (``"vol0"``, ``"cpu"``, ``"abm"``, ``"admission"``).  The
Chrome exporter maps labels onto numeric pids/tids and emits the matching
metadata records, so Perfetto shows shards as processes and volumes as
threads.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Chrome trace-event phases used by the recorder.
PH_COMPLETE = "X"
PH_INSTANT = "i"
PH_ASYNC_BEGIN = "b"
PH_ASYNC_END = "e"
#: Emitted only by the exporter (track metadata, counter samples).
PH_METADATA = "M"
PH_COUNTER = "C"

#: Event categories, one per instrumented layer.
CAT_QUERY = "query"      #: whole-query lifecycle at the front door
CAT_EXEC = "exec"        #: per-simulator (sub-)query execution
CAT_FRONTDOOR = "frontdoor"
CAT_ADMISSION = "admission"
CAT_CLUSTER = "cluster"
CAT_CPU = "cpu"
CAT_DISK = "disk"
CAT_ABM = "abm"


class TraceEvent:
    """One flight-recorder event on the simulated clock.

    The simulator's hot path does not build these: the recorder stores
    each event as a compact row (:class:`~repro.obs.recorder.TraceRecorder`)
    and builds the records only when its events are read, for the
    exporters and for analysis.  A hand-rolled slotted class rather than a
    dataclass keeps that rebuild cheap.  Treat instances as immutable.

    Attributes
    ----------
    name:
        Event name, dot-scoped by layer (``"disk.seek"``, ``"abm.evict"``).
    cat:
        Category (one of the ``CAT_*`` constants) — the layer that emitted it.
    ph:
        Phase: ``"X"`` (complete span), ``"i"`` (instant), ``"b"``/``"e"``
        (async begin/end).
    ts:
        Simulated time of the event (seconds; span start for ``"X"``).
    pid:
        Process-track label (component: ``"service"``, ``"shard2"``, ...).
    tid:
        Thread-track label within the process (``"vol0"``, ``"cpu"``, ...).
    dur:
        Span duration in seconds (``"X"`` events only).
    id:
        Async-track key (``"b"``/``"e"`` events only) — the query id.
    args:
        Free-form payload (chunk ids, classes, byte counts, ...).
    """

    __slots__ = ("name", "cat", "ph", "ts", "pid", "tid", "dur", "id", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        ph: str,
        ts: float,
        pid: str,
        tid: str,
        dur: float = 0.0,
        id: Optional[int] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts = ts
        self.pid = pid
        self.tid = tid
        self.dur = dur
        self.id = id
        self.args = {} if args is None else args

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (
            self.name == other.name
            and self.cat == other.cat
            and self.ph == other.ph
            and self.ts == other.ts
            and self.pid == other.pid
            and self.tid == other.tid
            and self.dur == other.dur
            and self.id == other.id
            and self.args == other.args
        )

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary for the JSONL exporter (exact round-trip)."""
        payload: Dict[str, object] = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.ph == PH_COMPLETE:
            payload["dur"] = self.dur
        if self.id is not None:
            payload["id"] = self.id
        if self.args:
            payload["args"] = dict(self.args)
        return payload

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "TraceEvent":
        """Rebuild an event from its :meth:`as_dict` form."""
        return TraceEvent(
            name=str(payload["name"]),
            cat=str(payload["cat"]),
            ph=str(payload["ph"]),
            ts=float(payload["ts"]),  # type: ignore[arg-type]
            pid=str(payload["pid"]),
            tid=str(payload["tid"]),
            dur=float(payload.get("dur", 0.0)),  # type: ignore[arg-type]
            id=(None if payload.get("id") is None else int(payload["id"])),  # type: ignore[arg-type]
            args=dict(payload.get("args", {})),  # type: ignore[arg-type]
        )
