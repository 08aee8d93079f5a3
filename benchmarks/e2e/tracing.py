"""Outside-in layer tracing: time the calls that cross layer boundaries.

The simulator is not instrumented.  Instead, for one traced rep, the public
methods at each layer boundary (``BOUNDARIES``) are replaced on their class
by a wrapper that records one span per call, and put back afterwards.  Only
calls that cross into a layer are wrapped: wrapping in-layer helpers called
millions of times would mostly measure the wrappers.

Every interval between two consecutive clock reads is charged to exactly one
open span (the innermost), so the self times of all spans plus the time
outside any span add up to the traced wall-clock exactly.  Spans are
aggregated in memory per edge -- (caller layer, callee layer, operation) --
as call count, inclusive time, self time and, for operations whose ``None``
result means "nothing to do", the number of calls that returned something.

A wrapper costs a little time on both sides of the call.  ``wrapper_cost``
measures that on a wrapped no-op, and ``layer_metrics`` subtracts it from
the callee's and the caller's self time, so ``other.self_s`` (traced wall
minus every layer) holds the wrappers' own cost.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

ABM_OPS = (
    "register",
    "unregister",
    "select_chunk",
    "next_load",
    "complete_load",
    "finish_chunk",
    "cancel",
)

#: (layer, module, class, methods) of every wrapped boundary call.
BOUNDARIES: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("lockstep", "repro.sim.lockstep", "LockstepRunner", ("run",)),
    (
        "runner",
        "repro.sim.runner",
        "ScanSimulator",
        (
            "run",
            "next_step_time",
            "step",
            "is_done",
            "finish",
            "cancel_query",
            "fail_stop",
        ),
    ),
    ("abm", "repro.core.abm", "ActiveBufferManager", ABM_OPS),
    ("abm", "repro.core.abm", "DSMActiveBufferManager", ABM_OPS),
    ("disk", "repro.disk.multivolume", "MultiVolumeDisk", ("serve",)),
    (
        "coordinator",
        "repro.cluster.coordinator",
        "ShardSource",
        ("next_event_time", "poll", "on_complete", "drained"),
    ),
    (
        "coordinator",
        "repro.cluster.coordinator",
        "ClusterCoordinator",
        ("earliest_in_flight",),
    ),
    ("coordinator", "repro.cluster.failures", "FailureInjector", ("next_event_time", "fire")),
    ("coordinator", "repro.cluster.failures", "HedgeMonitor", ("next_event_time", "fire")),
    (
        "frontdoor",
        "repro.service.frontdoor",
        "FrontDoor",
        ("pump", "on_complete", "next_arrival_time", "drained"),
    ),
    (
        "recorder",
        "repro.obs.recorder",
        "FlightRecorder",
        (
            "instant",
            "complete",
            "async_begin",
            "async_end",
            "set_gauge",
            "inc_counter",
            "observe",
        ),
    ),
)

#: Operations whose ``None`` result is a wasted call (nothing to load or
#: no chunk available); their non-``None`` results are counted as hits.
HIT_OPS = frozenset({"next_load", "select_chunk"})

#: Classes whose calls are the coordinator's external frontier events.
INTERRUPT_CLASSES = frozenset({"FailureInjector", "HedgeMonitor"})

#: The entry-point call of a rep is itself a span of this layer, so its
#: self time is the entry point's own work outside the simulation loop: input
#: wiring, result assembly, SLO reports, postmortems and alert evaluation.
REPORT = "report"
ROOT = "root"

LAYERS = (
    "lockstep",
    "runner",
    "abm",
    "disk",
    "coordinator",
    "frontdoor",
    "recorder",
    REPORT,
)

#: (name, unit, better) of every per-layer metric, in output order.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("lockstep.self_s", "s", "lower"),
    ("lockstep.share", "fraction", "lower"),
    ("lockstep.probes", "count", "lower"),
    ("lockstep.steps", "count", "lower"),
    ("lockstep.probes_per_step", "ratio", "lower"),
    ("runner.self_s", "s", "lower"),
    ("runner.share", "fraction", "lower"),
    ("runner.next_step_time.us", "us", "lower"),
    ("runner.step.us", "us", "lower"),
    ("abm.self_s", "s", "lower"),
    ("abm.share", "fraction", "lower"),
    *(
        metric
        for op in ABM_OPS
        for metric in (
            (f"abm.{op}.calls", "count", "lower"),
            (f"abm.{op}.us", "us", "lower"),
        )
    ),
    ("abm.next_load.hit_ratio", "fraction", "higher"),
    ("abm.select_chunk.hit_ratio", "fraction", "higher"),
    ("disk.self_s", "s", "lower"),
    ("disk.share", "fraction", "lower"),
    ("disk.serve.calls", "count", "lower"),
    ("disk.serve.us", "us", "lower"),
    ("coordinator.self_s", "s", "lower"),
    ("coordinator.share", "fraction", "lower"),
    ("coordinator.calls", "count", "lower"),
    ("coordinator.us", "us", "lower"),
    ("coordinator.interrupt.calls", "count", "lower"),
    ("coordinator.interrupt.us", "us", "lower"),
    ("coordinator.subqueries", "count", "lower"),
    ("coordinator.hedges", "count", "lower"),
    ("coordinator.rescatters", "count", "lower"),
    ("frontdoor.self_s", "s", "lower"),
    ("frontdoor.share", "fraction", "lower"),
    ("frontdoor.calls", "count", "lower"),
    ("frontdoor.admitted", "count", "higher"),
    ("frontdoor.shed", "count", "lower"),
    ("recorder.self_s", "s", "lower"),
    ("recorder.share", "fraction", "lower"),
    ("recorder.calls", "count", "lower"),
    ("recorder.us", "us", "lower"),
    ("recorder.events", "count", "lower"),
    ("recorder.dropped", "count", "lower"),
    ("report.self_s", "s", "lower"),
    ("report.share", "fraction", "lower"),
    ("setup.self_s", "s", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

#: Metrics measured in time units; they are scaled by the drift
#: calibration like the end-to-end timings.
TIME_UNITS = frozenset({"s", "us"})

# Edge record fields: calls, inclusive seconds, self seconds, hits.
_CALLS, _TOTAL, _SELF, _HITS = range(4)


class Tracer:
    """Span stack plus per-edge aggregates for one traced rep."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # A frame is [layer, self seconds]; the root frame never closes.
        self.stack: List[list] = [[ROOT, 0.0]]
        # Time of the latest clock read, shared by every wrapper.
        self._last = [0.0]
        # (layer, op, {caller layer: edge record}) per wrapper.
        self._ops: List[Tuple[str, str, Dict[str, list]]] = []
        self.started = 0.0
        self.stopped = 0.0

    def start(self) -> None:
        self.started = self._last[0] = self.clock()

    def stop(self) -> None:
        self.stopped = self.clock()
        self.stack[0][1] += self.stopped - self._last[0]
        self._last[0] = self.stopped

    @property
    def wall(self) -> float:
        return self.stopped - self.started

    @property
    def root_self(self) -> float:
        return self.stack[0][1]

    @property
    def edges(self) -> Dict[Tuple[str, str, str], list]:
        """``(caller layer, layer, op) -> [calls, inclusive s, self s, hits]``."""
        edges: Dict[Tuple[str, str, str], list] = {}
        for layer, op, by_caller in self._ops:
            for caller, record in by_caller.items():
                edge = edges.setdefault((caller, layer, op), [0, 0.0, 0.0, 0])
                for field, value in enumerate(record):
                    edge[field] += value
        return edges

    def wrap(self, layer: str, op: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call is a span of ``layer``/``op``."""
        clock = self.clock
        stack = self.stack
        last = self._last
        by_caller: Dict[str, list] = {}
        self._ops.append((layer, op, by_caller))
        count_hits = op.rpartition(".")[2] in HIT_OPS

        # The hot path: kept to two clock reads, one small list and one
        # dict lookup per call.
        def traced(*args, **kwargs):
            start = clock()
            caller = stack[-1]
            caller[1] += start - last[0]
            frame = [layer, 0.0]
            stack.append(frame)
            last[0] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frame[1] += end - last[0]
                stack.pop()
                last[0] = end
                edge = by_caller.get(caller[0])
                if edge is None:
                    edge = by_caller[caller[0]] = [0, 0.0, 0.0, 0]
                edge[0] += 1
                edge[1] += end - start
                edge[2] += frame[1]
            if count_hits and result is not None:
                edge[3] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", op)
        return traced


def wrapper_cost(calls: int = 20_000, trials: int = 3) -> Tuple[float, float]:
    """Per-call wrapper seconds charged to the (callee, caller) span.

    Measured on a wrapped no-op against the bare no-op; the lowest of a few
    trials is kept, since noise only ever adds time.
    """
    def noop(value):
        return value

    best_callee = best_caller = float("inf")
    for _ in range(trials):
        tracer = Tracer()
        wrapped = tracer.wrap("probe", "noop", noop)
        tracer.start()
        started = time.perf_counter()
        for index in range(calls):
            noop(index)
        bare = (time.perf_counter() - started) / calls
        started = time.perf_counter()
        for index in range(calls):
            wrapped(index)
        total = (time.perf_counter() - started) / calls - bare
        tracer.stop()
        callee = tracer.edges[(ROOT, "probe", "noop")][_SELF] / calls - bare
        callee = min(max(callee, 0.0), max(total, 0.0))
        best_callee = min(best_callee, callee)
        best_caller = min(best_caller, max(total - callee, 0.0))
    return best_callee, best_caller


class Installation:
    """The wrappers of one traced rep; ``remove`` puts the originals back."""

    def __init__(self) -> None:
        self.patched: List[Tuple[type, str, object]] = []
        #: ``layer.Class.method`` labels that could not be wrapped.
        self.missing: List[str] = []

    def remove(self) -> None:
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        self.patched.clear()


def install(tracer: Tracer, boundaries=BOUNDARIES) -> Installation:
    """Wrap every boundary method; a missing class or method is reported
    (stderr warning, label in ``missing``) and skipped, never fatal."""
    installation = Installation()
    seen = set()
    for layer, module_name, class_name, methods in boundaries:
        try:
            cls = getattr(importlib.import_module(module_name), class_name)
        except (ImportError, AttributeError):
            cls = None
        for method in methods:
            label = f"{layer}.{class_name}.{method}"
            owner = None
            if cls is not None:
                owner = next(
                    (klass for klass in cls.__mro__ if method in vars(klass)),
                    None,
                )
            original = vars(owner).get(method) if owner is not None else None
            if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                installation.missing.append(label)
                print(f"warning: cannot trace {label}: no such method",
                      file=sys.stderr)
                continue
            if (owner, method) in seen:
                continue
            seen.add((owner, method))
            op = f"{class_name}.{method}"
            setattr(owner, method, tracer.wrap(layer, op, original))
            installation.patched.append((owner, method, original))
    return installation


def layer_metrics(
    tracer: Tracer,
    missing: List[str],
    cost: Tuple[float, float],
    counts: Dict[str, int],
) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced rep, in raw (uncalibrated) seconds.

    ``counts`` carries outputs read off the entry point's result
    (sub-queries, hedges, admissions, recorder events, ...).  A metric that
    depends on a boundary that could not be wrapped is ``None``: its layer's
    time would silently land in its caller.  ``setup.self_s`` and
    ``trace.overhead`` need untraced timings and are filled in by the
    caller.
    """
    callee_cost, caller_cost = cost
    edges = tracer.edges
    wall = tracer.wall

    self_s = {layer: 0.0 for layer in LAYERS}
    self_s[ROOT] = tracer.root_self
    for (caller, layer, _op), edge in edges.items():
        self_s[layer] += edge[_SELF] - edge[_CALLS] * callee_cost
        self_s[caller] -= edge[_CALLS] * caller_cost

    def calls(layer: str, method: Optional[str] = None,
              caller: Optional[str] = None, classes=None) -> Tuple[int, float, int]:
        """(calls, inclusive seconds, hits) over the matching edges."""
        count, total, hits = 0, 0.0, 0
        for (source, target, name), edge in edges.items():
            class_name, _, method_name = name.partition(".")
            if target != layer or (caller is not None and source != caller):
                continue
            if method is not None and method_name != method:
                continue
            if classes is not None and class_name not in classes:
                continue
            count += edge[_CALLS]
            total += edge[_TOTAL] - edge[_CALLS] * callee_cost
            hits += edge[_HITS]
        return count, total, hits

    def per_call_us(count: int, total: float) -> float:
        return total / count * 1e6 if count else 0.0

    metrics: Dict[str, Optional[float]] = {}
    for layer in LAYERS:
        seconds = max(self_s[layer], 0.0)
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.share"] = seconds / wall if wall > 0 else 0.0

    probes = calls("runner", method="next_step_time", caller="lockstep")[0]
    steps = calls("runner", method="step", caller="lockstep")[0]
    metrics["lockstep.probes"] = probes
    metrics["lockstep.steps"] = steps
    metrics["lockstep.probes_per_step"] = probes / steps if steps else 0.0
    for method in ("next_step_time", "step"):
        count, total, _ = calls("runner", method=method)
        metrics[f"runner.{method}.us"] = per_call_us(count, total)
    for method in ABM_OPS:
        count, total, hits = calls("abm", method=method)
        metrics[f"abm.{method}.calls"] = count
        metrics[f"abm.{method}.us"] = per_call_us(count, total)
        if method in HIT_OPS:
            metrics[f"abm.{method}.hit_ratio"] = hits / count if count else 0.0
    count, total, _ = calls("disk", method="serve")
    metrics["disk.serve.calls"] = count
    metrics["disk.serve.us"] = per_call_us(count, total)
    for layer in ("coordinator", "frontdoor", "recorder"):
        count, total, _ = calls(layer)
        metrics[f"{layer}.calls"] = count
        if layer != "frontdoor":
            metrics[f"{layer}.us"] = per_call_us(count, total)
    count, total, _ = calls("coordinator", classes=INTERRUPT_CLASSES)
    metrics["coordinator.interrupt.calls"] = count
    metrics["coordinator.interrupt.us"] = per_call_us(count, total)
    metrics.update(counts)
    metrics["other.self_s"] = wall - sum(metrics[f"{layer}.self_s"] for layer in LAYERS)

    # A lost boundary nulls its own layer's metrics and every time split:
    # the unwrapped calls' time silently lands in their callers.
    if missing:
        lost = {label.split(".", 1)[0] for label in missing}
        for name in metrics:
            layer, _, rest = name.partition(".")
            if name not in counts and (
                layer in lost or rest in ("self_s", "share")
            ):
                metrics[name] = None
        if "runner" in lost:
            for name in ("lockstep.probes", "lockstep.steps", "lockstep.probes_per_step"):
                metrics[name] = None
    return metrics


def edge_table(tracer: Tracer) -> List[Dict[str, object]]:
    """The raw per-edge aggregates, for the output file."""
    return [
        {
            "caller": caller,
            "callee": f"{layer}.{op}",
            "calls": edge[_CALLS],
            "total_s": edge[_TOTAL],
            "self_s": edge[_SELF],
            "hits": edge[_HITS],
        }
        for (caller, layer, op), edge in sorted(tracer.edges.items())
    ]
