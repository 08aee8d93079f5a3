"""End-to-end benchmark of the scan simulator, with an outside-in layer trace.

Run one workload in this process::

    python3 benchmarks/e2e/run.py --workload paper-nsm [--seed N]
        [--seconds S] [--trace 0|1] [--out PATH]

or every workload, each in a fresh child interpreter, one after another::

    PYTHONPATH=src python -m benchmarks.e2e [--seed N] [--trace 1]

A run builds one rep's inputs (timed as set-up), runs one untimed warm-up
rep, then keeps running timed reps -- one client in a closed loop, each rep
one entry-point call, ``gc.collect()`` before each -- until ``--seconds``
have passed and every input variant has run.  Every rep's outputs are
checked.  It prints each metric as ``workload metric value unit``, writes
the detail (samples, quartiles, raw timings, digests, trace edges) to
``--out``, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and the metrics.  The exit code is non-zero when a check failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: it alternates untraced and traced reps of the
first input variant, and never reports an end-to-end number.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / "benchmarks" / "out"
GOLDEN = HERE / "golden.json"

for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.e2e import calibration, tracing  # noqa: E402

#: (name, unit, better) of every end-to-end metric.
E2E_METRICS = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

WORKLOAD_NAMES = ("paper-nsm", "paper-dsm", "cluster-32", "cluster-faulty")


def default_seconds() -> float:
    """``run_seconds`` of ``BENCHMARK.json``, so every entry point measures
    for the same time."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return float(json.load(handle)["run_seconds"])


def quartiles(values: List[float]) -> List[float]:
    """[q1, q3] of the values (both the value itself for a single one)."""
    if len(values) < 2:
        return [values[0], values[0]] if values else [0.0, 0.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


# ------------------------------------------------------------------- one rep
def digest(material) -> str:
    """sha256 over the ``repr`` of a rep's fingerprint material.

    ``repr`` of floats round-trips exactly, so two reps that made the same
    scheduling decisions produce the same digest.
    """
    return hashlib.sha256(repr(material).encode()).hexdigest()


class Rep:
    """Timings, digest and failed checks of one rep."""

    def __init__(self, variant: int) -> None:
        self.variant = variant
        self.setup_s = 0.0
        self.run_s = 0.0
        self.digest: Optional[str] = None
        self.problems: List[str] = []
        self.result = None
        #: Boundaries a traced rep could not wrap.
        self.missing: List[str] = []


def run_rep(workload, variant: int, seed: int, tracer=None) -> Rep:
    """Build inputs, collect garbage, make the entry-point call, check."""
    rep = Rep(variant)
    try:
        result = _call(workload, seed, rep, tracer)
        material, rep.problems = workload.check(result)
        rep.digest = digest(material)
        rep.result = result
    except Exception as error:  # one failed rep; the run goes on
        traceback.print_exc()
        rep.problems.append(f"rep raised {type(error).__name__}: {error}")
    return rep


def _call(workload, seed: int, rep: Rep, tracer):
    """The timed part of a rep; a traced rep wraps the boundaries only
    around the entry-point call."""
    clock = time.perf_counter
    started = clock()
    inputs = workload.setup(seed)
    rep.setup_s = clock() - started
    gc.collect()
    if tracer is None:
        started = clock()
        result = workload.run(inputs)
        rep.run_s = clock() - started
        return result
    installation = tracing.install(tracer)
    rep.missing = installation.missing
    try:
        entry = tracer.wrap(tracing.REPORT, "entry", workload.run)
        tracer.start()
        result = entry(inputs)
        tracer.stop()
    finally:
        installation.remove()
    rep.run_s = tracer.wall
    return result


class Checks:
    """Digest comparison and failure accounting over a run's reps."""

    def __init__(self, workload, seed: int) -> None:
        self.expected: Dict[int, str] = {}
        golden = load_golden().get(workload.name)
        self.golden = golden is not None and golden["seed"] == seed
        if self.golden:
            self.expected = dict(enumerate(golden["variants"]))
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: Dict[int, str] = {}

    def record(self, rep: Rep) -> None:
        self.attempted += 1
        problems = list(rep.problems)
        if rep.digest is not None:
            expected = self.expected.setdefault(rep.variant, rep.digest)
            self.digests.setdefault(rep.variant, rep.digest)
            if rep.digest != expected:
                source = "golden.json" if self.golden else "an earlier rep"
                problems.append(
                    f"variant {rep.variant} digest {rep.digest[:12]} differs "
                    f"from {source} ({expected[:12]})"
                )
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)


def load_golden() -> dict:
    try:
        with open(GOLDEN) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


# ------------------------------------------------------------------ one run
def run_scale(kernels: List[float]) -> float:
    """Calibration factor of one run: the reference kernel time over the
    fastest kernel timing taken between its reps.

    One factor per run tracks how fast the host is over the run (hours of
    drift).  Scaling each rep by the kernels right around it was tried and
    added more jitter than it removed: the kernel reacts to a busy
    neighbour more strongly than the simulator does.
    """
    return calibration.REF_KERNEL_S / min(kernels)


def measure(workload, seed: int, seconds: float, checks: Checks) -> Dict[str, object]:
    """Untraced run: warm-up, then timed reps over every input variant."""
    seeds = workload.variant_seeds(seed)
    checks.record(run_rep(workload, 0, seeds[0]))
    reps: List[Rep] = []
    kernels = [calibration.kernel_seconds()]
    started = time.perf_counter()
    index = 0
    while index < len(seeds) or time.perf_counter() - started < seconds:
        variant = index % len(seeds)
        index += 1
        rep = run_rep(workload, variant, seeds[variant])
        kernels.append(calibration.kernel_seconds())
        checks.record(rep)
        if rep.digest is not None:  # a rep that raised has no timing
            rep.result = None
            reps.append(rep)
    if not reps:
        return {name: {"unit": unit, "value": None} for name, unit, _ in E2E_METRICS}
    scale = run_scale(kernels)
    by_variant: Dict[int, List[float]] = {}
    for rep in reps:
        by_variant.setdefault(rep.variant, []).append(rep.run_s)
    # Host noise only ever adds time, so an input's fastest rep is the
    # best estimate of its cost; the mean over inputs describes the workload.
    fastest = {variant: min(times) for variant, times in by_variant.items()}
    raw_run_s = statistics.fmean(fastest.values())
    run_samples = [rep.run_s * scale for rep in reps]
    spread = quartiles([rep.run_s / fastest[rep.variant] for rep in reps])
    setups = [rep.setup_s * scale for rep in reps]
    return {
        "run_s": {
            "unit": "s",
            "value": raw_run_s * scale,
            "quartiles": [raw_run_s * scale * ratio for ratio in spread],
            "median_rep": statistics.median(run_samples),
            "samples": run_samples,
            "variants": [rep.variant for rep in reps],
        },
        "setup_s": {
            "unit": "s",
            "value": statistics.median(setups),
            "quartiles": quartiles(setups),
            "samples": setups,
        },
        "peak_rss_mb": {
            "unit": "MB",
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "raw_run_s": raw_run_s,
        "kernel_s": kernels,
    }


def measure_trace(workload, seed: int, seconds: float, checks: Checks) -> Dict[str, object]:
    """Traced run: pairs of (untraced, traced) reps of the first variant."""
    from benchmarks.e2e.workloads import result_counts

    vseed = workload.variant_seeds(seed)[0]
    checks.record(run_rep(workload, 0, vseed))
    setups: List[float] = []
    ratios: List[float] = []
    traced_reps = []
    costs = []
    kernels = [calibration.kernel_seconds()]
    started = time.perf_counter()
    while not ratios or time.perf_counter() - started < seconds:
        plain = run_rep(workload, 0, vseed)
        checks.record(plain)
        costs.append(tracing.wrapper_cost())
        tracer = tracing.Tracer()
        traced = run_rep(workload, 0, vseed, tracer=tracer)
        checks.record(traced)
        kernels.append(calibration.kernel_seconds())
        if plain.digest is None or traced.digest is None:
            break
        setups += [plain.setup_s, traced.setup_s]
        ratios.append(traced.run_s / plain.run_s)
        traced_reps.append((tracer, traced.missing, result_counts(traced.result)))
        plain.result = traced.result = None
    # Like the timings, the wrapper cost is the least disturbed measurement.
    cost = (min(c[0] for c in costs), min(c[1] for c in costs))
    per_rep = [
        tracing.layer_metrics(tracer, missing, cost, counts)
        for tracer, missing, counts in traced_reps
    ]
    count_names = [name for name, unit, _ in tracing.LAYER_METRICS if unit == "count"]
    exact = [{name: metrics[name] for name in count_names} for metrics in per_rep]
    if any(counts != exact[0] for counts in exact):
        checks.failed += 1
        checks.problems.append("traced counts differ between reps")
    scale = run_scale(kernels)
    layers: Dict[str, Dict[str, object]] = {}
    for name, unit, _ in tracing.LAYER_METRICS:
        values = [metrics.get(name) for metrics in per_rep]
        if name == "setup.self_s":
            value = statistics.median(setups) if setups else None
        elif name == "trace.overhead":
            value = statistics.median(ratios) if ratios else None
        elif not values or any(v is None for v in values):
            value = None
        elif unit == "count":
            value = values[0]
        else:
            value = statistics.median(values)
        if value is not None and unit in tracing.TIME_UNITS:
            value *= scale
        layers[name] = {"unit": unit, "value": value}
    return {
        "layers": layers,
        "edges": tracing.edge_table(traced_reps[0][0]) if traced_reps else None,
        "wrapper_cost_us": [c * 1e6 for c in cost],
        "kernel_s": kernels,
    }


def run_one(args) -> int:
    try:
        from benchmarks.e2e.workloads import WORKLOADS
    except ImportError as error:
        print(f"cannot import the simulator: {error}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    checks = Checks(workload, seed)
    if args.trace:
        detail = measure_trace(workload, seed, args.seconds, checks)
        metrics = detail["layers"]
    else:
        detail = measure(workload, seed, args.seconds, checks)
        metrics = {name: detail[name] for name, _, _ in E2E_METRICS}
    variant_digests = [checks.digests.get(v) for v in range(workload.variants)]
    combined = digest(variant_digests) if any(variant_digests) else None
    error_rate = checks.failed / checks.attempted if checks.attempted else 1.0
    document = {
        "workload": workload.name,
        "seed": seed,
        "variant_seeds": workload.variant_seeds(seed),
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "error_rate": error_rate,
        "problems": checks.problems,
        "digest": combined,
        "variant_digests": variant_digests,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "ref_kernel_s": calibration.REF_KERNEL_S,
        },
        **detail,
        "metrics": metrics,
    }
    out = Path(args.out) if args.out else OUT_DIR / (
        f"e2e-{workload.name}{'-trace' if args.trace else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    for name, entry in metrics.items():
        print(f"{workload.name} {name} {entry['value']} {entry['unit']}")
    print(f"{workload.name} error_rate {error_rate} fraction")
    print(f"{workload.name} digest {combined}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }))
    return 0 if checks.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own child interpreter, merged into one file."""
    merged: Dict[str, object] = {}
    status = 0
    suffix = "-trace" if args.trace else ""
    for name in WORKLOAD_NAMES:
        out = OUT_DIR / f"e2e-{name}{suffix}.json"
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seconds", str(args.seconds),
            "--trace", str(int(args.trace)),
            "--out", str(out),
        ]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        code = subprocess.run(command, check=False).returncode
        status = status or code
        try:
            with open(out) as handle:
                merged[name] = json.load(handle)
        except (OSError, ValueError):
            merged[name] = {"workload": name, "correct": False, "exit_code": code}
    target = Path(args.out) if args.out else OUT_DIR / f"e2e{suffix}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w") as handle:
        json.dump({"workloads": merged}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {target}")
    return status


def update_golden() -> int:
    """Pin the digests of every workload's default seed in golden.json."""
    from benchmarks.e2e.workloads import WORKLOADS

    golden = {}
    for name in WORKLOAD_NAMES:
        workload = WORKLOADS[name]
        digests = []
        for variant, seed in enumerate(workload.variant_seeds(workload.default_seed)):
            rep = run_rep(workload, variant, seed)
            if rep.problems or rep.digest is None:
                print(f"{name}: {rep.problems}", file=sys.stderr)
                return 1
            digests.append(rep.digest)
        golden[name] = {"seed": workload.default_seed, "variants": digests}
        print(f"{name}: {digests}")
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload here (default: all, in children)")
    parser.add_argument("--seed", type=int, help="input seed >= 0 (default: per workload)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="where to write the detailed JSON")
    parser.add_argument("--update-golden", action="store_true",
                        help="re-pin golden.json from the default seeds")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.update_golden:
        return update_golden()
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
