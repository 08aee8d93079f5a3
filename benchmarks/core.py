"""One entry point for the ten benchmarks beyond the paper's tables and figures.

Run from the repository root (two sections import their oracles from
``tests/``)::

    PYTHONPATH=src python -m benchmarks.core [SECTION ...]

With no names it runs every section in :data:`SECTIONS`.  Each section is
one ``benchmarks/bench_<name>.py`` module whose ``section()`` runs the
experiment, prints its report, asserts its gates and returns its rows.

A section runs :data:`SAMPLES` times.  Each wall-clock field of a row
(:data:`WALL_CLOCK_FIELDS`) becomes its median, min and max over the runs,
and every other field must repeat exactly: a mismatch fails the section
and names the field, so every benchmark doubles as a repeat-run
determinism check.  The :data:`PAIRED` sections interleave their own timed
A/B pairs, gate on them and report their own spread, so they run once.

Everything goes to ``benchmarks/out/``: one ``<section>.json`` per section
(plus any files the section hands back, such as the Chrome trace) and a
``BENCH_core.json`` of every section run, each with its own environment
stamp and scale.  ``BENCH_core.json`` is written only when every section
passed.  The tracked ``BENCH_core.json`` at the repository root is never
written; refresh it by copying the output of a full run over it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy

from benchmarks._harness import SCALE, spread

#: Runs of every section that is not in :data:`PAIRED`.
SAMPLES = 3

SECTIONS = (
    "multivolume",
    "scheduling_overhead",
    "cluster_scaling",
    "coordinator_saturation",
    "adaptive_mpl",
    "failure_resilience",
    "obs_overhead",
    "blame_attribution",
    "vector_core",
    "service_latency",
)

#: Sections whose gate already compares interleaved timed pairs.
PAIRED = ("obs_overhead", "blame_attribution", "vector_core")

#: Row fields read off the host's clock; every other field must repeat.
WALL_CLOCK_FIELDS = ("wall_clock_s", "per_decision_us")

BENCH_CORE_SCHEMA = "repro-bench-core"
BENCH_CORE_VERSION = 2

OUT_DIR = Path(__file__).resolve().parent / "out"


def environment() -> Dict[str, object]:
    """What a section's wall-clock rows are only valid within: rows from
    another interpreter, numpy (the vector tracker) or core count are not
    comparable."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }


def merge_samples(name: str, samples: Sequence[Dict]) -> Dict:
    """One section's ``{"workload", "rows"}`` from its repeated runs.

    Raises :class:`AssertionError` naming the section and field when a
    field outside :data:`WALL_CLOCK_FIELDS` differs between two runs.
    """
    first = samples[0]
    for sample in samples[1:]:
        if sample["workload"] != first["workload"]:
            raise AssertionError(f"{name}: field 'workload' differs between samples")
        if len(sample["rows"]) != len(first["rows"]):
            raise AssertionError(f"{name}: row count differs between samples")
        for index, (row, other) in enumerate(zip(first["rows"], sample["rows"])):
            for field in sorted(set(row) | set(other)):
                if field not in WALL_CLOCK_FIELDS and row.get(field) != other.get(field):
                    raise AssertionError(
                        f"{name}: field {field!r} of row {index} differs between "
                        f"samples ({row.get(field)!r} vs {other.get(field)!r})"
                    )
    rows = []
    for index, row in enumerate(first["rows"]):
        merged = dict(row, samples=len(samples))
        for field in WALL_CLOCK_FIELDS:
            if field in row:
                merged[field] = spread(sample["rows"][index][field] for sample in samples)
        rows.append(merged)
    return {"workload": first["workload"], "rows": rows}


def run_section(name: str, out_dir: Path) -> Dict:
    """Run one section, write its files and return its ``BENCH_core.json`` entry."""
    module = importlib.import_module(f"benchmarks.bench_{name}")
    started = time.perf_counter()
    if name in PAIRED:
        result = module.section()
        for row in result["rows"]:
            row.setdefault("samples", 1)
    else:
        samples = [module.section() for _ in range(SAMPLES)]
        result = {**samples[0], **merge_samples(name, samples)}
    for filename, text in result.pop("files", {}).items():
        (out_dir / filename).write_text(text)
    entry = {"environment": environment(), "scale": SCALE, **result}
    _dump(out_dir / f"{name}.json", entry)
    print(f"\n{name}: done in {time.perf_counter() - started:.1f} s", flush=True)
    return entry


def run(names: Sequence[str], out_dir: Path = OUT_DIR) -> int:
    """Run ``names`` in order; returns 1 if any section failed, else 0."""
    out_dir.mkdir(parents=True, exist_ok=True)
    sections: Dict[str, Dict] = {}
    failed: List[str] = []
    for name in names:
        try:
            sections[name] = run_section(name, out_dir)
        except AssertionError:
            traceback.print_exc()
            failed.append(name)
    if failed:
        print(f"\nFAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    _dump(
        out_dir / "BENCH_core.json",
        {"schema": BENCH_CORE_SCHEMA, "version": BENCH_CORE_VERSION, "sections": sections},
    )
    print(f"wrote {out_dir / 'BENCH_core.json'}")
    return 0


def _dump(path: Path, payload: Dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.core", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "sections", nargs="*", metavar="SECTION",
        help=f"sections to run (default: all of {', '.join(SECTIONS)})",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.sections if name not in SECTIONS]
    if unknown:
        parser.error(f"unknown section {', '.join(unknown)}; choose from {', '.join(SECTIONS)}")
    return run(args.sections or SECTIONS)


if __name__ == "__main__":
    sys.exit(main())
