"""Compare benchmark runs of two commits::

    python -m benchmarks.e2e.compare BASE.json HEAD.json
    python -m benchmarks.e2e.compare BASE1.json BASE2.json -- HEAD1.json HEAD2.json

Each file is one run's output (``benchmarks/out/e2e-<workload>[-trace].json``)
or a merged file of all workloads (``benchmarks/out/e2e[-trace].json``).
Without ``--`` the files split into two equal halves, base first.

For every workload and end-to-end metric it prints both medians with their
quartiles and a verdict against the metric's bound in ``BENCHMARK.json``:
``better``, ``worse``, ``within bound``, or ``unresolved`` when the spread is
wider than the bound (unless every head run beats every base run).  With
three or more runs a side, the spread is taken across runs; otherwise from
the run's own reps.  It also reports ``error_rate`` increases, output
digest differences and, from traced runs, the per-layer metrics that moved
most, so a regression names its layer.  Exits 1 when anything got worse or
an output digest changed.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.run import ROOT, quartiles

#: A per-layer metric moved when it changed by more than this share.
MOVER_THRESHOLD = 0.05
MAX_MOVERS = 8


def load_runs(path: str) -> List[dict]:
    with open(path) as handle:
        document = json.load(handle)
    if "workloads" in document:
        return list(document["workloads"].values())
    return [document]


def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> List[dict]:
    with open(path) as handle:
        return json.load(handle)["end_to_end"]


def summarize(runs: List[dict], metric: str) -> Optional[dict]:
    """Median and quartiles of one metric over a side's untraced runs."""
    entries = [run["metrics"][metric] for run in runs if metric in run.get("metrics", {})]
    values = [entry["value"] for entry in entries if entry.get("value") is not None]
    if not values:
        return None
    median = statistics.median(values)
    if len(values) >= 3:
        q1, q3 = quartiles(values)
    else:
        spreads = [entry.get("quartiles") or [entry["value"]] * 2 for entry in entries]
        q1 = min(spread[0] for spread in spreads)
        q3 = max(spread[1] for spread in spreads)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def verdict(base: dict, head: dict, better: str, bound: float) -> Tuple[float, str]:
    """(relative change, verdict) of head against base."""
    change = (head["median"] - base["median"]) / base["median"]
    worse = change if better == "lower" else -change
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] for side in (base, head)
    )
    if better == "lower":
        all_better = max(head["values"]) < min(base["values"])
    else:
        all_better = min(head["values"]) > max(base["values"])
    if spread > bound:
        return change, "better" if all_better else "unresolved"
    if worse > bound:
        return change, "worse"
    if worse < -bound:
        return change, "better"
    return change, "within bound"


def layer_values(runs: List[dict]) -> Dict[str, float]:
    """Median of every per-layer metric over a side's traced runs."""
    collected: Dict[str, List[float]] = {}
    for run in runs:
        for name, entry in run.get("metrics", {}).items():
            if entry.get("value") is not None:
                collected.setdefault(name, []).append(entry["value"])
    units = {
        name: entry["unit"]
        for run in runs
        for name, entry in run.get("metrics", {}).items()
    }
    return {
        name: (statistics.median(values), units[name])
        for name, values in collected.items()
    }


def movers(base: List[dict], head: List[dict]) -> List[Tuple[str, float, float, float]]:
    """Self times and counts that moved most, by relative change."""
    before = layer_values(base)
    after = layer_values(head)
    moved = []
    for name, (old, unit) in before.items():
        if name not in after or not (name.endswith(".self_s") or unit == "count"):
            continue
        new = after[name][0]
        if old == new:
            continue
        change = (new - old) / old if old else math.inf
        if abs(change) > MOVER_THRESHOLD:
            moved.append((name, change, old, new))
    moved.sort(key=lambda item: -abs(item[1]))
    return moved[:MAX_MOVERS]


def compare(base_runs: List[dict], head_runs: List[dict], bounds: List[dict]) -> Tuple[List[str], bool]:
    """Report lines and whether anything got worse or changed output."""
    lines: List[str] = []
    failed = False
    workloads = sorted(
        {run["workload"] for run in base_runs} & {run["workload"] for run in head_runs}
    )
    for workload in workloads:
        def side(runs: List[dict], traced: bool) -> List[dict]:
            return [
                run for run in runs
                if run["workload"] == workload and bool(run.get("trace")) == traced
            ]

        base, head = side(base_runs, False), side(head_runs, False)
        notes: List[str] = []
        for metric in bounds:
            name = metric["name"]
            before, after = summarize(base, name), summarize(head, name)
            if before is None or after is None:
                continue
            change, outcome = verdict(before, after, metric["better"], metric["bound"])
            failed |= outcome == "worse"
            if outcome != "within bound":
                notes.append(outcome)
            lines.append(
                f"{workload:<15} {name:<12} "
                f"{before['median']:.6g} ({before['q1']:.6g}-{before['q3']:.6g})  "
                f"{after['median']:.6g} ({after['q1']:.6g}-{after['q3']:.6g})  "
                f"{change:+.1%}  {outcome} (bound {metric['bound']:.0%})"
            )
        base_errors = max((run.get("error_rate", 0.0) for run in base), default=0.0)
        head_errors = max((run.get("error_rate", 0.0) for run in head), default=0.0)
        if head_errors > base_errors:
            failed = True
            notes.append("errors")
            lines.append(
                f"{workload:<15} error_rate   {base_errors:.4g} -> {head_errors:.4g}  worse"
            )
        digests = {
            label: {
                (run["seed"], variant, digest)
                for run in runs + traced
                for variant, digest in enumerate(run.get("variant_digests") or [])
                if digest is not None
            }
            for label, runs, traced in (
                ("base", base, side(base_runs, True)),
                ("head", head, side(head_runs, True)),
            )
        }
        shared = {key[:2] for key in digests["base"]} & {key[:2] for key in digests["head"]}
        differing = sorted(
            key for key in shared
            if {d for d in digests["base"] if d[:2] == key}
            != {d for d in digests["head"] if d[:2] == key}
        )
        if differing:
            failed = True
            notes.append("outputs changed")
            lines.append(
                f"{workload:<15} output digests DIFFER for (seed, variant) {differing}"
            )
        elif shared:
            lines.append(f"{workload:<15} output digests identical ({len(shared)} inputs)")
        moved = movers(side(base_runs, True), side(head_runs, True))
        for name, change, old, new in moved:
            lines.append(
                f"{workload:<15} layer mover  {name:<28} {old:.6g} -> {new:.6g}  {change:+.1%}"
            )
        if moved:
            notes.append(f"top layer mover {moved[0][0].split('.')[0]}")
        lines.append(f"{workload:<15} summary: {', '.join(notes) or 'unchanged'}")
    return lines, failed


def split_sides(paths: Sequence[str]) -> Tuple[List[str], List[str]]:
    paths = list(paths)
    if "--" in paths:
        cut = paths.index("--")
        return paths[:cut], paths[cut + 1:]
    if not paths or len(paths) % 2:
        raise SystemExit(
            "usage: compare BASE.json [...] HEAD.json [...] "
            "(an even number of files, or base files -- head files)"
        )
    return paths[: len(paths) // 2], paths[len(paths) // 2:]


def main(argv: Optional[Sequence[str]] = None) -> int:
    base_paths, head_paths = split_sides(sys.argv[1:] if argv is None else argv)
    base = [run for path in base_paths for run in load_runs(path)]
    head = [run for path in head_paths for run in load_runs(path)]
    lines, failed = compare(base, head, load_bounds())
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
