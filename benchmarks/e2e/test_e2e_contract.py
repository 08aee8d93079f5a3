"""Self-tests of the benchmark's metric contract and output checks."""

import json
import re

from benchmarks.e2e import run, tracing
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def test_benchmark_json_lists_exactly_the_metrics_the_harness_emits():
    benchmark = _benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [
        (m["name"], m["unit"], m["better"]) for m in benchmark["end_to_end"]
    ] == list(run.E2E_METRICS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]
    ] == list(tracing.LAYER_METRICS)
    names = [w["name"] for w in benchmark["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def test_metric_names_and_units_are_well_formed():
    benchmark = _benchmark()
    metrics = benchmark["end_to_end"] + benchmark["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in benchmark["workloads"]]
    assert len(set(names)) == len(names)
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_golden_digests_cover_every_default_seed_and_variant():
    golden = run.load_golden()
    for name, workload in WORKLOADS.items():
        assert golden[name]["seed"] == workload.default_seed
        assert len(golden[name]["variants"]) == workload.variants


def _rep(variant, digest):
    rep = run.Rep(variant)
    rep.digest = digest
    return rep


def test_a_corrupted_fingerprint_raises_the_error_rate():
    workload = WORKLOADS["paper-dsm"]
    golden = run.load_golden()["paper-dsm"]["variants"]
    checks = run.Checks(workload, workload.default_seed)
    checks.record(_rep(0, golden[0]))
    assert checks.failed == 0
    checks.record(_rep(1, "0" * 64))
    assert (checks.failed, checks.attempted) == (1, 2)
    assert "golden.json" in checks.problems[0]


def test_off_golden_seeds_compare_reps_with_each_other():
    checks = run.Checks(WORKLOADS["cluster-32"], 12345)
    checks.record(_rep(0, "a" * 64))
    checks.record(_rep(0, "a" * 64))
    checks.record(_rep(1, "b" * 64))
    assert checks.failed == 0
    checks.record(_rep(1, "c" * 64))
    assert (checks.failed, checks.attempted) == (1, 4)
