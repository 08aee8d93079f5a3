"""The benchmark driver ``python -m benchmarks.core`` and its harness."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks import core

ROOT = Path(__file__).resolve().parent.parent


def _sample(wall_clock_s, p99_s=0.5):
    return {
        "workload": {"shards": 4},
        "rows": [{"shards": 4, "p99_s": p99_s, "wall_clock_s": wall_clock_s}],
    }


def test_repeated_samples_report_the_spread_of_each_wall_clock_field():
    merged = core.merge_samples("fake", [_sample(1.25), _sample(1.0)])
    assert merged["workload"] == {"shards": 4}
    assert merged["rows"] == [
        {
            "shards": 4,
            "p99_s": 0.5,
            "samples": 2,
            "wall_clock_s": {"median": 1.125, "min": 1.0, "max": 1.25},
        }
    ]


def test_a_deterministic_field_that_moves_between_samples_names_section_and_field():
    with pytest.raises(AssertionError, match=r"fake: field 'p99_s' of row 0"):
        core.merge_samples("fake", [_sample(1.0), _sample(1.0, p99_s=0.6)])


def test_a_driver_run_writes_only_its_output_directory(tmp_path):
    tracked = ROOT / "BENCH_core.json"
    before = tracked.read_bytes()
    assert core.run(["failure_resilience"], out_dir=tmp_path) == 0
    assert tracked.read_bytes() == before

    bench = json.loads((tmp_path / "BENCH_core.json").read_text())
    assert bench["version"] == core.BENCH_CORE_VERSION
    section = bench["sections"]["failure_resilience"]
    assert section == json.loads((tmp_path / "failure_resilience.json").read_text())
    assert set(section["environment"]) == {"python", "numpy", "cpu_count"}
    for row in section["rows"]:
        assert row["samples"] == core.SAMPLES
        assert set(row["wall_clock_s"]) == {"median", "min", "max"}


def test_the_driver_rejects_an_unknown_section():
    with pytest.raises(SystemExit):
        core.main(["failure_resilence"])


def test_an_unknown_bench_scale_fails_at_import():
    env = dict(os.environ, REPRO_BENCH_SCALE="papr")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    completed = subprocess.run(
        [sys.executable, "-c", "import benchmarks._harness"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert completed.returncode != 0
    assert "REPRO_BENCH_SCALE='papr': expected one of small, paper" in completed.stderr
