"""Self-tests of the benchmark's compare tool."""

import copy

from benchmarks.e2e import compare, tracing


def _untraced(run_s, digest="d0"):
    return {
        "workload": "paper-nsm",
        "seed": 42,
        "trace": False,
        "error_rate": 0.0,
        "variant_digests": [digest],
        "metrics": {
            "run_s": {"value": run_s, "unit": "s", "quartiles": [run_s * 0.99, run_s * 1.01]},
            "setup_s": {"value": 0.002, "unit": "s", "quartiles": [0.00199, 0.00201]},
            "peak_rss_mb": {"value": 50.0, "unit": "MB"},
        },
    }


def _traced(scale_abm=1.0):
    metrics = {name: {"value": 1.0, "unit": unit} for name, unit, _ in tracing.LAYER_METRICS}
    metrics["abm.self_s"]["value"] *= scale_abm
    return {
        "workload": "paper-nsm",
        "seed": 42,
        "trace": True,
        "error_rate": 0.0,
        "variant_digests": ["d0"],
        "metrics": metrics,
    }


def _report(base, head):
    return compare.compare(base, head, compare.load_bounds())


def test_equal_runs_are_unchanged():
    base = [_untraced(1.6), _traced()]
    lines, failed = _report(base, copy.deepcopy(base))
    assert not failed
    assert lines[-1].endswith("summary: unchanged")
    assert any("output digests identical" in line for line in lines)


def test_a_slower_layer_is_flagged_and_named():
    base = [_untraced(1.6), _traced()]
    head = [_untraced(1.6 * 1.3), _traced(scale_abm=1.2)]
    lines, failed = _report(base, head)
    assert failed
    run_line = next(line for line in lines if " run_s " in line)
    assert run_line.split()[-3] == "worse"
    mover = next(line for line in lines if "layer mover" in line)
    assert "abm.self_s" in mover and "+20.0%" in mover
    assert "top layer mover abm" in lines[-1]


def test_changed_outputs_and_new_errors_fail_the_comparison():
    base = [_untraced(1.6)]
    head = [_untraced(1.6, digest="d1")]
    head[0]["error_rate"] = 0.25
    lines, failed = _report(base, head)
    assert failed
    assert any("DIFFER" in line for line in lines)
    assert any(line.split()[1] == "error_rate" for line in lines)


def test_files_split_at_the_separator_or_in_half():
    assert compare.split_sides(["a", "b"]) == (["a"], ["b"])
    assert compare.split_sides(["a", "b", "--", "c"]) == (["a", "b"], ["c"])
