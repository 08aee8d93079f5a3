"""Self-tests of the benchmark's outside-in layer tracer."""

import itertools
import math

from benchmarks.e2e import tracing


def _fake_clock():
    """A clock that advances exactly 1.0 per read."""
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_self_times_conserve_the_traced_wall_on_a_nested_call_tree():
    tracer = tracing.Tracer(clock=_fake_clock())

    def leaf():
        return None

    def middle():
        inner_leaf()
        same_layer()
        return "hit"

    def same_layer():
        inner_leaf()

    inner_leaf = tracer.wrap("disk", "Disk.serve", leaf)
    same_layer = tracer.wrap("abm", "ABM.finish_chunk", same_layer)
    middle = tracer.wrap("abm", "ABM.next_load", middle)
    top = tracer.wrap("runner", "Sim.run", lambda: [middle(), middle()])

    tracer.start()
    top()
    tracer.stop()

    edges = tracer.edges
    layer_self = {}
    for (_caller, layer, _op), edge in edges.items():
        layer_self[layer] = layer_self.get(layer, 0.0) + edge[2]
    assert math.isclose(sum(layer_self.values()) + tracer.root_self, tracer.wall)
    assert edges[("runner", "abm", "ABM.next_load")][0] == 2
    assert edges[("abm", "abm", "ABM.finish_chunk")][0] == 2
    assert edges[("abm", "disk", "Disk.serve")][0] == 4
    # next_load returned something on both calls: two hits.
    assert edges[("runner", "abm", "ABM.next_load")][3] == 2
    # Every clock read closes one interval; each span's two reads split
    # the wall, so with a unit-step clock the four leaf spans take 1 each.
    assert layer_self["disk"] == 4.0

    metrics = tracing.layer_metrics(tracer, [], (0.0, 0.0), {})
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert math.isclose(total + metrics["other.self_s"], tracer.wall)
    assert metrics["disk.serve.calls"] == 4
    assert metrics["abm.next_load.hit_ratio"] == 1.0


def test_wrapper_cost_is_subtracted_from_callee_and_caller():
    tracer = tracing.Tracer(clock=_fake_clock())
    child = tracer.wrap("disk", "Disk.serve", lambda: None)
    parent = tracer.wrap("runner", "Sim.step", lambda: [child() for _ in range(3)])
    tracer.start()
    parent()
    tracer.stop()
    raw = tracing.layer_metrics(tracer, [], (0.0, 0.0), {})
    charged = tracing.layer_metrics(tracer, [], (0.25, 0.5), {})
    assert charged["disk.self_s"] == raw["disk.self_s"] - 3 * 0.25
    assert charged["runner.self_s"] == raw["runner.self_s"] - 0.25 - 3 * 0.5
    assert math.isclose(
        charged["other.self_s"], raw["other.self_s"] + 4 * 0.25 + 3 * 0.5
    )


def test_install_wraps_and_remove_restores_the_real_classes():
    from repro.core.abm import ActiveBufferManager, DSMActiveBufferManager

    originals = (ActiveBufferManager.next_load, DSMActiveBufferManager.register)
    installation = tracing.install(tracing.Tracer())
    try:
        assert installation.missing == []
        assert ActiveBufferManager.next_load is not originals[0]
        assert DSMActiveBufferManager.register.__wrapped__ is originals[1]
    finally:
        installation.remove()
    assert (ActiveBufferManager.next_load, DSMActiveBufferManager.register) == originals


def test_missing_boundary_gives_null_metrics_and_a_warning(capsys):
    boundaries = (
        ("abm", "repro.core.abm", "ActiveBufferManager", ("next_load", "renamed_op")),
        ("coordinator", "repro.cluster.coordinator", "NoSuchClass", ("poll",)),
    )
    tracer = tracing.Tracer()
    installation = tracing.install(tracer, boundaries)
    installation.remove()
    assert installation.missing == [
        "abm.ActiveBufferManager.renamed_op",
        "coordinator.NoSuchClass.poll",
    ]
    assert "cannot trace abm.ActiveBufferManager.renamed_op" in capsys.readouterr().err
    tracer.start()
    tracer.stop()
    metrics = tracing.layer_metrics(
        tracer, installation.missing, (0.0, 0.0), {"coordinator.hedges": 3}
    )
    assert metrics["abm.next_load.calls"] is None
    assert metrics["coordinator.calls"] is None
    assert metrics["runner.self_s"] is None
    assert metrics["other.self_s"] is None
    assert metrics["coordinator.hedges"] == 3
    assert metrics["disk.serve.calls"] == 0
