"""Span recording, self times and the per-layer metrics."""

import time
import types

import numpy as np
import pytest

import spans


def _fake_module():
    mod = types.ModuleType("fake.layer")
    exec(
        "import time\n"
        "def inner():\n"
        "    time.sleep(0.002)\n"
        "def outer():\n"
        "    inner(); inner()\n"
        "    time.sleep(0.001)\n"
        "def _private():\n"
        "    return 1\n",
        mod.__dict__,
    )
    for fn in (mod.inner, mod.outer, mod._private):
        fn.__module__ = mod.__name__
    return mod


def test_spans_nest_and_self_times_add_up():
    mod = _fake_module()
    original = mod.outer
    tracer = spans.Tracer()
    with tracer.installed([mod]):
        tracer.span("bench.op", mod.outer)
        assert hasattr(mod.outer, "__wrapped__") and not hasattr(mod._private, "__wrapped__")
    assert mod.outer is original  # wrappers are removed on exit

    names = [tracer.names[i] for i in tracer.name_idx]
    assert names == ["bench.op", "layer.outer", "layer.inner", "layer.inner"]
    assert list(tracer.parent) == [-1, 0, 1, 1]
    table = spans.SpanTable(tracer, {"layer": ("layer.outer", "layer.inner")})
    assert table.self_time.sum() == pytest.approx(table.root_time(), rel=1e-12)
    assert (table.self_time >= 0).all()
    # Nested members of a group are not counted twice.
    outer = table.duration[1]
    assert table.inclusive("layer") == pytest.approx(outer)
    assert table.self_time[1] == pytest.approx(outer - table.duration[2] - table.duration[3])


def test_span_records_failures_and_unwinds():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.span("bench.op", boom)
    tracer.span("bench.op", time.sleep, 0)
    assert list(tracer.parent) == [-1, -1]


def test_layer_metrics_on_a_small_report():
    import hookup

    cfg = hookup.OptimizerConfig(grid_points=5, multistarts=2, max_iter=30)
    state = hookup.preset("paper-example")
    tracer = spans.Tracer()
    modules = [getattr(hookup, layer) for layer in spans.LAYERS]
    with tracer.installed(modules, extra_namespaces=[hookup]):
        report = tracer.span("bench.op", hookup.full_report, state, cfg=cfg)
    assert hookup.full_report.__module__ == "hookup.quantifiers"
    assert not hasattr(hookup.full_report, "__wrapped__")

    m = spans.layer_metrics(tracer, passes=1)
    assert set(m) == set(spans.METRICS) - {"trace.overhead_s"}
    assert m["search.searches"] == 2 and m["search.grid_calls"] == 2
    pts = hookup.search.effective_grid_points(5, 2)
    assert m["search.grid_cells"] == 2 * pts**4
    meta = report.optimizer_meta
    assert m["search.nfev"] == meta["chi"]["function_evals"] + meta["global"]["function_evals"]
    assert m["quantifiers.closest_classical_calls"] == 1
    assert 0 < m["search.grid_s"] < m["search.minimize_s"] < m["quantifiers.full_report_s"]
    assert m["search.refine_s"] == pytest.approx(m["search.minimize_s"] - m["search.grid_s"])
    layer_self = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    table = spans.SpanTable(tracer, {})
    op_self = float(table.self_time[table.parent < 0].sum())
    assert layer_self + op_self == pytest.approx(table.root_time(), rel=1e-9)
    assert m["mdms.searches"] == 0 and m["mdms.search_reuse_ratio"] == 0.0


def test_search_reuse_ratio_counts_repeated_states():
    import hookup

    tiny = hookup.OptimizerConfig(grid_points=3, multistarts=1, max_iter=5)
    tracer = spans.Tracer()
    modules = [getattr(hookup, layer) for layer in spans.LAYERS]
    with tracer.installed(modules, extra_namespaces=[hookup]):
        hookup.compare_jk([0.4, 0.4], cfg=tiny)
        hookup.scan_mdms(2, 3, cfg=tiny)
    m = spans.layer_metrics(tracer, passes=1)
    assert m["mdms.searches"] == 5
    assert m["mdms.search_reuse_ratio"] == pytest.approx(4 / 5)  # eps=0.4 searched twice
    assert m["mdms.cells"] == 6
    assert 0 < m["mdms.cell_s"] < m["mdms.scan_s"]
    assert np.isclose(m["quantifiers.closest_classical_calls"], 5)
