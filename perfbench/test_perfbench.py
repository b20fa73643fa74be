"""Tests of the benchmark's own arithmetic: interval coverage, self time,
span wrapping where callers look names up, the per-layer metrics derived
from spans, and the metric-name rule."""

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

import run
import tracing
from tracing import (LAYER_METRICS, METRIC_NAME, OVERHEAD_METRIC, SpanIndex, Tracer,
                     covered, layer_metrics, self_time)

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_covered_union_and_clipping():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 3.0
    # overlapping and nested intervals are counted once
    assert covered([(1.0, 4.0), (2.0, 5.0), (2.5, 3.0)], 0.0, 10.0) == 4.0
    # parts outside [lo, hi] do not count
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_covered_child_time():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 4.0
    assert self_time(0.0, 10.0, [(0.0, 10.0)]) == 0.0


def _ticking_tracer():
    ticks = itertools.count()
    return Tracer("test", clock=lambda: float(next(ticks)))


def test_nested_spans_and_self_time():
    tr = _ticking_tracer()
    leaf = tr.wrap("kink.leaf", lambda: None)
    mid = tr.wrap("ansatz.mid", lambda: (leaf(), leaf()))
    top = tr.wrap("construct.top", lambda: (mid(), leaf()))
    top()
    names = [s[0] for s in tr.spans]
    assert names == ["construct.top", "ansatz.mid", "kink.leaf", "kink.leaf", "kink.leaf"]
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 1, 0]
    assert all(s[4] == "test" for s in tr.spans)
    ix = SpanIndex(tr.spans)
    # clock ticks: top 0..9, mid 1..6, leaves 2..3, 4..5 and 7..8
    assert ix.duration(0) == 9.0
    assert ix.self_time(0) == 9.0 - 5.0 - 1.0
    assert ix.self_time(1) == 5.0 - 2.0
    assert ix.total("kink.leaf") == 3.0
    assert ix.total("ansatz.mid", "kink.leaf") == 6.0
    assert list(ix.descendants(1)) == [2, 3]
    # only the outermost matching descendants are subtracted
    assert ix.time_less(0, lambda s: s[0] != "construct.top") == 9.0 - 6.0


def test_span_closed_when_the_call_raises():
    tr = _ticking_tracer()

    def fail():
        raise ValueError("boom")
    wrapped = tr.wrap("numerics.fail", fail)
    with pytest.raises(ValueError):
        wrapped()
    assert tr.spans[0][1:3] == [0.0, 1.0]
    assert tr._stack == []


def _fake_package(monkeypatch):
    """A package with the traced module names; construct imports
    integrate_grid by name, as the real construct module does."""
    pkg = types.ModuleType("fakemk")
    mods = {short: types.ModuleType(f"fakemk.{short}") for short in tracing.MODULES}
    exec("def integrate_grid(y):\n    return sum(y)\n", vars(mods["numerics"]))
    mods["construct"].integrate_grid = pkg.integrate_grid = mods["numerics"].integrate_grid
    exec("def norm(y):\n    return integrate_grid(y)\n", vars(mods["construct"]))
    monkeypatch.setitem(sys.modules, "fakemk", pkg)
    for short, mod in mods.items():
        monkeypatch.setitem(sys.modules, f"fakemk.{short}", mod)
    return pkg, mods


def test_install_wraps_names_where_callers_look_them_up(monkeypatch):
    pkg, mods = _fake_package(monkeypatch)
    original = mods["numerics"].integrate_grid
    tr = Tracer("fake")
    tr.install("fakemk")
    assert mods["construct"].integrate_grid is not original
    assert pkg.integrate_grid is mods["numerics"].integrate_grid
    assert mods["construct"].norm([1, 2]) == 3
    assert [(s[0], s[3]) for s in tr.spans] == [("construct.norm", -1),
                                                ("numerics.integrate_grid", 0)]
    tr.uninstall()
    assert mods["construct"].integrate_grid is original
    assert pkg.integrate_grid is original


def _span(name, start, end, parent, meta=None):
    return [name, start, end, parent, "r", meta]


def test_layer_metrics_of_a_small_construction():
    solve = {"steps": 100, "n_grid": 10}
    spans = [
        _span("kink.kink_profile", 0.0, 1.0, -1),           # set-up
        _span("construct.fixed_point", 2.0, 20.0, -1, {"iterations": 1}),
        _span("construct.choose_final_time", 3.0, 9.0, 1),
        _span("construct.solve_backward", 3.0, 8.0, 2, solve),
        _span("construct._ansatz_pieces", 4.0, 7.0, 3),
        _span("kink.KinkProfile.__call__", 5.0, 6.0, 4),
        _span("construct.solve_backward", 10.0, 14.0, 1, solve),
        _span("construct.nonlinearity", 11.0, 13.0, 6),
        _span("potential.PotentialModel.__call__", 11.5, 12.0, 7),
        _span("construct.measure_residual", 15.0, 17.0, 1),
    ]
    m = layer_metrics(spans, job_start=1)
    assert set(m) == set(LAYER_METRICS)
    assert m["kink.profile_s"] == 1.0
    assert m["construct.solves"] == 2
    assert m["construct.useful_solve_frac"] == 0.5
    assert m["construct.steps"] == 200
    assert m["construct.solve_s"] == 4.5
    # 5 - 3 (pieces) and 4 - 0.5 (the potential call inside nonlinearity)
    assert m["construct.solve_self_s"] == pytest.approx(2.75)
    assert m["construct.gridpoint_steps_per_s"] == pytest.approx(2000 / 9.0)
    assert m["construct.truncation_s"] == 6.0
    assert m["construct.residual_s"] == 2.0
    assert m["construct.iterate_s"] == 18.0 - 6.0 - 2.0
    assert m["construct.iterations"] == 1
    assert m["kink.evals"] == 1 and m["kink.eval_s"] == 1.0
    assert m["potential.calls"] == 1 and m["potential.s"] == 0.5
    assert m["construct.nonlinearity_s"] == 2.0


def test_source_workload_rule():
    assert tracing.source_workload("construct.solve_s", "derivative-sg2") == "derivative-sg2"
    assert tracing.source_workload("construct.solve_s", "evolve-sg2") == "construct-sg2"
    assert tracing.source_workload("kink.profile_s", "evolve-sg2") == "evolve-sg2"


@pytest.mark.parametrize("name", ["wall_s", "construct.solve_s", "evolve-sg2", "a.b-c_9"])
def test_metric_name_rule_accepts(name):
    assert METRIC_NAME.fullmatch(name)


@pytest.mark.parametrize("name", ["", ".wall", "_x", "wall s", "solve@sg2", "t/s",
                                  "x" * 65])
def test_metric_name_rule_rejects(name):
    assert not METRIC_NAME.fullmatch(name)


def test_every_metric_name_follows_the_rule():
    names = list(run.END_TO_END) + list(LAYER_METRICS) + [OVERHEAD_METRIC[0]]
    names += list(run.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name


def test_benchmark_file_matches_the_code():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = dict(LAYER_METRICS)
    per_layer[OVERHEAD_METRIC[0]] = (OVERHEAD_METRIC[1], None)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in per_layer.items()}
