import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from conftest import two_soliton_oracle
from multikink import ansatz, construct, evolve
from multikink.config import ExperimentConfig
from multikink.errors import ConfigError, FitError, NoContractionError
from multikink.evolve import SpaceTimeSlab
from multikink.numerics import (derivative, derivative2, fit_log_linear, gaussian_bumps,
                                 integrate_grid)
from multikink.potential import find_vacua


@pytest.fixture(scope="module")
def small_cfg():
    return construct.SolverConfig(x_min=-25.0, x_max=25.0, dx=0.05)


def _free_forcing(_t, level, _h):
    """The terms of the zero iterate R N(0): the forcing N(0)."""
    return None, construct.nonlinearity(level, 0.0)


def _bump_slab(grid, times, delta0):
    b = np.exp(-0.5 * grid**2)
    phis = np.array([np.exp(-delta0 * t) * b for t in times])
    dots = np.array([-delta0 * np.exp(-delta0 * t) * b for t in times])
    return SpaceTimeSlab(times, grid, phis, dots)


@pytest.mark.parametrize("bad", [dict(dx=0.0), dict(dx=-0.05), dict(dx=math.nan),
                                 dict(x_max=math.inf), dict(cfl=0.0),
                                 dict(snapshot_dt=0.0), dict(snapshot_dt=-0.25),
                                 dict(snapshot_dt=math.nan), dict(cfl=1.0),
                                 dict(x_min=np.float64(-1e308), x_max=np.float64(1e308)),
                                 dict(x_max=np.float64(1e300), dx=np.float64(1e-10))])
def test_solver_config_rejects_bad_values(bad):
    # the last two overflow the grid's point count, as numpy floats that
    # would warn: boost-shifted domains arrive as numpy floats
    with pytest.raises(ConfigError):
        construct.SolverConfig(**{"x_min": -10.0, "x_max": 10.0, **bad})


def test_weighted_norm_closed_form(small_cfg):
    times = np.linspace(2.0, 12.0, 41)
    grid = small_cfg.grid
    delta0 = 0.5
    slab = _bump_slab(grid, times, delta0)
    b = np.exp(-0.5 * grid**2)
    bx = -grid * b
    base = math.sqrt(integrate_grid(b**2 + bx**2 + delta0**2 * b**2, small_cfg.dx))
    # decaying weight: supremum at t = T
    expect = math.exp((0.25 - delta0) * 2.0) * base
    assert construct.weighted_norm(slab, 2.0, 0.25) == pytest.approx(expect, rel=1e-3)
    # growing weight: supremum at the last snapshot
    expect2 = math.exp((1.0 - delta0) * 12.0) * base
    assert construct.weighted_norm(slab, 2.0, 1.0) == pytest.approx(expect2, rel=1e-3)
    zero = SpaceTimeSlab(times, grid, np.zeros((41, len(grid))), np.zeros((41, len(grid))))
    assert construct.weighted_norm(zero, 2.0, 0.25) == 0.0
    with pytest.raises(ConfigError, match="snapshots"):
        construct.weighted_norm(slab, 100.0, 0.25)
    for delta in (0.0, -0.25, math.nan):
        with pytest.raises(ConfigError, match="delta"):
            construct.weighted_norm(slab, 2.0, delta)
    # the weight e^(delta t) is finite up to t = 12 for delta = 59 and
    # overflows for 60, which is refused before np.exp runs
    assert math.isfinite(construct.weighted_norm(slab, 2.0, 59.0))
    with pytest.raises(ConfigError, match="delta = 60 overflows"):
        construct.weighted_norm(slab, 2.0, 60.0)


def test_fixed_point_rejects_an_overflowing_delta(sg):
    # without the check every increment norm would be inf * 0 = NaN
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.3,), (0.0,))
    cfg = construct.SolverConfig(x_min=-10.0, x_max=10.0, dx=0.1)
    with pytest.raises(ConfigError, match=r"delta = 1e\+308 overflows"):
        construct.fixed_point(params, cfg, T=1.0, delta=1e308, t_final=3.0, max_iter=1)


def test_weighted_norm_divergence_with_range(small_cfg):
    grid = small_cfg.grid
    delta0 = 0.5
    n_short = construct.weighted_norm(_bump_slab(grid, np.linspace(2, 8, 25), delta0), 2.0, 1.5)
    n_long = construct.weighted_norm(_bump_slab(grid, np.linspace(2, 16, 57), delta0), 2.0, 1.5)
    assert n_long > 10.0 * n_short


def _weighted_l2(slab, T, delta):
    """sup over snapshots t >= T of e^{delta t} * |phi(t)|_{L2}."""
    norms = np.array([[math.sqrt(integrate_grid(p**2, slab.dx))] for p in slab.phis])
    return float(construct._weighted_sup(slab.times, norms, T, delta)[0])


def test_solve_backward_zero_forcing(sg, small_cfg):
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.2,), (0.0,))
    zero = np.zeros_like(small_cfg.grid)
    [slab] = construct.solve_backward(params, lambda _t, _level, _h: (None, zero), 2.0, 12.0,
                                      small_cfg)
    assert np.max(np.abs(slab.phis)) == 0.0
    assert slab.times[0] == pytest.approx(2.0)
    assert slab.times[-1] == pytest.approx(12.0)


def test_solve_backward_apriori_bound(phi4):
    model, table = phi4
    params = ansatz.make_params(model, table, (0, 1), (0.0,), (0.0,))
    weight = (1.0, 0.4)  # T, delta
    consts = []
    for dx in (0.1, 0.05):
        cfg = construct.SolverConfig(x_min=-25.0, x_max=25.0, dx=dx)
        bump = np.exp(-0.5 * (cfg.grid - 1.0) ** 2)
        [h] = construct.solve_backward(
            params, lambda t, _level, _h: (None, math.exp(-t) * bump), 1.0, 25.0, cfg)
        f_slab = SpaceTimeSlab(h.times, cfg.grid,
                               np.array([math.exp(-t) * bump for t in h.times]),
                               np.zeros((len(h.times), len(cfg.grid))))
        consts.append(construct.weighted_norm(h, *weight) / _weighted_l2(f_slab, *weight))
    assert consts[0] == pytest.approx(consts[1], rel=0.05)


def test_solve_backward_truncation_insensitive(sg2_params):
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.05)
    [h1] = construct.solve_backward(sg2_params, _free_forcing, 16.0, 48.0, cfg)
    [h2] = construct.solve_backward(sg2_params, _free_forcing, 16.0, 80.0, cfg)
    worst = 0.0
    for t in np.linspace(16.0, 46.0, 31):
        worst = max(worst, float(np.max(np.abs(h1.phi_at(t) - h2.phi_at(t)))))
    assert worst <= 1e-8


def test_stability_constant_across_parameters(sg):
    # measured response constant varies little over a compact (v, a) set when
    # the probe forcing rides along with the kink
    model, table = sg
    weight = (1.0, 0.4)  # T, delta
    cfg = construct.SolverConfig(x_min=-25.0, x_max=25.0, dx=0.05)
    consts = []
    for v, a in ((0.0, 0.0), (0.2, 1.0), (0.4, -1.0)):
        params = ansatz.make_params(model, table, (0, 1), (v,), (a,))

        def forcing(t, v=v, a=a):
            return math.exp(-t) * np.exp(-0.5 * (cfg.grid - v * t - a - 1.0) ** 2)

        [h] = construct.solve_backward(params, lambda t, _level, _h: (None, forcing(t)),
                                       1.0, 25.0, cfg)
        f_slab = SpaceTimeSlab(h.times, cfg.grid,
                               np.array([forcing(t) for t in h.times]),
                               np.zeros((len(h.times), len(cfg.grid))))
        consts.append(construct.weighted_norm(h, *weight) / _weighted_l2(f_slab, *weight))
    assert max(consts) <= 1.2 * min(consts)


def test_solve_backward_one_evaluation_per_level(sg2_params, monkeypatch):
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1)
    calls = []

    def counting(params, t, grid):
        calls.append(t)
        return ansatz.AnsatzLevel(params, t, grid)

    monkeypatch.setattr(construct, "AnsatzLevel", counting)
    dt, _ = cfg.plan(16.0, 24.0)
    n_steps = int(round(8.0 / dt))
    # the forcing N(0) and the potential share each step's level
    construct.solve_backward(sg2_params, _free_forcing, 16.0, 24.0, cfg)
    assert len(calls) == n_steps + 1
    assert len(set(calls)) == n_steps + 1


def test_solve_backward_lands_on_t_start(sg2_params):
    # 39 steps of -3.1/39 from 3.6 sum to 0.49999999999999956; backward
    # levels count from t_start instead, and the top is pinned to t_final
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1)
    dt, _ = cfg.plan(0.5, 3.6)
    n, step = evolve.step_plan(0.5 - 3.6, -dt, "steps")
    assert 3.6 + n * step != 0.5
    [slab] = construct.solve_backward(sg2_params, _free_forcing, 0.5, 3.6, cfg)
    assert slab.times[0] == 0.5
    assert slab.times[-1] == 3.6


# the weight e^{delta t} of the sweeps below, which all start at T = 16
DELTA = 0.31


def _sweep_setup(sg2_params):
    """A dx = 0.1 grid and the first iterate R N(0) on [16, 24]."""
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1)
    [g] = construct.solve_backward(sg2_params, _free_forcing, 16.0, 24.0, cfg)
    return cfg, g


def _sequential_solve(params, g, cfg):
    """One Picard iterate on its own: R N(g), g read through g.phi_at."""
    return construct.solve_backward(
        params, lambda t, level, _h: (None, construct.nonlinearity(level, g.phi_at(t))),
        16.0, 24.0, cfg)[0]


def _observed(call, record):
    """call() while every backward solve also hands each snapshot's lanes,
    copied, to record(t, h, h_t)."""
    solve = construct.solve_backward

    def recording(*args):
        *head, observe, keep = args

        def both(t, h, h_t):
            record(t, h.copy(), h_t.copy())
            observe(t, h, h_t)

        return solve(*head, both, keep)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "solve_backward", recording)
        return call()


def _swept_lanes(params, g, cfg, lanes, t_final=24.0):
    """Every lane of one Picard sweep from g (None for 0) on [16, t_final],
    as slabs in increasing time, and the slab the sweep returns."""
    seen = []
    _, [(last, _)] = _observed(
        lambda: construct._sweep(params, cfg, 16.0, [t_final], 1, lanes - 1, DELTA, g),
        lambda *snapshot: seen.append(snapshot))
    times = np.array([t for t, _, _ in seen[::-1]])
    slabs = [SpaceTimeSlab(times, cfg.grid, np.array([h[j] for _, h, _ in seen[::-1]]),
                           np.array([h_t[j] for _, _, h_t in seen[::-1]]))
             for j in range(lanes)]
    return slabs, last


def test_picard_sweep_one_evaluation_per_level(sg2_params, monkeypatch):
    cfg, g = _sweep_setup(sg2_params)
    calls = []

    def counting(params, t, grid):
        calls.append(t)
        return ansatz.AnsatzLevel(params, t, grid)

    monkeypatch.setattr(construct, "AnsatzLevel", counting)
    dt, _ = cfg.plan(16.0, 24.0)
    n_steps = int(round(8.0 / dt))
    _, [(_, norms)] = construct._sweep(sg2_params, cfg, 16.0, [24.0], 1, 2, DELTA, g)
    assert len(norms) == 3
    assert len(calls) == n_steps + 1
    assert len(set(calls)) == n_steps + 1


def test_picard_sweep_lane0_is_sequential_solve(sg2_params):
    cfg, g = _sweep_setup(sg2_params)
    seq = _sequential_solve(sg2_params, g, cfg)
    lanes, last = _swept_lanes(sg2_params, g, cfg, 3)
    assert np.array_equal(lanes[0].times, seq.times)
    assert np.array_equal(lanes[0].phis, seq.phis)
    assert np.array_equal(lanes[0].phi_dots, seq.phi_dots)
    # the sweep keeps its last lane only
    assert np.array_equal(last.phis, lanes[2].phis)
    assert np.array_equal(last.phi_dots, lanes[2].phi_dots)
    # lane 0's norm is the weighted norm of the stored increment
    _, [(_, norms)] = construct._sweep(sg2_params, cfg, 16.0, [24.0], 1, 2, DELTA, g)
    diff = SpaceTimeSlab(seq.times, cfg.grid, seq.phis - g.phis, seq.phi_dots - g.phi_dots)
    assert norms[0] == construct.weighted_norm(diff, 16.0, DELTA)


def test_picard_sweep_matches_sequential_iterates(sg2_params):
    # lanes j >= 1 read lane j-1's live value, where one solve per iterate
    # read the previous slab cubically in time between snapshots. Measured
    # here: both lanes off by 3.2e-10 of max |phi| and 2.9e-9 of max
    # |phi_t|, the norms by 1.4% and 0.2%
    cfg, g = _sweep_setup(sg2_params)
    ref = [g]
    for _ in range(3):
        ref.append(_sequential_solve(sg2_params, ref[-1], cfg))
    lanes, _ = _swept_lanes(sg2_params, g, cfg, 3)
    _, [(_, norms)] = construct._sweep(sg2_params, cfg, 16.0, [24.0], 1, 2, DELTA, g)
    for j in (1, 2):
        gap = np.max(np.abs(lanes[j].phis - ref[j + 1].phis))
        assert gap <= 1e-9 * np.max(np.abs(ref[j + 1].phis))
        gap = np.max(np.abs(lanes[j].phi_dots - ref[j + 1].phi_dots))
        assert gap <= 1e-8 * np.max(np.abs(ref[j + 1].phi_dots))
        step = SpaceTimeSlab(g.times, cfg.grid, ref[j + 1].phis - ref[j].phis,
                             ref[j + 1].phi_dots - ref[j].phi_dots)
        assert norms[j] == pytest.approx(construct.weighted_norm(step, 16.0, DELTA), rel=0.05)


def _count_solves(monkeypatch):
    """Counts of all backward solves and of those in the truncation search."""
    counts = {"solves": 0, "probes": 0}
    solve, choose = construct.solve_backward, construct.choose_final_time

    def counting_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    def counting_choose(*args, **kwargs):
        before = counts["solves"]
        out = choose(*args, **kwargs)
        counts["probes"] += counts["solves"] - before
        return out

    monkeypatch.setattr(construct, "solve_backward", counting_solve)
    monkeypatch.setattr(construct, "choose_final_time", counting_choose)
    return counts


def _recording(monkeypatch, name):
    """Patch construct.<name> to record each call's result."""
    calls = []
    real = getattr(construct, name)

    def recording(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(construct, name, recording)
    return calls


@pytest.mark.slow
def test_fixed_point_reuses_truncation_slab(sg2_params, monkeypatch):
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1)
    kw = dict(T=16.0, delta=0.31, tol=1e-7, max_iter=4)
    counts = _count_solves(monkeypatch)
    searches = _recording(monkeypatch, "choose_final_time")
    sweeps = _recording(monkeypatch, "_sweep")
    psi, rep = construct.fixed_point(sg2_params, cfg, **kw)
    # one window sweeps the probes and the four iterates chained on the
    # accepted one; no continuation sweep follows
    assert counts == {"solves": 1, "probes": 1}
    assert rep.iterations == 4 and len(sweeps) == 1
    assert psi is searches[0].iterate
    assert rep.iterate_norms == searches[0].increments
    # the same construction with t_final given solves its first iterate as
    # lane 0 of its first sweep, to the same norm bit for bit
    counts.update(solves=0, probes=0)
    sweeps.clear()
    psi2, rep2 = construct.fixed_point(sg2_params, cfg, t_final=rep.t_final, **kw)
    assert counts == {"solves": len(sweeps), "probes": 0}
    assert rep2.iterate_norms[0] == rep.iterate_norms[0]
    assert np.array_equal(psi.times, psi2.times)


@pytest.mark.slow
def test_reference_construction_sweeps_each_level_once(monkeypatch):
    # configs/sg2_construct.cfg: the one window of [16, 54.5], up to its
    # probe at 2s + D = 32 + 6.5, evaluates each of its 2,157 levels once
    # and carries all four iterates
    cfg = ExperimentConfig(Path(__file__).resolve().parent.parent / "configs"
                           / "sg2_construct.cfg")
    model = cfg.build_model()
    params = cfg.build_params(model, cfg.build_table(model))
    sconf = cfg.build_solver_config()
    counts = _count_solves(monkeypatch)
    sweeps = _recording(monkeypatch, "_sweep")
    levels, solving = [], [False]
    solve, evaluate = construct.solve_backward, construct.AnsatzLevel

    def counting_solve(*args, **kwargs):
        solving[0] = True
        try:
            return solve(*args, **kwargs)
        finally:
            solving[0] = False

    def counting(params, t, grid):
        if solving[0]:
            levels.append(t)
        return evaluate(params, t, grid)

    monkeypatch.setattr(construct, "solve_backward", counting_solve)
    monkeypatch.setattr(construct, "AnsatzLevel", counting)
    _, rep = construct.fixed_point(params, sconf, tol=cfg.get_float("construct", "tol"),
                                   max_iter=cfg.get_int("construct", "max_iter"))
    assert counts == {"solves": 1, "probes": 1} and len(sweeps) == 1
    assert len(levels) == len(set(levels)) == 2157
    assert max(levels) == 54.5
    assert (rep.T, rep.t_final, rep.iterations) == (16.0, 48.0, 4)


def _window_setup(sg2_params, n_grid):
    """A grid of n_grid points on [-34, 34] and one truncation window of
    spans 1, 2 and 4 from T = 16, two chain lanes on each candidate."""
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=68.0 / (n_grid - 1))
    gaps, cands = construct._sweep(sg2_params, cfg, 16.0, [17.0, 18.0, 20.0], 2, 2, DELTA)
    return cfg, gaps, cands


@pytest.mark.parametrize("n_grid", [3401, 300, 40])
def test_window_gaps_match_standalone_probes(sg2_params, n_grid):
    # the window's live gaps are those of standalone probes, sampled at
    # every common snapshot time
    cfg, gaps, _ = _window_setup(sg2_params, n_grid)
    probes = [construct.solve_backward(sg2_params, _free_forcing, 16.0, 16.0 + span,
                                       cfg)[0] for span in (1.0, 2.0, 4.0)]
    for (gap, scale), short, long_ in zip(gaps, probes, probes[1:]):
        n = len(short)
        assert np.array_equal(short.times, long_.times[:n])
        want = max(float(np.max(np.abs(short.phis - long_.phis[:n]))),
                   float(np.max(np.abs(short.phi_dots - long_.phi_dots[:n]))))
        assert gap == want > 0.0
        assert scale == float(np.max(np.abs(long_.phis[:n])))


def test_window_lanes_match_standalone_solves(sg2_params):
    # every probe and chain lane of a window, joined below the window's
    # top, is its standalone sweep from its own top on the same plan
    seen = {}

    def record(t, h, h_t):
        seen[t] = h, h_t

    cfg, _, cands = _observed(lambda: _window_setup(sg2_params, 300), record)
    row = 0
    for span, chain in ((4.0, 0), (2.0, 2), (1.0, 2)):  # the rows, highest top first
        lanes, last = _swept_lanes(sg2_params, None, cfg, 1 + chain, 16.0 + span)
        for j, lane in enumerate(lanes):
            assert np.array_equal(np.array([seen[t][0][row + j] for t in lane.times]), lane.phis)
            assert np.array_equal(np.array([seen[t][1][row + j] for t in lane.times]),
                                  lane.phi_dots)
        row += 1 + chain
        if chain:
            # each candidate keeps its chain's last lane and its increments
            slab, norms = cands[int(span) - 1]
            assert np.all(np.diff(slab.times) > 0)
            # the lane is written in place from the end, not gathered and reversed
            assert slab.phis.flags.c_contiguous and slab.phi_dots.flags.c_contiguous
            assert np.array_equal(slab.times, last.times)
            assert np.array_equal(slab.phis, last.phis)
            assert np.array_equal(slab.phi_dots, last.phi_dots)
            steps = [lanes[0]] + [SpaceTimeSlab(a.times, cfg.grid, b.phis - a.phis,
                                                b.phi_dots - a.phi_dots)
                                  for a, b in zip(lanes, lanes[1:])]
            assert norms == [construct.weighted_norm(d, 16.0, DELTA) for d in steps]


def test_truncation_search_memory(sg2_params, monkeypatch):
    # one window; no probe slab is stored, only the candidates' iterates
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.05)
    counts = _count_solves(monkeypatch)
    tracemalloc.start()
    try:
        out = construct.choose_final_time(sg2_params, cfg, T=16.0, delta=0.31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == {"solves": 1, "probes": 1}
    assert out.t_final == 48.0
    # measured: 4.68 MB against 2.81 MB for the accepted slab (1.67x); its
    # lane gathered in lists and then copied into arrays peaked at 7.14 MB
    # (2.54x), and two probe slabs compared on column blocks at 10.0 MB
    assert peak < 2 * (out.iterate.phis.nbytes + out.iterate.phi_dots.nbytes)


def test_truncation_report(sg2_params):
    # the first test (16 against 32) fails, the second (32 against
    # 2s + D = 38.5) passes, and both land in the report
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1)
    _, rep = construct.fixed_point(sg2_params, cfg, T=16.0, delta=0.31, max_iter=1)
    assert rep.t_final == 48.0 and not rep.truncation_capped
    assert [span for span, _, _ in rep.truncation] == [16.0, 32.0]
    (_, gap1, scale1), (_, gap2, scale2) = rep.truncation
    assert gap1 > 1e-8 * max(1.0, scale1) and gap2 <= 1e-8 * max(1.0, scale2)
    assert rep.to_dict()["truncation"] == rep.truncation
    assert rep.to_dict()["truncation_capped"] is False
    _, rep = construct.fixed_point(sg2_params, cfg, T=16.0, delta=0.31, t_final=48.0,
                                   max_iter=1)
    assert rep.truncation == [] and not rep.truncation_capped


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_truncation_cap(sg2_params, monkeypatch):
    # 16 and 32 fit under a cap of 40, 64 does not: one window of two
    # probes whose failing test leaves the longer one, with a warning
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1)
    monkeypatch.setattr(construct, "TRUNCATION_MAX_SPAN", 40.0)
    with pytest.warns(UserWarning, match="cap"):
        out = construct.choose_final_time(sg2_params, cfg, T=16.0, delta=0.31)
    assert out.t_final == 48.0 and out.capped
    assert [span for span, _, _ in out.tests] == [16.0]
    assert len(out.iterate) == 129


def test_truncation_gaps_are_corrected_to_the_limit(sg2_params, monkeypatch):
    # with set raw gaps, each test reports its raw gap divided by
    # 1 - e^{-delta (p - c)}. The first window probes 16, 32 and
    # 2s + D = 38.5; its raw gap of 0.9 tol against 38.5 is lifted past tol
    # (x 1.154 at delta 0.31), so the next window starts at 4s = 64. Its 8s
    # passes the cap of 400, so it probes 64, 128 and 256, all candidates,
    # and 64 passes.
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1)
    tol, delta = construct.TRUNCATION_RTOL, 0.31
    raw = {16.0: 2.0 * tol, 32.0: 0.9 * tol, 64.0: 0.5 * tol, 128.0: 0.5 * tol}
    windows = []

    def fake(params, config, T, tops, n_cand, lanes, delta, g=None):
        spans = [top - T for top in tops]
        windows.append((spans, n_cand))
        return ([(raw[c], 0.5) for c in spans[:-1]],
                [(f"iterate {c}", [c]) for c in spans[:n_cand]])

    monkeypatch.setattr(construct, "_sweep", fake)
    out = construct.choose_final_time(sg2_params, cfg, T=16.0, delta=delta)
    assert windows == [([16.0, 32.0, 38.5], 2), ([64.0, 128.0, 256.0], 3)]
    assert out.tests == [[c, raw[c] / -math.expm1(-delta * (p - c)), 0.5]
                         for c, p in ((16.0, 32.0), (32.0, 38.5), (64.0, 128.0))]
    assert out.tests[1][1] > tol
    assert (out.t_final, out.iterate, out.increments, out.capped) == (80.0, "iterate 64.0",
                                                                      [64.0], False)


@pytest.mark.parametrize("snapshot_dt, delta, span", [(0.25, 0.005, 400.0),
                                                     (0.3, 0.005, 0.3 * 1333),
                                                     (0.25, 1e-7, 400.0)])
def test_truncation_first_span_is_capped(sg2_params, monkeypatch, snapshot_dt, delta, span):
    # at delta = 0.005 the first span 4/delta = 800 passes the cap of 400:
    # it is cut to the largest multiple of snapshot_dt not above the cap,
    # whose window is the capped last one, its one probe accepted with a
    # warning; at delta = 1e-7 the span 4e7 and the reach 2e7 are cut to
    # the cap before they are counted in snapshots, whose 1.6e8 would pass
    # MAX_COUNT
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1, snapshot_dt=snapshot_dt)
    windows = []

    def fake(params, config, T, tops, n_cand, lanes, delta, g=None):
        spans = [top - T for top in tops]
        windows.append((spans, n_cand))
        return [], [(f"iterate {c}", [c]) for c in spans[:n_cand]]

    monkeypatch.setattr(construct, "_sweep", fake)
    with pytest.warns(UserWarning, match="cap"):
        out = construct.choose_final_time(sg2_params, cfg, T=16.0, delta=delta)
    assert windows == [([span], 1)]
    assert span <= construct.TRUNCATION_MAX_SPAN < span + snapshot_dt
    assert (out.t_final, out.iterate, out.tests, out.capped) == (16.0 + span, f"iterate {span}",
                                                                 [], True)


def test_truncation_refuses_a_snapshot_step_above_the_cap(sg2_params, monkeypatch):
    # no multiple of snapshot_dt = 500 lies within the cap of 400
    def no_sweep(*_args, **_kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(construct, "_sweep", no_sweep)
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1, snapshot_dt=500.0)
    with pytest.raises(ConfigError, match="snapshot_dt = 500 leaves no truncation probe"):
        construct.choose_final_time(sg2_params, cfg, T=16.0, delta=0.31)


def test_fixed_point_refuses_a_grid_inside_the_residual_margins(sg2_params, monkeypatch):
    # the residual skips RESIDUAL_MARGIN = 5 at either end: [-4.9, 4.9] has
    # no point left and is refused before any solve; on [-5, 5] x = 0 is left
    def no_solve(*_args, **_kwargs):
        raise AssertionError("a backward solve ran")

    monkeypatch.setattr(construct, "solve_backward", no_solve)
    for half, err, match in ((4.9, ConfigError, "lies 5 clear of both ends"),
                             (5.0, AssertionError, "a backward solve ran")):
        cfg = construct.SolverConfig(x_min=-half, x_max=half, dx=0.1)
        with pytest.raises(err, match=match):
            construct.fixed_point(sg2_params, cfg, T=1.0, delta=0.31, max_iter=1)


def test_fixed_point_refuses_a_kink_off_the_grid(sg2_params, monkeypatch):
    # at T = 16 the kinks sit at -4.8 and 4.8: a grid that leaves either out
    # is refused before any solve, with T given or found by the scan
    def no_solve(*_args, **_kwargs):
        raise AssertionError("a backward solve ran")

    monkeypatch.setattr(construct, "solve_backward", no_solve)
    for lo, hi, k in ((0.0, 34.0, 1), (-34.0, 2.0, 2)):
        cfg = construct.SolverConfig(x_min=lo, x_max=hi, dx=0.1)
        for T in (16.0, None):
            with pytest.raises(ConfigError, match=f"kink {k} sits at .* off the grid"):
                construct.fixed_point(sg2_params, cfg, T=T, delta=0.31, max_iter=1)


@pytest.mark.slow
def test_cut_grid_warns_with_its_edge_ratio(sg2_params):
    # both kinks sit on the grid at T = 16 (at -4.8 and 4.8), so the
    # construction runs and converges; x_min -8 cuts Psi's left tail and
    # moves it 7.0e-5 off the exact two-soliton, x_min -16 leaves it at the
    # dx floor 6.4e-8. Measured edge ratios: 0.156 and 4.0e-5
    def run(x_min):
        cfg = construct.SolverConfig(x_min=x_min, x_max=34.0, dx=0.04)
        psi, rep = construct.fixed_point(sg2_params, cfg, tol=1e-8)
        error = max(float(np.max(np.abs(ansatz.multikink(sg2_params, t, cfg.grid).phi + phi
                                         - two_soliton_oracle(t, cfg.grid))))
                    for t, phi in zip(psi.times, psi.phis))
        return rep, error

    with pytest.warns(UserWarning, match="grid end is 0.156 of its max"):
        rep, error = run(-8.0)
    assert rep.converged and error > 1e-5
    assert 0.1 < rep.edge_ratio < 0.2 and rep.to_dict()["edge_ratio"] == rep.edge_ratio
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        rep, error = run(-16.0)
    assert rep.converged and error < 1e-7
    assert 0.0 < rep.edge_ratio < 1e-4


def test_edge_ratio_reads_the_ends_of_every_snapshot():
    # max |Psi| within one length unit of either end over max |Psi|, both
    # taken over all snapshots; a zero Psi reads 0
    grid = np.linspace(-10.0, 10.0, 201)
    phis = np.zeros((3, grid.size))
    assert construct.edge_ratio(SpaceTimeSlab([0.0, 1.0, 2.0], grid, phis, phis)) == 0.0
    phis[0, 100] = -4.0  # the largest |Psi|, mid-grid
    phis[1, 195] = 0.5  # 0.5 from the right end
    phis[2, 15] = 3.0  # 1.5 from the left end: outside the edge band
    assert construct.edge_ratio(SpaceTimeSlab([0.0, 1.0, 2.0], grid, phis, phis)) == 0.125


@pytest.mark.parametrize("T", [10.1, 16.3])
def test_truncation_search_shares_the_given_t_final_lattice(sg2_params, T):
    # with snapshot_dt 0.1, span / (n * every) of the window [T, T + 2s + D]
    # (s = 16, D = 6.5) and of [T, t_final] can differ by a rounding; every
    # whole-interval plan steps snapshot_dt / every instead, so the first
    # increment of the automatic-t_final run is that of the run given its
    # t_final, bit for bit
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1, snapshot_dt=0.1)
    kw = dict(T=T, delta=0.31, tol=1e-9, max_iter=6)
    _, auto = construct.fixed_point(sg2_params, cfg, **kw)
    _, given = construct.fixed_point(sg2_params, cfg, t_final=auto.t_final, **kw)
    assert cfg.plan(T, auto.t_final) == cfg.plan(T, T + 38.5)
    assert given.iterate_norms[0] == auto.iterate_norms[0]


def test_solve_backward_slab_forcing_matches_spline(sg2_params, small_cfg):
    # a forcing read through SpaceTimeSlab.phi_at is the cubic Hermite
    # spline in time of its phis and phi_dots
    rng = np.random.default_rng(4)
    times = np.linspace(15.5, 20.5, 23)
    phis = gaussian_bumps(small_cfg.grid, rng) * np.exp(-0.5 * times)[:, None]
    slab = SpaceTimeSlab(times, small_cfg.grid, phis, -0.5 * phis)
    spline = CubicHermiteSpline(times, phis, -0.5 * phis, axis=0)
    [a] = construct.solve_backward(sg2_params, lambda t, _level, _h: (None, slab.phi_at(t)),
                                   16.0, 20.0, small_cfg)
    [b] = construct.solve_backward(sg2_params, lambda t, _level, _h: (None, spline(t)),
                                   16.0, 20.0, small_cfg)
    for x, y in ((a.phis, b.phis), (a.phi_dots, b.phi_dots)):
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


def test_param_derivative_memory(sg2_params):
    # reading Psi between snapshots builds nothing slab-sized; the dense
    # snapshots keep the solver's per-level arrays small beside the slab at
    # few steps
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.02, snapshot_dt=0.025)
    dt, every = cfg.plan(16.0, 20.0)
    times = np.linspace(16.0, 20.0, int(round(4.0 / dt)) // every + 1)
    psi = _bump_slab(cfg.grid, times, 0.3)
    tracemalloc.start()
    try:
        out = construct.param_derivative(sg2_params, psi, 1, "shift", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = out.times.nbytes + out.phis.nbytes + out.phi_dots.nbytes
    assert peak - returned < 0.5 * psi.phis.nbytes


def _old_residual(params, psi_slab, boundary_margin=5.0):
    """measure_residual as first written, with H + Psi of every snapshot held."""
    grid, dx = psi_slab.grid, psi_slab.dx
    mask = (grid >= grid[0] + boundary_margin) & (grid <= grid[-1] - boundary_margin)
    worst = 0.0
    phis = [ansatz.multikink(params, t, grid).phi + psi_slab.phis[i]
            for i, t in enumerate(psi_slab.times)]
    for i in range(1, len(psi_slab) - 1):
        dt1 = psi_slab.times[i] - psi_slab.times[i - 1]
        dt2 = psi_slab.times[i + 1] - psi_slab.times[i]
        if abs(dt1 - dt2) > 1e-9:
            continue
        dtt = (phis[i - 1] - 2.0 * phis[i] + phis[i + 1]) / (dt1 * dt1)
        r = dtt - derivative2(phis[i], dx) + params.model(phis[i], 1)
        worst = max(worst, math.sqrt(integrate_grid(r[mask] ** 2, dx)))
    return worst


@pytest.mark.parametrize("n_snap", [1, 2, 3, 12])
def test_measure_residual_rolling_window(sg2_params, small_cfg, n_snap):
    # one uneven step makes the residual skip the snapshots beside it
    times = 16.0 + 0.25 * np.arange(n_snap)
    times[-1] += 0.1 * (n_snap > 3)
    slab = _bump_slab(small_cfg.grid, times, 0.3)
    assert construct.measure_residual(sg2_params, slab) == _old_residual(sg2_params, slab)


def _full_scan(params, grid):
    """The start-time scan without stopping: times and |N(0)(t)|_{L2}."""
    times = np.arange(0.5, 200.0 + 1e-9, 0.5)
    dx = grid[1] - grid[0]
    return times, np.array([math.sqrt(integrate_grid(
        construct.nonlinearity(ansatz.AnsatzLevel(params, t, grid), 0.0) ** 2, dx))
        for t in times])


def _counting_nonlinearity(monkeypatch):
    calls = []
    real = construct.nonlinearity

    def counting(level, g):
        calls.append(level.t)
        return real(level, g)

    monkeypatch.setattr(construct, "nonlinearity", counting)
    return calls


def test_default_start_time_stops_at_threshold(sg2_params, monkeypatch):
    grid = np.arange(-34.0, 34.0 + 1e-9, 0.05)
    times, norms = _full_scan(sg2_params, grid)
    first = int(np.nonzero(norms <= 1e-3)[0][0])
    calls = _counting_nonlinearity(monkeypatch)
    T = construct.default_start_time(sg2_params, grid)
    assert T == times[first]
    assert len(calls) == first + 1 < len(times)


def test_default_start_time_without_crossing(sg2_params, monkeypatch):
    # no norm is <= a negative threshold: the whole scan and its minimum
    grid = np.arange(-34.0, 34.0 + 1e-9, 0.05)
    times, norms = _full_scan(sg2_params, grid)
    calls = _counting_nonlinearity(monkeypatch)
    monkeypatch.setattr(construct, "START_THRESHOLD", -1.0)
    with pytest.warns(UserWarning, match="never drops below"):
        T = construct.default_start_time(sg2_params, grid)
    assert T == times[np.argmin(norms)]
    assert len(calls) == len(times)


def _translated(params, s):
    """The same multikink translated in time by s: a_k = -v_k s."""
    return params.with_parameters(params.velocities, [-v * s for v in params.velocities])


def test_default_start_time_starts_after_the_kinks_cross(sg2_params):
    # shifts (10, -10) hold the kinks in the wrong order until they cross
    # at t = 100/3; |N(0)| is below the threshold at t = 0.5, which a scan
    # from 0 returned, and then grows
    grid = np.arange(-34.0, 34.0 + 1e-9, 0.05)
    s = 100.0 / 3.0
    moved = _translated(sg2_params, s)
    assert moved.shifts == (10.0, -10.0)
    T = construct.default_start_time(sg2_params, grid)
    assert T == 16.0
    assert construct.default_start_time(moved, grid) == T + s


def test_default_start_time_refuses_a_crossing_past_the_floats(sg2_params, small_cfg):
    # shifts 2e300 apart on velocities 1.1e-16 apart cross past the largest float
    far = sg2_params.with_parameters((0.3, 0.3 + 1.1e-16), (1e300, -1e300))
    with pytest.raises(ConfigError, match="kink paths cross at t = inf"):
        construct.default_start_time(far, small_cfg.grid)


@pytest.mark.slow
def test_translated_construction_is_the_translated_solution(sg2_params):
    # the manifold is invariant under time translation: the pair translated
    # by s gives Psi(t + s). T, delta and t_final are translated, since the
    # increments' weight e^(delta t) grows by e^(delta s) and the stopping
    # rule is not translation-invariant. Measured at dx 0.05: 2.30e-15 in
    # phi and 3.94e-15 in phi_t against max |Psi| 8.6e-4; the bound 2e-14
    # keeps a margin of 5 over the larger
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.05)
    s = 100.0 / 3.0
    psi, rep = construct.fixed_point(sg2_params, cfg, tol=1e-8, max_iter=25)
    moved, _ = construct.fixed_point(
        _translated(sg2_params, s), cfg, T=rep.T + s, delta=rep.delta,
        t_final=rep.t_final + s, tol=1e-8, max_iter=6)
    assert np.allclose(moved.times - s, psi.times, rtol=0, atol=1e-13)
    assert np.max(np.abs(moved.phis - psi.phis)) <= 2e-14
    assert np.max(np.abs(moved.phi_dots - psi.phi_dots)) <= 2e-14


@pytest.mark.slow
@pytest.mark.parametrize("kind, space_bound, time_bound", [
    ("phi6", 1e-7, 5e-7),    # measured 3.15e-8 and 1.79e-7
    ("phi4", 4e-8, 2.5e-7),  # measured 1.30e-8 and 7.59e-8
])
def test_translation_identities_on_nonintegrable_chains(phi4, kind, space_bound, time_bound):
    # Psi depends on x and the shifts through x - (v_k t + a_k) only, so
    # d_x Psi + sum_k d_{a_k} Psi = 0 and d_t Psi = sum_k v_k d_{a_k} Psi at
    # every snapshot, d_x taken as in C8. The sums with their sign flipped
    # read about 2 max |Psi_x| and 2 max |Psi_t| (measured 1.50e-3 and
    # 1.43e-3 on phi6, 4.27e-4 and 4.74e-4 on phi4), so a bound far below
    # them shows the identities and not a small Psi
    if kind == "phi6":  # the chain 0, 1, 2 of configs/phi6_construct.cfg
        cfg = ExperimentConfig(Path(__file__).resolve().parent.parent / "configs"
                               / "phi6_construct.cfg")
        model = cfg.build_model()
        params = cfg.build_params(model, cfg.build_table(model))
        config, settings = cfg.build_solver_config(), cfg.fixed_point_settings()
    else:  # the kink-antikink 0, 1, 0 with automatic T, delta and t_final
        model, table = phi4
        params = ansatz.make_params(model, table, (0, 1, 0), (-0.2, 0.2), (0.0, 0.0))
        config, settings = construct.SolverConfig(x_min=-40.0, x_max=40.0, dx=0.04), {"tol": 1e-8}
    psi, report = construct.fixed_point(params, config, **settings)
    if kind == "phi4":  # the suite's first kink-antikink construction
        assert (report.T, report.t_final, len(report.iterate_norms)) == (10.5, 26.5, 4)
    shifts = [construct.param_derivative(params, psi, k, "shift", config) for k in (1, 2)]
    worst = np.zeros(4)
    for i in range(len(psi)):
        psi_x = derivative(psi.phis[i], config.dx)
        sum_a = shifts[0].phis[i] + shifts[1].phis[i]
        sum_va = params.velocities[0] * shifts[0].phis[i] + params.velocities[1] * shifts[1].phis[i]
        worst = np.maximum(worst, [np.max(np.abs(d)) for d in (
            psi_x + sum_a, psi.phi_dots[i] - sum_va, psi_x - sum_a, psi.phi_dots[i] + sum_va)])
    assert worst[0] <= space_bound and worst[1] <= time_bound
    assert worst[2] >= 1e-4 and worst[3] >= 1e-4


def _single_kink_construction(sg, small_cfg):
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.3,), (0.0,))
    return construct.fixed_point(params, small_cfg, T=3.0, delta=0.4, t_final=12.0,
                                 max_iter=1)


@pytest.mark.slow
def test_decay_fit_catches_only_fit_errors(sg, small_cfg, monkeypatch):
    def no_fit(*_args, **_kwargs):
        raise FitError("log-linear fit requires positive values")

    monkeypatch.setattr(construct, "decay_fit", no_fit)
    _, rep = _single_kink_construction(sg, small_cfg)
    assert rep.fitted_decay_rate is None and rep.decay_fit_r2 is None
    assert rep.decay_fit_error == "log-linear fit requires positive values"

    def broken(*_args, **_kwargs):
        raise ValueError("not a fit failure")

    monkeypatch.setattr(construct, "decay_fit", broken)
    with pytest.raises(ValueError, match="not a fit failure"):
        _single_kink_construction(sg, small_cfg)


def test_decay_fit_error_is_reported(sg2_params, monkeypatch):
    # a 0.1 fit span holds one snapshot: the fit fails and says why
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1)
    kw = dict(T=16.0, delta=0.31, t_final=24.0, max_iter=1)
    with monkeypatch.context() as mp:
        mp.setattr(construct, "FIT_SPAN", 0.1)
        _, rep = construct.fixed_point(sg2_params, cfg, **kw)
    assert rep.fitted_decay_rate is None and rep.decay_fit_r2 is None
    assert rep.decay_fit_error == "need at least 3 samples for a log-linear fit"
    assert rep.to_dict()["decay_fit_error"] == rep.decay_fit_error
    _, rep = construct.fixed_point(sg2_params, cfg, **kw)
    assert rep.fitted_decay_rate > 0.0
    assert rep.decay_fit_error is None and rep.to_dict()["decay_fit_error"] is None


def test_ansatz_level_matches_multikink(sg2_params):
    grid = np.arange(-34.0, 34.0 + 1e-9, 0.05)
    level = ansatz.AnsatzLevel(sg2_params, 21.0, grid)
    state = ansatz.multikink(sg2_params, 21.0, grid)
    assert np.array_equal(level.H, state.phi)
    assert np.array_equal(level.H_t, state.phi_dot)


def test_nonlinearity_trivial_and_decay(sg, sg2_params):
    model, table = sg
    grid = np.arange(-34.0, 34.0 + 1e-9, 0.05)
    single = ansatz.make_params(model, table, (0, 1), (0.4,), (0.3,))

    def n0(params, t):
        return construct.nonlinearity(ansatz.AnsatzLevel(params, t, grid), 0.0)

    assert np.max(np.abs(n0(single, 7.0))) == 0.0
    sup30 = np.max(np.abs(n0(sg2_params, 30.0)))
    sup20 = np.max(np.abs(n0(sg2_params, 20.0)))
    assert sup30 <= sup20 * math.exp(-0.5 * 10.0)


def _fitted_forcing_rate(params, config):
    """The rule forcing_rate replaced, kept as its oracle: the decay rate of
    |N(0)| fitted over 21 times on [T, T + 10] from the automatic T."""
    T = construct.default_start_time(params, config.grid)
    times = np.linspace(T, T + 10.0, 21)
    norms = [construct._forcing_norm(params, t, config.grid, config.dx) for t in times]
    return -fit_log_linear(times, np.array(norms))[0]


# fit / formula - 1 measured on x in [-45, 45], dx 0.05, and each bound about
# twice that. The fit reads high where two exponentials of close rates blend.
# In phi6 the shared vacuum has mass sqrt(2) and the outer ones 2 sqrt(2):
# the outer mass would halve the fit against the formula.
@pytest.mark.parametrize("kind, velocities, bound", [
    ("sg", (-0.3, 0.3), 2.5e-4),            # measured -1.19e-4
    ("sg", (-0.1, 0.1), 1e-3),              # measured -4.84e-4
    ("sg", (-0.2, 0.6), 3.5e-3),            # measured +1.66e-3
    ("sg", (-0.4, 0.05, 0.45), 3e-2),       # measured +1.48e-2
    ("phi6", (-0.2, 0.4), 2.5e-2),          # measured +1.19e-2
    ("phi6", (-0.5, 0.1), 1.2e-2),          # measured +5.71e-3
])
def test_forcing_rate_matches_the_fit(request, kind, velocities, bound):
    model, table = request.getfixturevalue(kind)
    if len(velocities) == 3:  # the sine-Gordon chain 0, 2 pi, 4 pi, 6 pi
        model = replace(model, search_interval=(-1.0, 20.0))
        table = find_vacua(model)
    labels = range(len(velocities) + 1)
    params = ansatz.make_params(model, table, labels, velocities, (0.0,) * len(velocities))
    config = construct.SolverConfig(x_min=-45.0, x_max=45.0, dx=0.05)
    eta = construct.forcing_rate(params)
    assert abs(_fitted_forcing_rate(params, config) / eta - 1.0) <= bound


def test_forcing_rate_without_a_pair(sg, phi6):
    # N(0) of one kink, or of none, is zero: the rate is the smallest mass
    for model, table in (sg, phi6):
        for labels, v in (((0, 1), (0.4,)), ((1, 2), (-0.6,)), ((1,), ())):
            params = ansatz.make_params(model, table, labels, v, (0.3,) * len(v))
            assert construct.forcing_rate(params) == min(table.masses)


def test_fit_needs_an_interval():
    # sample times that span no interval are a fit error, not an overflow
    # in np.polyfit
    with pytest.raises(FitError, match="interval"):
        fit_log_linear(np.full(5, 2.0), np.arange(1.0, 6.0))


def test_nonlinearity_quadratic_smallness(sg2_params):
    grid = np.arange(-34.0, 34.0 + 1e-9, 0.05)
    rng = np.random.default_rng(2)
    b = gaussian_bumps(grid, rng)
    t = 20.0
    level = ansatz.AnsatzLevel(sg2_params, t, grid)
    n0 = construct.nonlinearity(level, 0.0)
    lin = -sg2_params.model(level.H, 2) + level.V
    errs = []
    for eps in (1e-2, 1e-3):
        n_eps = construct.nonlinearity(level, eps * b)
        errs.append(np.max(np.abs(n_eps - n0 - eps * lin * b)))
    assert errs[0] <= 1.0 * 1e-4 * np.max(np.abs(b)) ** 2 * 10
    assert errs[1] <= 0.02 * errs[0]  # O(eps^2) scaling


@pytest.mark.slow
def test_fixed_point_single_kink(sg, small_cfg):
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.3,), (0.0,))
    psi, rep = construct.fixed_point(params, small_cfg, T=3.0, delta=0.4,
                                     t_final=20.0, tol=1e-9, max_iter=5)
    assert np.max(np.abs(psi.phis)) <= 1e-12
    assert rep.converged


@pytest.mark.slow
def test_fixed_point_reference(sg2_construction):
    rep = sg2_construction["report"]
    assert rep.converged
    assert rep.contraction_ratio < 0.5
    assert rep.fitted_decay_rate > 0.0
    assert rep.decay_fit_r2 >= 0.99
    # Psi decays at the forcing's rate 2 delta: measured 0.628941 against
    # 0.628971 (4.8e-5 relative)
    assert rep.fitted_decay_rate == pytest.approx(2.0 * rep.delta, rel=1e-4)
    assert all(b <= a or b < 1e-8 for a, b in
               zip(rep.iterate_norms[1:], rep.iterate_norms[2:]))


_GRID = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1).grid
# five snapshots on [16, 24], where the solver's lattice holds 33
_OFF_LATTICE = SpaceTimeSlab(np.linspace(16.0, 24.0, 5), _GRID, np.zeros((5, len(_GRID))),
                             np.zeros((5, len(_GRID))))


def test_fixed_point_rejects_g0_off_the_lattice(sg2_params):
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1)
    with pytest.raises(ConfigError, match="snapshots"):
        construct.fixed_point(sg2_params, cfg, T=16.0, delta=0.31, t_final=24.0,
                              g0=_OFF_LATTICE)
    with pytest.raises(ConfigError, match="needs T and t_final"):
        construct.fixed_point(sg2_params, cfg, T=16.0, delta=0.31, g0=_OFF_LATTICE)


@pytest.mark.parametrize("bad", [dict(max_iter=-1), dict(tol=0.0), dict(tol=-1.0),
                                 dict(tol=math.nan), dict(tol=math.inf), dict(delta=0.0),
                                 dict(delta=-0.3), dict(max_iter=0), dict(g0=_OFF_LATTICE)])
def test_fixed_point_rejects_bad_settings(sg2_params, monkeypatch, bad):
    # each raises ConfigError before the start-time scan and any backward
    # solve; a g0 without T or t_final is refused for that, and one with
    # both for lying off their lattice
    def no_solve(*_args, **_kwargs):
        raise AssertionError("a solve or the start-time scan ran")

    monkeypatch.setattr(construct, "solve_backward", no_solve)
    monkeypatch.setattr(construct, "nonlinearity", no_solve)
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1)
    for T in (None, 16.0):
        for t_final in (None, 24.0):
            with pytest.raises(ConfigError):
                construct.fixed_point(sg2_params, cfg, **{"T": T, "delta": 0.31,
                                                          "t_final": t_final, **bad})


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_no_contraction_detected(sg2_params, monkeypatch):
    # unit test of the divergence detector: make every lane of every sweep
    # report an increment twice the last, so the increment ratio stays at 2
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.05)
    norms = []

    def fake(params, config, T, tops, n_cand, lanes, delta, g=None):
        for _ in range(1 + lanes):
            norms.append(2.0 ** len(norms))
        return [], [(g, norms[-1 - lanes:])]

    monkeypatch.setattr(construct, "_sweep", fake)
    with pytest.raises(NoContractionError):
        construct.fixed_point(sg2_params, cfg, T=4.0, delta=0.3, t_final=30.0,
                              tol=1e-14, max_iter=12)
    # it fires at the 8th increment, the first above 100x the smallest
    assert len(norms) == 9


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("call", ["zero_modes", "kink_cutoff", "param_derivative"])
def test_a_kink_index_outside_the_chain_is_refused(sg2_params, small_cfg, call, k):
    # sg2_params has K = 2: k = 0 and k = K + 1 index no kink.
    # param_derivative refuses k before any solve, so a zero slab will do
    grid = small_cfg.grid
    zeros = np.zeros((2, len(grid)))
    calls = {"zero_modes": lambda: ansatz.zero_modes(sg2_params, k, 1.0, grid),
             "kink_cutoff": lambda: ansatz.kink_cutoff(sg2_params, k, 1.0, grid, 0.03),
             "param_derivative": lambda: construct.param_derivative(
                 sg2_params, SpaceTimeSlab([0.0, 0.25], grid, zeros, zeros), k, "shift",
                 small_cfg)}
    with pytest.raises(ConfigError, match=rf"kink index {k} outside 1\.\.2$"):
        calls[call]()


@pytest.mark.slow
def test_param_derivative_single_kink_zero(sg, small_cfg):
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.3,), (0.0,))
    psi, rep = construct.fixed_point(params, small_cfg, T=3.0, delta=0.4,
                                     t_final=20.0, tol=1e-9, max_iter=5)
    dpsi = construct.param_derivative(params, psi, 1, "shift", small_cfg)
    assert np.max(np.abs(dpsi.phis)) <= 1e-10
    with pytest.raises(ConfigError):
        construct.param_derivative(params, psi, 2, "shift", small_cfg)
    with pytest.raises(ConfigError):
        construct.param_derivative(params, psi, 1, "acceleration", small_cfg)


@pytest.mark.slow
def test_velocity_derivative_consistency(sg2_params):
    # coarse finite-difference check of the velocity derivative
    cfg = construct.SolverConfig(x_min=-36.0, x_max=36.0, dx=0.05)
    kw = dict(T=16.0, delta=0.31, t_final=48.0, tol=1e-10, max_iter=30)
    psi, _ = construct.fixed_point(sg2_params, cfg, **kw)
    dv1 = construct.param_derivative(sg2_params, psi, 1, "velocity", cfg)
    eps = 2e-3
    pp = sg2_params.with_parameters((-0.3 + eps, 0.3), (0.0, 0.0))
    pm = sg2_params.with_parameters((-0.3 - eps, 0.3), (0.0, 0.0))
    psip, _ = construct.fixed_point(pp, cfg, **kw)
    psim, _ = construct.fixed_point(pm, cfg, **kw)
    fd = (psip.phis - psim.phis) / (2.0 * eps)
    keep = psi.times <= 28.0 + 1e-9
    err = np.max(np.abs(fd[keep] - dv1.phis[keep]))
    scale = np.max(np.abs(dv1.phis[keep]))
    assert err <= 0.02 * scale
