import math

import numpy as np
import pytest

from multikink import ansatz, construct
from multikink.errors import ConfigError, FitError, NoContractionError
from multikink.evolve import SpaceTimeSlab
from multikink.numerics import gaussian_bumps, integrate_grid
from conftest import two_soliton_oracle


@pytest.fixture(scope="module")
def small_cfg():
    return construct.SolverConfig(x_min=-25.0, x_max=25.0, dx=0.05)


def _bump_slab(grid, times, delta0):
    b = np.exp(-0.5 * grid**2)
    phis = np.array([np.exp(-delta0 * t) * b for t in times])
    dots = np.array([-delta0 * np.exp(-delta0 * t) * b for t in times])
    return SpaceTimeSlab(times, grid, phis, dots)


@pytest.mark.parametrize("bad", [dict(dx=0.0), dict(dx=-0.05), dict(dx=math.nan),
                                 dict(x_max=math.inf), dict(cfl=0.0),
                                 dict(snapshot_dt=0.0), dict(snapshot_dt=-0.25),
                                 dict(snapshot_dt=math.nan)])
def test_solver_config_rejects_bad_values(bad):
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
    cfg = construct.WeightedNormConfig(T=2.0, delta=0.25)
    expect = math.exp((0.25 - delta0) * 2.0) * base
    assert construct.weighted_norm(slab, cfg) == pytest.approx(expect, rel=1e-3)
    # growing weight: supremum at the last snapshot
    cfg2 = construct.WeightedNormConfig(T=2.0, delta=1.0)
    expect2 = math.exp((1.0 - delta0) * 12.0) * base
    assert construct.weighted_norm(slab, cfg2) == pytest.approx(expect2, rel=1e-3)
    zero = SpaceTimeSlab(times, grid, np.zeros((41, len(grid))), np.zeros((41, len(grid))))
    assert construct.weighted_norm(zero, cfg) == 0.0
    with pytest.raises(ConfigError):
        construct.weighted_norm(slab, construct.WeightedNormConfig(T=100.0, delta=0.25))


def test_weighted_norm_divergence_with_range(small_cfg):
    grid = small_cfg.grid
    delta0 = 0.5
    cfg = construct.WeightedNormConfig(T=2.0, delta=1.5)
    n_short = construct.weighted_norm(_bump_slab(grid, np.linspace(2, 8, 25), delta0), cfg)
    n_long = construct.weighted_norm(_bump_slab(grid, np.linspace(2, 16, 57), delta0), cfg)
    assert n_long > 10.0 * n_short


def test_solve_backward_zero_forcing(sg, small_cfg):
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.2,), (0.0,))
    slab = construct.solve_backward(params, None, 2.0, 12.0, small_cfg)
    assert np.max(np.abs(slab.phis)) == 0.0
    assert slab.times[0] == pytest.approx(2.0)
    assert slab.times[-1] == pytest.approx(12.0)


def test_solve_backward_apriori_bound(phi4):
    model, table = phi4
    params = ansatz.make_params(model, table, (0, 1), (0.0,), (0.0,))
    norm_cfg = construct.WeightedNormConfig(T=1.0, delta=0.4)
    consts = []
    for dx in (0.1, 0.05):
        cfg = construct.SolverConfig(x_min=-25.0, x_max=25.0, dx=dx)
        bump = np.exp(-0.5 * (cfg.grid - 1.0) ** 2)
        h = construct.solve_backward(params, lambda t: math.exp(-t) * bump, 1.0, 25.0, cfg)
        f_slab = SpaceTimeSlab(h.times, cfg.grid,
                               np.array([math.exp(-t) * bump for t in h.times]),
                               np.zeros((len(h.times), len(cfg.grid))))
        c = construct.weighted_norm(h, norm_cfg) / construct.weighted_norm(
            f_slab, norm_cfg, kind="l2")
        consts.append(c)
    assert consts[0] == pytest.approx(consts[1], rel=0.05)


def test_solve_backward_truncation_insensitive(sg2_params):
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.05)

    def forcing(t):
        return construct.nonlinearity(sg2_params, 0.0, t, cfg.grid)

    h1 = construct.solve_backward(sg2_params, forcing, 16.0, 48.0, cfg)
    h2 = construct.solve_backward(sg2_params, forcing, 16.0, 80.0, cfg)
    worst = 0.0
    for t in np.linspace(16.0, 46.0, 31):
        pa, _ = h1.sample(t)
        pb, _ = h2.sample(t)
        worst = max(worst, float(np.max(np.abs(pa - pb))))
    assert worst <= 1e-8


def test_stability_constant_across_parameters(sg):
    # measured response constant varies little over a compact (v, a) set when
    # the probe forcing rides along with the kink
    model, table = sg
    norm_cfg = construct.WeightedNormConfig(T=1.0, delta=0.4)
    cfg = construct.SolverConfig(x_min=-25.0, x_max=25.0, dx=0.05)
    consts = []
    for v, a in ((0.0, 0.0), (0.2, 1.0), (0.4, -1.0)):
        params = ansatz.make_params(model, table, (0, 1), (v,), (a,))

        def forcing(t, v=v, a=a):
            return math.exp(-t) * np.exp(-0.5 * (cfg.grid - v * t - a - 1.0) ** 2)

        h = construct.solve_backward(params, forcing, 1.0, 25.0, cfg)
        f_slab = SpaceTimeSlab(h.times, cfg.grid,
                               np.array([forcing(t) for t in h.times]),
                               np.zeros((len(h.times), len(cfg.grid))))
        consts.append(construct.weighted_norm(h, norm_cfg)
                      / construct.weighted_norm(f_slab, norm_cfg, kind="l2"))
    assert max(consts) <= 1.2 * min(consts)


def test_solve_backward_one_evaluation_per_level(sg2_params, monkeypatch):
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1)
    calls = []

    def counting(params, t, grid):
        calls.append(t)
        return ansatz.evaluate_ansatz(params, t, grid)

    monkeypatch.setattr(construct, "evaluate_ansatz", counting)
    dt, _ = cfg.plan(16.0, 24.0)
    n_steps = int(round(8.0 / dt))
    # the forcing N(0) and the potential share each step's level
    construct.solve_backward(sg2_params, construct._FREE_FORCING, 16.0, 24.0, cfg)
    assert len(calls) == n_steps + 1
    assert len(set(calls)) == n_steps + 1


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


def test_fixed_point_reuses_truncation_slab(sg2_params, monkeypatch):
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1)
    kw = dict(T=16.0, delta=0.31, tol=1e-7, max_iter=4)
    counts = _count_solves(monkeypatch)
    psi, rep = construct.fixed_point(sg2_params, cfg, **kw)
    assert counts["probes"] >= 2
    assert counts["solves"] == counts["probes"] + rep.iterations - 1
    # the same construction with t_final given solves its first iterate
    counts.update(solves=0, probes=0)
    psi2, rep2 = construct.fixed_point(sg2_params, cfg, t_final=rep.t_final, **kw)
    assert counts == {"solves": rep2.iterations, "probes": 0}
    assert np.array_equal(psi.times, psi2.times)
    assert np.array_equal(psi.phis, psi2.phis)
    assert np.array_equal(psi.phi_dots, psi2.phi_dots)
    assert rep.iterate_norms == rep2.iterate_norms


def _single_kink_construction(sg, small_cfg):
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.3,), (0.0,))
    return construct.fixed_point(params, small_cfg, T=3.0, delta=0.4, t_final=12.0,
                                 max_iter=1)


def test_decay_fit_catches_only_fit_errors(sg, small_cfg, monkeypatch):
    def no_fit(*_args, **_kwargs):
        raise FitError("log-linear fit requires positive values")

    monkeypatch.setattr(construct, "decay_fit", no_fit)
    _, rep = _single_kink_construction(sg, small_cfg)
    assert math.isnan(rep.fitted_decay_rate) and math.isnan(rep.decay_fit_r2)

    def broken(*_args, **_kwargs):
        raise ValueError("not a fit failure")

    monkeypatch.setattr(construct, "decay_fit", broken)
    with pytest.raises(ValueError, match="not a fit failure"):
        _single_kink_construction(sg, small_cfg)


def test_ansatz_pieces_match_public_potential(sg2_params):
    grid = np.arange(-34.0, 34.0 + 1e-9, 0.05)
    level = ansatz.evaluate_ansatz(sg2_params, 21.0, grid)
    state = ansatz.multikink(sg2_params, 21.0, grid)
    assert np.array_equal(level.V, ansatz.linearization_potential(sg2_params, 21.0, grid))
    assert np.array_equal(level.H, state.phi)
    assert np.array_equal(level.H_t, state.phi_dot)


def test_nonlinearity_trivial_and_decay(sg, sg2_params):
    model, table = sg
    grid = np.arange(-34.0, 34.0 + 1e-9, 0.05)
    single = ansatz.make_params(model, table, (0, 1), (0.4,), (0.3,))
    assert np.max(np.abs(construct.nonlinearity(single, 0.0, 7.0, grid))) == 0.0
    sup30 = np.max(np.abs(construct.nonlinearity(sg2_params, 0.0, 30.0, grid)))
    sup20 = np.max(np.abs(construct.nonlinearity(sg2_params, 0.0, 20.0, grid)))
    assert sup30 <= sup20 * math.exp(-0.5 * 10.0)
    eta = construct.fitted_forcing_rate(sg2_params, grid, 16.0)
    assert 0.5 <= eta <= 0.75  # tail overlap rate ~ gamma (v2 - v1) m


def test_nonlinearity_quadratic_smallness(sg2_params):
    grid = np.arange(-34.0, 34.0 + 1e-9, 0.05)
    rng = np.random.default_rng(2)
    b = gaussian_bumps(grid, rng)
    t = 20.0
    n0 = construct.nonlinearity(sg2_params, 0.0, t, grid)
    level = ansatz.evaluate_ansatz(sg2_params, t, grid)
    lin = -sg2_params.model(level.H, 2) + level.V
    errs = []
    for eps in (1e-2, 1e-3):
        n_eps = construct.nonlinearity(sg2_params, eps * b, t, grid)
        errs.append(np.max(np.abs(n_eps - n0 - eps * lin * b)))
    assert errs[0] <= 1.0 * 1e-4 * np.max(np.abs(b)) ** 2 * 10
    assert errs[1] <= 0.02 * errs[0]  # O(eps^2) scaling


def test_fixed_point_single_kink(sg, small_cfg):
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.3,), (0.0,))
    psi, rep = construct.fixed_point(params, small_cfg, T=3.0, delta=0.4,
                                     t_final=20.0, tol=1e-9, max_iter=5)
    assert np.max(np.abs(psi.phis)) <= 1e-12
    assert rep.converged


def test_fixed_point_reference(sg2_construction):
    rep = sg2_construction["report"]
    assert rep.converged
    assert rep.contraction_ratio < 0.5
    assert rep.fitted_decay_rate > 0.0
    assert rep.decay_fit_r2 >= 0.99
    assert all(b <= a or b < 1e-8 for a, b in
               zip(rep.iterate_norms[1:], rep.iterate_norms[2:]))


def test_fixed_point_matches_two_soliton(sg2_params, sg2_construction):
    psi = sg2_construction["psi"]
    rep = sg2_construction["report"]
    cfg = sg2_construction["config"]
    worst = 0.0
    for i, t in enumerate(psi.times):
        if t > rep.T + 10.0:
            break
        phi = ansatz.multikink(sg2_params, t, cfg.grid).phi + psi.phis[i]
        worst = max(worst, float(np.max(np.abs(phi - two_soliton_oracle(t, cfg.grid)))))
    assert worst <= 1e-3


def test_fixed_point_zero_iterations(sg2_params):
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.05)
    psi, rep = construct.fixed_point(sg2_params, cfg, T=16.0, delta=0.3,
                                     t_final=40.0, max_iter=0)
    assert np.max(np.abs(psi.phis)) == 0.0
    assert rep.iterations == 0
    assert rep.iterate_norms == []


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_no_contraction_detected(sg2_params, monkeypatch):
    # unit test of the divergence detector: make each backward solve return a
    # strictly growing iterate so the increment ratio stays at 2
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.05)
    calls = {"n": 0}
    bump = np.exp(-0.5 * cfg.grid**2)

    def fake(params, forcing, t0, t1, config):
        calls["n"] += 1
        dt, every = config.plan(t0, t1)
        times = np.arange(t0, t1 + 1e-9, dt * every)
        amp = 2.0 ** calls["n"]
        phis = np.array([amp * math.exp(-0.3 * t) * bump for t in times])
        return SpaceTimeSlab(times, config.grid, phis, np.zeros_like(phis))

    monkeypatch.setattr(construct, "solve_backward", fake)
    with pytest.raises(NoContractionError):
        construct.fixed_point(sg2_params, cfg, T=4.0, delta=0.3, t_final=30.0,
                              tol=1e-14, max_iter=12)


def test_uniqueness_restart(sg2_construction, sg2_restart):
    cfg = sg2_construction["config"]
    rep = sg2_construction["report"]
    psi = sg2_construction["psi"]
    psi2 = sg2_restart["psi"]
    diff = construct.weighted_norm(
        SpaceTimeSlab(psi.times, cfg.grid, psi2.phis - psi.phis,
                      psi2.phi_dots - psi.phi_dots),
        construct.WeightedNormConfig(T=rep.T, delta=rep.delta))
    assert diff <= 10.0 * 1e-10


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
