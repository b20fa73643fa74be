import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicHermiteSpline

from multikink import ansatz, evolve
from multikink.construct import SolverConfig
from multikink.errors import ConfigError, InstabilityError, NumericsError, SectorError
from multikink.numerics import gaussian_bumps, grid_spacing, integrate_grid, random_pair_field


@pytest.fixture(scope="module")
def grid():
    return np.arange(-20.0, 20.0 + 1e-12, 0.02)


@pytest.fixture(scope="module")
def phi4_static(phi4):
    model, table = phi4
    return ansatz.make_params(model, table, (0, 1), (0.0,), (0.0,))


def test_cfl_validation(grid):
    with pytest.raises(ConfigError):
        evolve.EvolveConfig(dt=0.03, t_end=1.0).validate(0.02)
    evolve.EvolveConfig(dt=0.018, t_end=1.0).validate(0.02)
    # the one bound sqrt(0.97), where the Laplacian blend reaches 0 up to rounding
    edge = evolve.EvolveConfig(dt=-evolve.MAX_COURANT * 0.02, t_end=-1.0)
    edge.validate(0.02)
    assert edge.stencil_blend(0.02) <= 1e-12
    with pytest.raises(ConfigError):
        evolve.EvolveConfig(dt=0.02, t_end=1.0).validate(0.02)
    # the bound's slack is STEP_SLACK (1e-9) relative and no more
    with pytest.raises(ConfigError, match="CFL violation"):
        evolve.EvolveConfig(dt=evolve.MAX_COURANT * 0.02 * (1 + 1e-8), t_end=1.0).validate(0.02)


def test_static_kink_is_fixed_point(phi4, phi4_static, grid):
    model, _ = phi4
    state = ansatz.multikink(phi4_static, 0.0, grid)
    slab = evolve.evolve_nonlinear(state, model, evolve.EvolveConfig(dt=0.018, t_end=50.0,
                                                                     snapshot_every=500))
    assert np.max(np.abs(slab.phis[-1] - state.phi)) <= 1e-4


def test_vacuum_constant(sg, grid):
    model, table = sg
    state = ansatz.FieldState(t=0.0, grid=grid, phi=np.full_like(grid, table.vacuum(1)),
                              phi_dot=np.zeros_like(grid))
    slab = evolve.evolve_nonlinear(state, model, evolve.EvolveConfig(dt=0.018, t_end=5.0))
    assert np.max(np.abs(slab.phis[-1] - table.vacuum(1))) <= 1e-13
    # the stored vacuum is 2 pi rounded, where W = 2 sin^2(phi/2) is ~3e-32,
    # not 0: the energy is exactly the grid integral of that W, and E_k is 0
    w_vac = integrate_grid(model(state.phi, 0), state.dx)
    assert w_vac <= 1e-28
    assert evolve.energy(state, model) == (w_vac, w_vac, 0.0)


def test_traveling_kink(sg):
    model, table = sg
    grid = np.arange(-30.0, 30.0 + 1e-12, 0.02)
    params = ansatz.make_params(model, table, (0, 1), (0.5,), (0.0,))
    state = ansatz.multikink(params, 0.0, grid)
    slab = evolve.evolve_nonlinear(state, model, evolve.EvolveConfig(dt=0.018, t_end=20.0,
                                                                     snapshot_every=100))
    for i in (len(slab) // 2, len(slab) - 1):
        t = slab.times[i]
        ref = ansatz.multikink(params, t, grid)
        assert np.max(np.abs(slab.phis[i] - ref.phi)) <= 1e-3
        # center (crossing of the midpoint value) tracks v t
        mid = np.pi
        j = int(np.nonzero(slab.phis[i] >= mid)[0][0])
        x0 = grid[j - 1] + 0.02 * (mid - slab.phis[i][j - 1]) / (slab.phis[i][j] - slab.phis[i][j - 1])
        assert abs(x0 - 0.5 * t) <= 1e-3


def test_energy_drift_second_order(sg, grid):
    model, table = sg
    rng = np.random.default_rng(5)
    phi = table.vacuum(0) + gaussian_bumps(grid, rng)
    phi[0] = table.vacuum(0)
    phi[-1] = table.vacuum(0)
    state = ansatz.FieldState(t=0.0, grid=grid, phi=phi, phi_dot=np.zeros_like(grid))
    drifts = []
    for dt in (0.018, 0.009):
        slab = evolve.evolve_nonlinear(state, model, evolve.EvolveConfig(dt=dt, t_end=10.0,
                                                                         snapshot_every=50))
        e = [evolve.energy(slab.state(i), model)[0] for i in range(len(slab))]
        drifts.append(np.max(np.abs(np.array(e) - e[0])))
    assert drifts[1] <= 0.35 * drifts[0]


def test_linearity(phi4_static, grid):
    rng = np.random.default_rng(8)
    h1 = random_pair_field(grid, rng)
    h2 = random_pair_field(grid, rng)
    cfg = evolve.EvolveConfig(dt=0.018, t_end=3.0, snapshot_every=50)
    s1 = evolve.zero_mode_drift(phi4_static, h1, grid, 0.0, cfg)[0]
    s2 = evolve.zero_mode_drift(phi4_static, h2, grid, 0.0, cfg)[0]
    s12 = evolve.zero_mode_drift(phi4_static, 2.0 * h1 - 0.5 * h2, grid, 0.0, cfg)[0]
    assert np.max(np.abs(s12.phis[-1] - (2.0 * s1.phis[-1] - 0.5 * s2.phis[-1]))) <= 1e-11


def test_zero_initial_data(phi4_static, grid):
    cfg = evolve.EvolveConfig(dt=0.018, t_end=2.0)
    slab = evolve.zero_mode_drift(phi4_static, np.zeros((2, len(grid))), grid, 0.0, cfg)[0]
    assert np.max(np.abs(slab.phis)) == 0.0


def test_domain_size_insensitivity(phi4, phi4_static):
    model, _ = phi4
    results = {}
    for half in (20.0, 40.0):
        grid = np.linspace(-half, half, int(round(2 * half / 0.02)) + 1)
        state = ansatz.multikink(phi4_static, 0.0, grid)
        slab = evolve.evolve_nonlinear(state, model, evolve.EvolveConfig(dt=0.018, t_end=5.0))
        inner = np.abs(grid) <= 10.0 + 1e-9
        results[half] = slab.phis[-1][inner]
    assert np.max(np.abs(results[20.0] - results[40.0])) <= 1e-6


def test_mode_stationarity_refines(phi4_static):
    errs = []
    for dx in (0.02, 0.01):
        grid = np.arange(-20.0, 20.0 + 1e-12, dx)
        m = ansatz.zero_modes(phi4_static, 1, 0.0, grid)
        cfg = evolve.EvolveConfig(dt=0.9 * dx, t_end=10.0, snapshot_every=200)
        slab = evolve.zero_mode_drift(phi4_static, m.Y0, grid, 0.0, cfg)[0]
        errs.append(np.max(np.abs(slab.phis[-1] - m.Y0[0])))
    assert errs[1] <= 0.35 * errs[0]
    assert errs[1] <= 5e-3


def test_secular_solution(sg):
    model, table = sg
    dx = 0.01
    grid = np.arange(-30.0, 30.0 + 1e-12, dx)
    params = ansatz.make_params(model, table, (0, 1), (0.5,), (0.0,))
    m0 = ansatz.zero_modes(params, 1, 0.0, grid)
    cfg = evolve.EvolveConfig(dt=0.9 * dx, t_end=10.0, snapshot_every=200)
    slab = evolve.zero_mode_drift(params, m0.Y1, grid, 0.0, cfg)[0]
    t_end = slab.times[-1]
    mt = ansatz.zero_modes(params, 1, t_end, grid)
    gamma = 1.0 / np.sqrt(1.0 - 0.25)
    expect = mt.Y1 + (t_end / gamma) * mt.Y0
    got = np.stack([slab.phis[-1], slab.phi_dots[-1]])
    assert np.max(np.abs(got - expect)) <= 1e-3


def test_detect_sector(phi4, sg, sg2_params, grid):
    phi4_model, phi4_table = phi4
    params = ansatz.make_params(phi4_model, phi4_table, (0, 1), (0.0,), (0.0,))
    anti = ansatz.make_params(phi4_model, phi4_table, (1, 0), (0.0,), (0.0,))
    assert evolve.detect_sector(ansatz.multikink(params, 0.0, grid), phi4_table) == (0, 1)
    assert evolve.detect_sector(ansatz.multikink(anti, 0.0, grid), phi4_table) == (1, 0)
    _, sg_table = sg
    state2 = ansatz.multikink(sg2_params, 20.0, np.arange(-30.0, 30.0 + 1e-9, 0.02))
    assert evolve.detect_sector(state2, sg_table) == (0, 2)
    bad = ansatz.FieldState(t=0.0, grid=grid, phi=np.full_like(grid, 0.5),
                            phi_dot=np.zeros_like(grid))
    with pytest.raises(SectorError):
        evolve.detect_sector(bad, phi4_table)


@pytest.mark.parametrize("n_steps, every, steps", [(12, 4, [0, 4, 8, 12]),
                                                   (10, 4, [0, 4, 8, 10]),
                                                   (3, 4, [0, 3])])
def test_leapfrog_snapshot_schedule(n_steps, every, steps):
    # zero acceleration: the interior moves at the constant initial speed;
    # steps of 0.125 keep every time exact
    phi0 = np.linspace(0.0, 1.0, 9)
    pd0 = np.zeros(9)
    pd0[1:-1] = 2.0

    def source(_t, _f, out):
        out[:] = 0.0

    [slab] = evolve._evolve(phi0, pd0, 5.0, np.arange(9.0), 1.0,
                            evolve.EvolveConfig(dt=0.125, t_end=5.0 + n_steps * 0.125,
                                                snapshot_every=every), source)
    steps = np.array(steps)
    assert np.array_equal(slab.times, 5.0 + steps * 0.125)
    assert slab.phis.shape == slab.phi_dots.shape == (len(steps), 9)
    assert np.array_equal(slab.phis[0], phi0)
    assert np.allclose(slab.phis[:, 1:-1], phi0[1:-1] + 0.25 * steps[:, None], rtol=0, atol=1e-12)
    assert np.array_equal(slab.phis[:, [0, -1]], np.tile(phi0[[0, -1]], (len(steps), 1)))
    assert np.array_equal(slab.phi_dots, np.tile(pd0, (len(steps), 1)))


@pytest.mark.parametrize("dt", [0.05, -0.05])
def test_lanes_match_single_lane_runs(sg, dt):
    # three lanes, each with its own initial data and forcing amplitude;
    # every lane is the single-lane run bit for bit, as observed and as kept
    model, _ = sg
    grid = np.arange(-20.0, 20.0 + 1e-9, 0.1)
    rng = np.random.default_rng(5)
    phi0 = np.stack([gaussian_bumps(grid, rng) for _ in range(3)])
    pd0 = np.stack([gaussian_bumps(grid, rng) for _ in range(3)])
    amps = np.array([0.3, -1.0, 2.0])
    bump = np.exp(-grid**2)
    cfg = evolve.EvolveConfig(dt=dt, t_end=1.0 + 3.0 * np.sign(dt), snapshot_every=7)

    def run(lanes, observe=None, keep=(-1,)):
        def source(t, f, out):
            out[:, 1:-1] -= model(f[:, 1:-1], 1)
            out[:, 1:-1] += amps[lanes, None] * math.cos(t) * bump[1:-1]
        return evolve._evolve(phi0[lanes], pd0[lanes], 1.0, grid, 0.1, cfg, source, observe,
                              keep=keep)

    seen = []
    kept = run(slice(0, 3), lambda t, f, fd: seen.append((t, f.copy(), fd.copy())), range(3))
    order = slice(None) if dt > 0 else slice(None, None, -1)
    times = np.array([t for t, _, _ in seen])[order]
    for j, lane in enumerate(kept):
        [single] = run(slice(j, j + 1))
        assert np.array_equal(single.times, times)
        assert np.array_equal(single.phis, np.array([f[j] for _, f, _ in seen])[order])
        assert np.array_equal(single.phi_dots, np.array([fd[j] for _, _, fd in seen])[order])
        _assert_kept_as(lane, single)
    # the last lane by default
    [last] = run(slice(0, 3))
    _assert_kept_as(last, single)


def _assert_kept_as(lane, single):
    """lane, a kept slab, is the single-lane run bit for bit, written in
    place in increasing time."""
    assert np.array_equal(lane.times, single.times)
    assert np.all(np.diff(lane.times) > 0)
    assert np.array_equal(lane.phis, single.phis)
    assert np.array_equal(lane.phi_dots, single.phi_dots)
    assert lane.phis.flags.c_contiguous and lane.phi_dots.flags.c_contiguous


def test_joined_lanes_match_runs_from_their_start(sg):
    # a backward run from 1 to -2 in which lanes 1 and 2 join at 0 and -1
    # from their own data; with levels counted from the lower end each lane
    # is the run from its start bit for bit, although the forcing reads t
    model, _ = sg
    grid = np.arange(-20.0, 20.0 + 1e-9, 0.1)
    rng = np.random.default_rng(6)
    phi0 = np.stack([gaussian_bumps(grid, rng) for _ in range(3)])
    pd0 = np.stack([gaussian_bumps(grid, rng) for _ in range(3)])
    amps = np.array([0.3, -1.0, 2.0])
    bump = np.exp(-grid**2)
    cfg = evolve.EvolveConfig(dt=-0.0625, t_end=-2.0, snapshot_every=8)

    def run(lanes, t0, observe=None, starts=None, keep=(-1,)):
        def source(t, f, out):
            out[:, 1:-1] -= model(f[:, 1:-1], 1)
            out[:, 1:-1] += amps[lanes][:len(f), None] * math.cos(t) * bump[1:-1]
        return evolve._evolve(phi0[lanes], pd0[lanes], t0, grid, 0.1, cfg, source, observe,
                              starts, keep)

    seen = {}
    kept = run(slice(0, 3), 1.0, lambda t, f, fd: seen.setdefault(t, (f.copy(), fd.copy())),
               [1.0, 0.0, -1.0], range(3))
    assert [len(f) for f, _ in seen.values()] == [1, 1, 2, 2, 3, 3, 3]
    for j, (t0, lane) in enumerate(zip((1.0, 0.0, -1.0), kept)):
        [single] = run(slice(j, j + 1), t0)
        observed = [seen[t] for t in single.times]
        assert np.array_equal(single.phis, np.array([f[j] for f, _ in observed]))
        assert np.array_equal(single.phi_dots, np.array([fd[j] for _, fd in observed]))
        _assert_kept_as(lane, single)
    # the last lane by default
    [last] = run(slice(0, 3), 1.0, starts=[1.0, 0.0, -1.0])
    _assert_kept_as(last, single)
    # starts off the levels, off the snapshots or out of order are refused
    for starts in ([1.0, 0.03, -1.0], [1.0, 0.0625, -1.0], [1.0, -1.0, 0.0], [0.0, 0.0, -1.0]):
        with pytest.raises(ConfigError):
            run(slice(0, 3), 1.0, starts=starts)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_instability_detection(phi4, grid):
    model, _ = phi4
    state = ansatz.FieldState(t=0.0, grid=grid, phi=50.0 * np.exp(-grid**2),
                              phi_dot=np.zeros_like(grid))
    state.phi[0] = state.phi[-1] = 0.0
    with pytest.raises(InstabilityError):
        evolve.evolve_nonlinear(state, model, evolve.EvolveConfig(dt=0.018, t_end=10.0,
                                                                  snapshot_every=10))


def test_time_reversibility(sg, grid):
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.3,), (0.0,))
    state = ansatz.multikink(params, 0.0, grid)
    fwd = evolve.evolve_nonlinear(state, model, evolve.EvolveConfig(dt=0.018, t_end=5.0,
                                                                    snapshot_every=50))
    end = fwd.state(len(fwd) - 1)
    back = evolve.evolve_nonlinear(end, model, evolve.EvolveConfig(dt=-0.018, t_end=0.0,
                                                                   snapshot_every=50))
    assert back.times[0] == pytest.approx(0.0)
    assert np.max(np.abs(back.phis[0] - state.phi)) <= 1e-10


def test_zero_mode_drift_static(sg):
    model, table = sg
    dx = 0.02
    grid = np.arange(-20.0, 20.0 + 1e-12, dx)
    params = ansatz.make_params(model, table, (0, 1), (0.0,), (0.0,))
    rng = np.random.default_rng(3)
    h0 = random_pair_field(grid, rng)
    h0 += 0.3 * np.stack([np.zeros_like(grid), params.profile(1).deriv(grid)])
    slab, pair = evolve.zero_mode_drift(params, h0, grid, 0.0,
                                        evolve.EvolveConfig(dt=0.9 * dx, t_end=10.0,
                                                            snapshot_every=50))
    assert pair.shape == (len(slab), 1, 2)
    s = pair[:, 0, 0]
    assert np.max(np.abs(s - s[0])) / abs(s[0]) <= 1e-3


def test_zero_mode_moving_law(sg):
    model, table = sg
    dx = 0.02
    grid = np.arange(-30.0, 30.0 + 1e-12, dx)
    params = ansatz.make_params(model, table, (0, 1), (0.5,), (0.0,))
    rng = np.random.default_rng(5)
    h0 = random_pair_field(grid, rng)
    slab, pair = evolve.zero_mode_drift(params, h0, grid, 0.0,
                                        evolve.EvolveConfig(dt=0.9 * dx, t_end=10.0,
                                                            snapshot_every=10))
    gamma = 1.0 / np.sqrt(1.0 - 0.25)
    p0, p1 = pair[:, 0, 0], pair[:, 0, 1]
    integral = cumulative_trapezoid(p0, slab.times, initial=0.0)
    resid = p1 - p1[0] + integral / gamma
    assert np.max(np.abs(resid)) <= 2e-4


def test_multikink_pairing_drift_decays_exponentially(sg2_params):
    # once the kinks separate, the pairing-law violation decays in the start
    # time at some positive fitted rate
    dx = 0.01
    grid = np.arange(-30.0, 30.0 + 1e-12, dx)
    rates = []
    starts = (10.0, 13.0, 16.0)
    for t0 in starts:
        rng = np.random.default_rng(6)
        h0 = random_pair_field(grid, rng)
        cfg = evolve.EvolveConfig(dt=0.9 * dx, t_end=t0 + 2.0, snapshot_every=10)
        slab, pair = evolve.zero_mode_drift(sg2_params, h0, grid, t0, cfg)
        p0 = pair[:, 0, 0]
        rates.append(np.max(np.abs(np.diff(p0) / np.diff(slab.times))))
    from multikink.numerics import fit_log_linear
    slope, _, r2, _ = fit_log_linear(np.array(starts), np.array(rates))
    assert -slope > 0.3
    assert r2 >= 0.99


def test_slab_save_load(tmp_path, sg, grid):
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.3,), (0.0,))
    state = ansatz.multikink(params, 0.0, grid)
    slab = evolve.evolve_nonlinear(state, model, evolve.EvolveConfig(dt=0.018, t_end=1.0,
                                                                     snapshot_every=20))
    slab.save(tmp_path / "slab")
    loaded = evolve.SpaceTimeSlab.load(tmp_path / "slab")
    for a, b in ((loaded.times, slab.times), (loaded.grid, slab.grid),
                 (loaded.phis, slab.phis), (loaded.phi_dots, slab.phi_dots)):
        assert np.array_equal(a, b)


def test_slab_rejects_phi_dots_of_another_shape():
    with pytest.raises(ConfigError, match="phi_dots"):
        evolve.SpaceTimeSlab([0.0, 1.0], np.linspace(0.0, 1.0, 5), np.zeros((2, 5)),
                             np.zeros((3, 7)))


@pytest.mark.parametrize("grid", [[0.0, 0.0], [1.0, 0.75, 0.5, 0.25, 0.0]],
                         ids=["constant", "decreasing"])
def test_grid_that_does_not_increase_is_rejected(grid):
    # its dx would be 0 or negative, and every energy norm of a slab on it nan
    with pytest.raises(ConfigError, match="does not increase"):
        grid_spacing(np.array(grid))
    with pytest.raises(ConfigError, match="does not increase"):
        evolve.SpaceTimeSlab([0.0, 1.0], grid, np.ones((2, len(grid))), np.ones((2, len(grid))))


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-3])


@pytest.mark.parametrize("name, spoil, match", [
    ("phis.npy", _truncate, "phis.npy"),
    ("phi_dots.npy", lambda path: path.write_bytes(b""), "phi_dots.npy"),
    ("grid.npy", lambda path: path.write_text("x\n-1\n-0.5\n0\n0.5\n1\n"), "grid.npy"),
    ("phis.npy", Path.unlink, "phis.npy"),
    ("phi_dots.npy", lambda path: np.save(path, np.ones((2, 4))), "phi_dots"),
    ("grid.npy", lambda path: np.save(path, np.array(["a"] * 5)), "grid.npy"),
    ("grid.npy", lambda path: np.save(path, np.linspace(-1.0, 1.0, 5) + 0j), "grid.npy"),
    ("grid.npy", lambda path: np.save(path, np.linspace(-1.0, 1.0, 10).reshape(5, 2)),
     "grid has shape"),
    ("phis.npy", lambda path: np.save(path, np.full((2, 5), np.nan)), "phis.npy"),
    ("manifest.json", lambda path: path.write_text("{}"), "manifest.json"),
    ("manifest.json", lambda path: path.write_text("[0, 1]"), "manifest.json"),
    ("manifest.json", lambda path: path.write_text('{"times": ["a", "b"]}'), "manifest.json"),
    ("manifest.json", lambda path: path.write_text('{"times": [[0], [1]]}'), "times has shape"),
    ("manifest.json", lambda path: path.write_text('{"times": [0, NaN]}'), "manifest.json"),
], ids=["truncated", "empty", "csv", "missing", "wrong-shape", "strings", "complex",
        "2-d-grid", "nan-phis", "no-times", "not-an-object", "string-times", "2-d-times",
        "nan-times"])
def test_slab_load_rejects_a_bad_file(tmp_path, name, spoil, match):
    # a truncated, empty, non-.npy or missing array file, an array of anything
    # but finite real floats, a manifest without a list of finite numbers as
    # its times, or an array of the wrong shape, is a config error that names
    # the file (the array, for a shape)
    grid = np.linspace(-1.0, 1.0, 5)
    slab = evolve.SpaceTimeSlab([0.0, 0.5], grid, np.zeros((2, 5)), np.ones((2, 5)))
    slab.save(tmp_path / "slab")
    spoil(tmp_path / "slab" / name)
    with pytest.raises(ConfigError, match=match):
        evolve.SpaceTimeSlab.load(tmp_path / "slab")


@pytest.mark.parametrize("array, name", [("phis", "phis.npy"), ("phi_dots", "phi_dots.npy"),
                                         ("times", "manifest.json")])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_slab_save_refuses_non_finite_values(tmp_path, array, name, bad):
    # the rule for every output: a numerical failure naming the file, and
    # nothing written
    values = {"times": np.array([0.0, 0.5]), "grid": np.linspace(-1.0, 1.0, 7),
              "phis": np.zeros((2, 7)), "phi_dots": np.ones((2, 7))}
    values[array].flat[-1] = bad
    slab = evolve.SpaceTimeSlab(**values)
    with pytest.raises(NumericsError, match=name):
        slab.save(tmp_path / "slab")
    assert not (tmp_path / "slab").exists()


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(2, 9),
       st.floats(-100.0, 100.0), st.floats(1e-3, 10.0), st.data())
def test_slab_save_load_property(n_times, n_grid, x_min, dx, data):
    # finite floats of any size, -0.0 and subnormals included: the slab is
    # the four files, and the reload is bit-exact
    finite = st.floats(allow_nan=False, allow_infinity=False)
    phis = data.draw(arrays(np.float64, (n_times, n_grid), elements=finite))
    dots = data.draw(arrays(np.float64, (n_times, n_grid), elements=finite))
    grid = x_min + dx * np.arange(n_grid)
    slab = evolve.SpaceTimeSlab(0.25 * np.arange(n_times), grid, phis, dots)
    with tempfile.TemporaryDirectory() as tmp:
        slab.save(Path(tmp) / "slab")
        assert sorted(p.name for p in (Path(tmp) / "slab").iterdir()) == [
            "grid.npy", "manifest.json", "phi_dots.npy", "phis.npy"]
        loaded = evolve.SpaceTimeSlab.load(Path(tmp) / "slab")
    for a, b in ((loaded.times, slab.times), (loaded.grid, grid),
                 (loaded.phis, phis), (loaded.phi_dots, dots)):
        assert np.array_equal(_bits(a), _bits(b))


def _knot_queries(times):
    """Every knot, every mid-interval point and a point past either end."""
    mids = 0.5 * (times[1:] + times[:-1])
    return [*times, *mids, times[0] - 0.1, times[-1] + 0.1]


def _assert_hermite(slab, queries):
    """phi_at returns the knots exactly and agrees with scipy's
    CubicHermiteSpline of (phis, phi_dots) within 1e-14 relative."""
    spline = CubicHermiteSpline(slab.times, slab.phis, slab.phi_dots, axis=0)
    for t in queries:
        got = evolve.SpaceTimeSlab.phi_at(slab, t)
        knot = np.flatnonzero(slab.times == t)
        if knot.size:
            assert np.array_equal(got, slab.phis[knot[0]]), t
        want = spline(t)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), t


@pytest.mark.parametrize("n_times, n_cols", [(2, 70), (3, 70), (5, 1), (33, 65), (129, 3401)])
def test_phi_at_matches_cubic_hermite_spline(n_times, n_cols):
    # the rows are reversed views, as backward solves return them; phi_at
    # reads only times, phis and phi_dots, so one column needs no grid
    rng = np.random.default_rng(n_times * n_cols)
    times = 16.0 + 0.25 * np.arange(n_times)
    phis, dots = rng.standard_normal((2, n_times, n_cols))
    slab = SimpleNamespace(times=times, phis=phis[::-1], phi_dots=dots[::-1])
    _assert_hermite(slab, _knot_queries(times))


def test_phi_at_on_solver_levels(sg2_params):
    # the backward solver's levels t_final - step * dt, visited downward
    cfg = SolverConfig(x_min=-34.0, x_max=34.0, dx=0.1)
    dt, every = cfg.plan(16.0, 24.0)
    n_steps = int(round(8.0 / dt))
    times = np.linspace(16.0, 24.0, n_steps // every + 1)
    states = [ansatz.multikink(sg2_params, t, cfg.grid) for t in times]
    slab = evolve.SpaceTimeSlab(times, cfg.grid, [s.phi for s in states],
                                [s.phi_dot for s in states])
    _assert_hermite(slab, [24.0 + step * -dt for step in range(n_steps + 1)])


def test_phi_at_on_merged_slab():
    # the knots of two staggered slabs joined: non-uniform spacing
    rng = np.random.default_rng(5)
    grid = np.linspace(-5.0, 5.0, 300)
    times = np.sort(np.concatenate([np.linspace(0.0, 4.0, 9), np.linspace(0.3, 6.3, 7)]))
    phis, dots = rng.standard_normal((2, len(times), len(grid)))
    merged = evolve.SpaceTimeSlab(times, grid, phis, dots)
    assert np.ptp(np.diff(merged.times)) > 0.1
    _assert_hermite(merged, _knot_queries(merged.times))


def _step_of(slab, every):
    """The run's step, read off the first full snapshot interval."""
    return (slab.times[1] - slab.times[0]) / every


def test_nonlinear_run_ends_at_t_end(sg, grid):
    # t_end is no whole number of requested steps (30 / 0.018 = 1666.7):
    # the run takes 1667 steps of 30/1667 instead of overshooting to 30.006
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.3,), (0.0,))
    fwd = evolve.evolve_nonlinear(ansatz.multikink(params, 0.0, grid), model,
                                  evolve.EvolveConfig(dt=0.018, t_end=30.0, snapshot_every=50))
    assert fwd.times[0] == 0.0 and fwd.times[-1] == 30.0
    assert len(fwd) == 1667 // 50 + 2
    assert _step_of(fwd, 50) == pytest.approx(30.0 / 1667, rel=1e-12)
    assert _step_of(fwd, 50) <= 0.018
    back = evolve.evolve_nonlinear(fwd.state(len(fwd) - 1), model,
                                   evolve.EvolveConfig(dt=-0.018, t_end=0.0, snapshot_every=50))
    assert back.times[0] == 0.0 and back.times[-1] == 30.0
    assert abs(back.times[-1] - back.times[-2]) / 50 <= 0.018


def test_linearized_run_ends_at_t_end(sg, grid):
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.3,), (0.0,))
    h0 = random_pair_field(grid, np.random.default_rng(2))
    fwd = evolve.zero_mode_drift(params, h0, grid, 0.0,
                                 evolve.EvolveConfig(dt=0.018, t_end=30.0, snapshot_every=50))[0]
    assert fwd.times[0] == 0.0 and fwd.times[-1] == 30.0
    assert len(fwd) == 1667 // 50 + 2
    assert _step_of(fwd, 50) <= 0.018
    back = evolve.zero_mode_drift(params, h0, grid, 30.0,
                                  evolve.EvolveConfig(dt=-0.018, t_end=0.0, snapshot_every=50))[0]
    assert back.times[0] == 0.0 and back.times[-1] == 30.0
    assert abs(back.times[-1] - back.times[-2]) / 50 <= 0.018


@pytest.mark.parametrize("dt, t_start, t_end", [(0.018, 0.0, 2.0), (-0.018, 2.0, 0.0)])
def test_pairings_follow_the_slab(sg, grid, dt, t_start, t_end):
    # forward or backward, pairings[i] pairs the slab's snapshot i with the
    # zero modes at its time
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.3,), (0.0,))
    h0 = random_pair_field(grid, np.random.default_rng(2))
    slab, pairings = evolve.zero_mode_drift(
        params, h0, grid, t_start, evolve.EvolveConfig(dt=dt, t_end=t_end, snapshot_every=50))
    assert pairings.shape == (len(slab), 1, 2)
    for i in (0, 1, len(slab) - 1):
        modes = ansatz.zero_modes(params, 1, slab.times[i], grid)
        h = np.stack([slab.phis[i], slab.phi_dots[i]])
        assert pairings[i, 0].tolist() == [ansatz.inner_product(psi, h, slab.dx)
                                          for psi in (modes.psi0, modes.psi1)]


def test_step_plan_matches_solver_plan():
    # SolverConfig.plan's dt is a whole fraction of the span; the shared
    # step count recovers that fraction and the same dt bit for bit
    cfg = SolverConfig(x_min=-34.0, x_max=34.0, dx=0.02)
    for t_start in np.arange(0.5, 40.0, 0.5):
        for span in (3.1, 7.3, 10.0, 12.5, 16.0, 32.0, 64.0, 128.0, 256.0):
            dt, every = cfg.plan(t_start, t_start + span)
            n, step = evolve.step_plan(t_start - (t_start + span), -dt, "steps")
            assert n == max(2, math.ceil(span / 0.25)) * every
            assert step == -dt
    # the steps per snapshot are step_plan's count, its slack included:
    # snapshot_dt / (cfl dx) one rounding above 7 or 1 keeps 7 or 1 steps,
    # and one rounding, or a share 1e-12, above 13 at the largest Courant
    # ratio keeps 13 steps, whose dt exceeds MAX_COURANT * dx by that share
    # and passes the CFL check, which allows the same relative STEP_SLACK
    for dx, cfl, snapshot_dt, every, dt in [
            (0.02, 0.5, 0.07, 7, 0.01), (0.1, 0.7, 0.07, 1, 0.07),
            (0.02, evolve.MAX_COURANT, 0.25607030284669874, 13, 0.25607030284669874 / 13),
            (0.02, evolve.MAX_COURANT, 13 * evolve.MAX_COURANT * 0.02 * (1 + 1e-12), 13,
             0.019697715603611908)]:
        cfg = SolverConfig(x_min=-10.0, x_max=10.0, dx=dx, cfl=cfl, snapshot_dt=snapshot_dt)
        assert every == evolve.step_plan(snapshot_dt, cfl * dx, "steps")[0]
        assert cfg.plan(1.0, 1.0 + 20 * snapshot_dt) == (dt, every)
        evolve.EvolveConfig(dt=-dt, t_end=0.0, snapshot_every=every).validate(dx)


def _old_zero_mode_loop(params, slab, pairings):
    """The per-kink law as it was written inline in the verify command."""
    drift = {}
    for j in range(1, params.K + 1):
        p0 = pairings[:, j - 1, 0]
        p1 = pairings[:, j - 1, 1]
        integral = np.concatenate([[0.0], np.cumsum(
            0.5 * (p0[1:] + p0[:-1]) * np.diff(slab.times))])
        law = p1 - p1[0] + integral / params.gammas[j - 1]
        drift[f"kink_{j}"] = {
            "psi0_drift": float(np.max(np.abs(p0 - p0[0]))),
            "psi1_law_residual": float(np.max(np.abs(law))),
            "psi0_scale": float(np.max(np.abs(p0))),
        }
    return drift


@pytest.mark.parametrize("K", [1, 2])
def test_zero_mode_laws_match_inline_loop(sg, sg2_params, K):
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.5,), (0.0,)) if K == 1 else sg2_params
    grid = np.arange(-30.0, 30.0 + 1e-12, 0.05)
    h0 = random_pair_field(grid, np.random.default_rng(5))
    slab, pairings = evolve.zero_mode_drift(params, h0, grid, 12.0,
                                            evolve.EvolveConfig(dt=0.045, t_end=14.0,
                                                                snapshot_every=5))
    laws = evolve.zero_mode_laws(params, slab, pairings)
    assert laws == _old_zero_mode_loop(params, slab, pairings)
    assert list(laws) == [f"kink_{j}" for j in range(1, K + 1)]
    # the trapezoidal form of the acceptance check gives the same residual
    p0, p1 = pairings[:, 0, 0], pairings[:, 0, 1]
    resid = p1 - p1[0] + cumulative_trapezoid(p0, slab.times, initial=0.0) / params.gammas[0]
    assert laws["kink_1"]["psi1_law_residual"] == float(np.max(np.abs(resid)))


def _two_pass_laplacian(f, dx, blend):
    """The blended Laplacian as a 3-point pass plus a 5-point correction,
    the outermost interior nodes on the 3-point formula."""
    inv_dx2 = 1.0 / (dx * dx)
    out = np.zeros_like(f)
    three = f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]
    out[..., 1:-1] = (1.0 - blend) * inv_dx2 * three
    out[..., 2:-2] += blend * inv_dx2 / 12.0 * (-f[..., :-4] + 16.0 * f[..., 1:-3]
                                                - 30.0 * f[..., 2:-2] + 16.0 * f[..., 3:-1]
                                                - f[..., 4:])
    out[..., 1] += blend * inv_dx2 * three[..., 0]
    out[..., -2] += blend * inv_dx2 * three[..., -1]
    return out


LAPLACIAN_BLENDS = [0.0, evolve.EvolveConfig(dt=0.018, t_end=1.0).stencil_blend(0.02), 1.0]


@pytest.mark.parametrize("blend", LAPLACIAN_BLENDS)
@pytest.mark.parametrize("lanes", [1, 8])
def test_laplacian_matches_two_pass_formula(blend, lanes):
    rng = np.random.default_rng(lanes)
    f = 2.0 * np.pi + rng.standard_normal((lanes, 3401))
    out = np.full_like(f, np.nan)
    assert evolve.make_laplacian(0.02, blend)(f, out) is out
    ref = _two_pass_laplacian(f, 0.02, blend)
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.all(out[:, [0, -1]] == 0.0)


@pytest.mark.parametrize("blend", LAPLACIAN_BLENDS)
@pytest.mark.parametrize("lanes", [1, 8])
def test_laplacian_of_constant_is_zero(blend, lanes):
    lap = evolve.make_laplacian(0.02, blend)
    for c in (0.0, 2.0 * np.pi, 4.0 * np.pi):
        out = np.full((lanes, 3401), np.nan)
        lap(np.full((lanes, 3401), c), out)
        assert np.all(out == 0.0)
