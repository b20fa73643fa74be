import numpy as np
import pytest
from scipy.integrate import quad

from multikink import ansatz
from multikink.errors import ConfigError
from multikink.numerics import random_pair_field


@pytest.fixture(scope="module")
def grid():
    return np.arange(-20.0, 20.0 + 1e-12, 0.01)


@pytest.fixture(scope="module")
def phi4_static(phi4):
    model, table = phi4
    return ansatz.make_params(model, table, (0, 1), (0.0,), (0.0,))


def test_empty_chain_is_vacuum(sg, grid):
    model, table = sg
    params = ansatz.make_params(model, table, (1,), (), ())
    state = ansatz.multikink(params, 3.0, grid)
    assert np.allclose(state.phi, table.vacuum(1))
    assert np.all(state.phi_dot == 0.0)


def test_single_static_kink(phi4_static, grid):
    state = ansatz.multikink(phi4_static, 0.0, grid)
    assert np.max(np.abs(state.phi - np.tanh(np.sqrt(2.0) * grid))) <= 1e-8
    assert np.max(np.abs(state.phi_dot)) == 0.0


def test_two_kinks_separate(sg2_params, grid):
    # at t = 20 the kinks sit near -6 and +6; on each half line the field
    # deviates from that single kink only by the other kink's tail, whose
    # size at distance d is bounded by 4 e^{-gamma d} (tail coefficient 4)
    state = ansatz.multikink(sg2_params, 20.0, grid)
    g = 1.0 / np.sqrt(1.0 - 0.09)
    left = grid < 0
    right = ~left
    kink1 = sg2_params.profile(1)(g * (grid + 0.3 * 20.0))
    kink2 = sg2_params.profile(2)(g * (grid - 0.3 * 20.0))
    assert np.max(np.abs(state.phi[left] - kink1[left])) <= 5.0 * np.exp(-6.0 * g)
    assert np.max(np.abs(state.phi[right] - kink2[right])) <= 5.0 * np.exp(-6.0 * g)
    assert np.max(np.abs(state.phi[grid <= -2.0] - kink1[grid <= -2.0])) <= 1e-3
    assert np.max(np.abs(state.phi[grid >= 2.0] - kink2[grid >= 2.0])) <= 1e-3


def test_sector_boundary_values(sg2_params, grid):
    state = ansatz.multikink(sg2_params, 25.0, grid)
    assert abs(state.phi[0] - 0.0) <= 1e-4
    assert abs(state.phi[-1] - 4.0 * np.pi) <= 1e-4


def test_admissibility():
    import multikink.potential as pot
    model = pot.PotentialModel.sine_gordon()
    table = pot.find_vacua(model)
    with pytest.raises(ConfigError):
        ansatz.make_params(model, table, (0, 1, 2), (0.3, -0.3), (0.0, 0.0))
    with pytest.raises(ConfigError):
        ansatz.make_params(model, table, (0, 1), (1.2,), (0.0,))
    with pytest.raises(ConfigError):
        ansatz.make_params(model, table, (0, 1, 2), (0.3,), (0.0,))


def _direct_pieces(params, t, grid):
    """H, H_t, V and sum_k W'(H_k) kink by kink from the profile formulas."""
    labels, table, model = params.chain.labels, params.table, params.model
    H = np.full_like(grid, table.vacuum(labels[0]))
    H_t = np.zeros_like(grid)
    V = np.full_like(grid, table.mass(labels[0]) ** 2)
    sum_wp = np.zeros_like(grid)
    for k in range(1, params.K + 1):
        g, v, a = params.gammas[k - 1], params.velocities[k - 1], params.shifts[k - 1]
        prof = params.profile(k)
        hk = prof(g * (grid - v * t - a))
        H += hk - table.vacuum(labels[k - 1])
        H_t -= g * v * prof.deriv(g * (grid - v * t - a), 1)
        V += model(hk, 2) - table.mass(labels[k - 1]) ** 2
        sum_wp += model(hk, 1)
    return H, H_t, V, sum_wp


@pytest.mark.parametrize("labels,velocities,shifts", [
    ((1,), (), ()),                                  # K = 0
    ((0, 1), (0.4,), (-1.5,)),                       # K = 1, kink
    ((0, 1, 2), (-0.3, 0.3), (0.0, 0.0)),            # K = 2, kink-kink
    ((2, 1, 0), (-0.5, 0.2), (3.0, -2.0)),           # K = 2, antikink chain
])
def test_evaluator_matches_per_kink_formulas(sg, grid, labels, velocities, shifts):
    model, table = sg
    params = ansatz.make_params(model, table, labels, velocities, shifts)
    for t in (0.0, 4.5):
        level = ansatz.AnsatzLevel(params, t, grid)
        for got, want in zip((level.H, level.H_t, level.V, level.sum_wp),
                             _direct_pieces(params, t, grid)):
            assert np.allclose(got, want, rtol=0.0, atol=1e-13)
        # the zero modes read off the level are the profile formulas bit for bit
        for j in range(1, params.K + 1):
            g, v, a = params.gammas[j - 1], params.velocities[j - 1], params.shifts[j - 1]
            y = grid - v * t - a
            d1, d2 = (params.profile(j).deriv(g * y, order) for order in (1, 2))
            want = (np.stack([d1, -g * v * d2]),
                    np.stack([-g * v * y * d1, g * d1 + g * g * v * v * y * d2]))
            for m in (level.zero_modes(j), ansatz.zero_modes(params, j, t, grid)):
                assert np.array_equal(m.Y0, want[0]) and np.array_equal(m.Y1, want[1])
                assert np.array_equal(m.psi0, ansatz.apply_J(want[0]))
                assert np.array_equal(m.psi1, ansatz.apply_J(want[1]))


@pytest.mark.parametrize("n", [801, 800])
def test_energy_norm_sq_takes_stacks(n):
    # a (2, ..., n) stack is normed pair by pair, each bit for bit as alone;
    # n odd and even take both of Simpson's branches
    grid = np.linspace(-10.0, 10.0, n)
    dx = float(grid[1] - grid[0])
    rng = np.random.default_rng(5)
    pairs = np.array([[random_pair_field(grid, rng) for _ in range(3)] for _ in range(2)])
    got = ansatz.energy_norm_sq(np.moveaxis(pairs, 2, 0), dx)
    assert got.shape == (2, 3)
    want = [[ansatz.energy_norm_sq(pair, dx) for pair in row] for row in pairs]
    assert isinstance(want[0][0], float)
    assert np.array_equal(got, want)


def test_level_V_single(phi4_static, grid):
    v = ansatz.AnsatzLevel(phi4_static, 0.0, grid).V
    exact = 12.0 * np.tanh(np.sqrt(2.0) * grid) ** 2 - 4.0
    assert np.max(np.abs(v - exact)) <= 1e-8


def test_level_V_limits(phi6, sg2_params, grid):
    model, table = phi6
    params = ansatz.make_params(model, table, (0, 1), (0.0,), (0.0,))
    v = ansatz.AnsatzLevel(params, 0.0, grid).V
    assert abs(v[0] - table.mass(0) ** 2) <= 1e-6
    assert abs(v[-1] - table.mass(1) ** 2) <= 1e-6
    v2 = ansatz.AnsatzLevel(sg2_params, 30.0, grid).V
    assert abs(v2[0] - 1.0) <= 1e-6
    assert abs(v2[-1] - 1.0) <= 1e-6


def test_zero_modes_static(phi4_static, grid):
    m = ansatz.zero_modes(phi4_static, 1, 0.0, grid)
    dH = phi4_static.profile(1).deriv(grid, 1)
    assert np.array_equal(m.Y0[0], dH)
    assert np.all(m.Y0[1] == 0.0)
    assert np.all(m.Y1[0] == 0.0)
    assert np.array_equal(m.Y1[1], dH)
    # J swaps the components and negates the new second one
    assert np.array_equal(m.psi0[0], m.Y0[1])
    assert np.array_equal(m.psi0[1], -m.Y0[0])


def test_zero_modes_moving(phi4_static, grid):
    params = phi4_static.with_parameters((0.5,), (0.0,))
    m = ansatz.zero_modes(params, 1, 0.0, grid)
    g = 2.0 / np.sqrt(3.0)
    prof = params.profile(1)
    assert np.allclose(m.Y0[0], prof.deriv(g * grid, 1), atol=1e-13)
    assert np.allclose(m.Y0[1], -g * 0.5 * prof.deriv(g * grid, 2), atol=1e-13)


def test_mode_duality(phi4_static, grid):
    dx = 0.01
    for v in (0.0, 0.5):
        params = phi4_static.with_parameters((v,), (0.0,))
        m = ansatz.zero_modes(params, 1, 2.0, grid)
        lhs = ansatz.inner_product(m.psi0, m.Y1, dx)
        rhs = -ansatz.inner_product(m.psi1, m.Y0, dx)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        assert abs(ansatz.inner_product(m.psi0, m.Y0, dx)) <= 1e-12


def test_projection_values(phi4_static, grid):
    # <psi1, Y0> at v=0 equals the squared L2 norm of dH, which by the
    # Bogomolny identity is the kink energy: independent quadrature oracle
    dx = 0.01
    m = ansatz.zero_modes(phi4_static, 1, 0.0, grid)
    val = ansatz.inner_product(m.psi1, m.Y0, dx)
    oracle, _ = quad(lambda x: (np.sqrt(2.0) / np.cosh(np.sqrt(2.0) * x) ** 2) ** 2,
                     -30.0, 30.0, epsabs=1e-13)
    assert abs(val - oracle) <= 1e-8
    f = np.stack([np.exp(-grid**2), np.zeros_like(grid)])
    g = np.stack([np.zeros_like(grid), np.exp(-(grid - 1.0) ** 2)])
    assert ansatz.inner_product(f, g, dx) == 0.0


def test_inner_product_grid_mismatch(grid):
    a = np.zeros((2, len(grid)))
    b = np.zeros((2, len(grid) - 1))
    with pytest.raises(ConfigError):
        ansatz.inner_product(a, b, 0.01)


def test_cutoff(sg2_params):
    t, rho = 10.0, 0.03
    center = -0.3 * t
    assert ansatz.kink_cutoff(sg2_params, 1, t, center, rho) == 1.0
    assert ansatz.kink_cutoff(sg2_params, 1, t, center + 1.5 * rho * t, rho) == pytest.approx(0.5)
    assert ansatz.kink_cutoff(sg2_params, 1, t, center + 2.5 * rho * t, rho) == 0.0
    assert ansatz.kink_cutoff(sg2_params, 1, t, center - 2.0 * rho * t, rho) == 0.0
    with pytest.raises(ConfigError):
        ansatz.kink_cutoff(sg2_params, 1, -1.0, 0.0, rho)


def test_cutoff_smooth_monotone(sg2_params):
    t, rho = 10.0, 0.03
    u = np.linspace(1.0, 2.0, 101)
    vals = ansatz.kink_cutoff(sg2_params, 1, t, -0.3 * t + u * rho * t, rho)
    assert np.all(np.diff(vals) <= 0.0)
    assert vals[0] == 1.0 and vals[-1] == 0.0


def test_quadratic_form_kernel_direction(phi4_static, grid):
    dH = phi4_static.profile(1).deriv(grid, 1)
    h = np.stack([dH, np.zeros_like(grid)])
    q = ansatz.quad_form_single(phi4_static, 0.0, h, grid)
    assert abs(q) <= 5e-4  # O(dx^2)
    assert ansatz.quad_form_single(phi4_static, 0.0, np.zeros((2, len(grid))), grid) == 0.0


def test_quadratic_form_positive_after_projection(phi4_static, grid):
    dx = 0.01
    m = ansatz.zero_modes(phi4_static, 1, 0.0, grid)
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = random_pair_field(grid, rng)
        h = ansatz.remove_projections(h, [m.psi0, m.psi1], dx)
        assert abs(ansatz.inner_product(h, m.psi0, dx)) <= 1e-10
        assert abs(ansatz.inner_product(h, m.psi1, dx)) <= 1e-10
        q = ansatz.quad_form_single(phi4_static, 0.0, h, grid)
        assert q > 0.0


def test_quad_form_multi_basics(sg2_params, grid):
    assert ansatz.quad_form_multi(sg2_params, 20.0, np.zeros((2, len(grid))), grid) == 0.0
    rng = np.random.default_rng(3)
    h = random_pair_field(grid, rng)
    q = ansatz.quad_form_multi(sg2_params, 20.0, h, grid)
    q2 = ansatz.quad_form_multi(sg2_params, 20.0, 2.0 * h, grid)
    assert q2 == pytest.approx(4.0 * q, rel=1e-12)


def _old_coercivity_loop(params, t, grid, rng, n_samples):
    """The sampler as it was written inline in the verify command."""
    dx = float(grid[1] - grid[0])
    duals = []
    for j in range(1, params.K + 1):
        m = ansatz.zero_modes(params, j, t, grid)
        duals.extend([m.psi0, m.psi1])
    worst = np.inf
    for _ in range(n_samples):
        h = random_pair_field(grid, rng)
        h = ansatz.remove_projections(h, duals, dx)
        if params.K == 1:
            q = ansatz.quad_form_single(params, t, h, grid)
        else:
            q = ansatz.quad_form_multi(params, t, h, grid)
        worst = min(worst, q / ansatz.energy_norm_sq(h, dx))
    return float(worst)


@pytest.mark.parametrize("K", [1, 2])
def test_coercivity_sample_matches_inline_loop(sg, sg2_params, K):
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.5,), (0.0,)) if K == 1 else sg2_params
    grid = np.arange(-30.0, 30.0 + 1e-9, 0.05)
    old = _old_coercivity_loop(params, 20.0, grid, np.random.default_rng(23), 8)
    rng = np.random.default_rng(23)
    assert ansatz.coercivity_sample(params, 20.0, grid, rng, 8) == old
    # the draws are those of the loop: both generators end in the same state
    old_rng = np.random.default_rng(23)
    _old_coercivity_loop(params, 20.0, grid, old_rng, 8)
    assert rng.random() == old_rng.random()


def test_coercivity_sample_passes_a_nan_on(sg2_params, monkeypatch):
    # one NaN Rayleigh ratio among finite ones is the result, not skipped
    real, ratios = ansatz._quad_form, []

    def one_nan(*args):
        ratios.append(real(*args))
        return np.nan if len(ratios) == 2 else ratios[-1]

    monkeypatch.setattr(ansatz, "_quad_form", one_nan)
    grid = np.arange(-30.0, 30.0 + 1e-9, 0.05)
    assert np.isnan(ansatz.coercivity_sample(sg2_params, 20.0, grid, np.random.default_rng(4), 4))
    assert len(ratios) == 4 and np.all(np.isfinite(ratios))


@pytest.mark.parametrize("K", [1, 2])
def test_coercivity_sample_builds_one_level(sg, sg2_params, K, monkeypatch):
    # V and the cutoff cross term do not depend on the sample: one ansatz
    # level serves all 100 quadratic forms
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.5,), (0.0,)) if K == 1 else sg2_params
    built = []

    class CountingLevel(ansatz.AnsatzLevel):
        def __init__(self, *args):
            built.append(args[1])
            super().__init__(*args)

    monkeypatch.setattr(ansatz, "AnsatzLevel", CountingLevel)
    grid = np.arange(-30.0, 30.0 + 1e-9, 0.05)
    ansatz.coercivity_sample(params, 20.0, grid, np.random.default_rng(4), 100)
    assert built == [20.0]
