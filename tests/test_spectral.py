import numpy as np
import pytest

from multikink import spectral
from multikink.errors import InvalidMultiplierError


@pytest.fixture(scope="module")
def sg_disc(sg):
    model, table = sg
    grid = np.linspace(-15.0, 15.0, 3001)
    return spectral.build_operator(model, table, 0, 1, grid)


@pytest.fixture(scope="module")
def phi4_disc(phi4):
    model, table = phi4
    grid = np.linspace(-15.0, 15.0, 3001)
    return spectral.build_operator(model, table, 0, 1, grid)


def test_potential_samples(sg_disc, phi4_disc):
    x = sg_disc.grid
    assert np.max(np.abs(sg_disc.v - (1.0 - 2.0 / np.cosh(x) ** 2))) <= 1e-8
    assert np.max(np.abs(phi4_disc.v - (12.0 * np.tanh(np.sqrt(2.0) * x) ** 2 - 4.0))) <= 1e-8
    assert abs(sg_disc.v[0] - 1.0) <= 1e-10
    assert abs(phi4_disc.v[-1] - 8.0) <= 1e-10


def test_matrix_symmetry(sg_disc):
    m = spectral.OperatorDiscretization(grid=sg_disc.grid[:200], v=sg_disc.v[:200],
                                        dx=sg_disc.dx,
                                        kernel_direction=sg_disc.kernel_direction[:200])
    # <u, L v> = <L u, v> on seeded random vectors
    u, v = np.random.default_rng(3).standard_normal((2, 200))
    lv, lu = m.matvec(v), m.matvec(u)
    assert abs(np.dot(u, lv) - np.dot(lu, v)) <= 1e-13 * np.linalg.norm(u) * np.linalg.norm(lv)


def test_sine_gordon_spectrum(sg_disc):
    vals, vecs = spectral.low_spectrum(sg_disc, 2)
    assert abs(vals[0]) <= 1e-4
    assert vals[1] >= 0.9
    u0 = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    ker = sg_disc.kernel_direction / np.linalg.norm(sg_disc.kernel_direction)
    assert abs(np.dot(u0, ker)) >= 0.9999
    # the kernel of the sine-Gordon operator is sech(x) up to normalization
    sech = 1.0 / np.cosh(sg_disc.grid)
    sech /= np.linalg.norm(sech)
    assert abs(np.dot(u0, sech)) >= 0.9999


def test_phi4_shape_mode(phi4_disc):
    vals, vecs = spectral.low_spectrum(phi4_disc, 3)
    assert abs(vals[0]) <= 1e-3
    # brute-force Poschl-Teller oracle with the analytic potential
    vpt = 8.0 - 12.0 / np.cosh(np.sqrt(2.0) * phi4_disc.grid) ** 2
    oracle = spectral.OperatorDiscretization(grid=phi4_disc.grid, v=vpt, dx=phi4_disc.dx,
                                             kernel_direction=phi4_disc.kernel_direction)
    ovals, _ = spectral.low_spectrum(oracle, 3)
    assert abs(vals[1] - ovals[1]) <= 0.02 * ovals[1]
    assert abs(vals[1] - 6.0) <= 0.02 * 6.0
    # kernel eigenvector is sech^2(sqrt(2) x) up to normalization
    s2 = 1.0 / np.cosh(np.sqrt(2.0) * phi4_disc.grid) ** 2
    s2 /= np.linalg.norm(s2)
    u0 = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    assert abs(np.dot(u0, s2)) >= 0.9999


def test_gap_above_half_edge(sg_disc, phi4_disc):
    for disc, edge in ((sg_disc, 1.0), (phi4_disc, 8.0)):
        vals, _ = spectral.low_spectrum(disc, 2)
        assert vals[1] >= 0.5 * edge


def test_kernel_residual_and_refinement(sg):
    model, table = sg
    prev = None
    for dx in (0.02, 0.01):
        grid = np.arange(-15.0, 15.0 + 1e-9, dx)
        disc = spectral.build_operator(model, table, 0, 1, grid)
        res = np.linalg.norm(disc.matvec(disc.kernel_direction)) \
            / np.linalg.norm(disc.kernel_direction)
        assert res <= 10.0 * dx**2
        vals, _ = spectral.low_spectrum(disc, 1)
        if prev is not None:
            assert abs(vals[0]) <= 0.3 * abs(prev)
        prev = vals[0]


def test_coercivity_constant(sg_disc):
    lam = spectral.coercivity_constant(sg_disc, sg_disc.kernel_direction, seed=42)
    assert lam > 0.0
    # kernel direction itself has a vanishing quadratic form
    ker = sg_disc.kernel_direction
    assert abs(sg_disc.quad(ker)) <= 1e-4 * sg_disc.h1_norm_sq(ker)
    # the Rayleigh ratio is homogeneous of degree zero
    rng = np.random.default_rng(0)
    g = np.exp(-sg_disc.grid**2) * rng.uniform(0.5, 1.0)
    r1 = sg_disc.quad(g) / sg_disc.h1_norm_sq(g)
    r2 = sg_disc.quad(2.0 * g) / sg_disc.h1_norm_sq(2.0 * g)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_invalid_multiplier(sg_disc):
    odd = sg_disc.grid * np.exp(-sg_disc.grid**2)
    with pytest.raises(InvalidMultiplierError):
        spectral.coercivity_constant(sg_disc, odd)
