import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multikink import kink
from multikink.cli import _write_csv
from multikink.errors import ConfigError, FitError
from multikink.numerics import gaussian_bumps, integrate_grid, central_diff
from multikink.potential import PotentialModel, find_vacua


def phi6_shift():
    # midpoint centering puts H(0) = 0.5, the textbook form is centered where
    # H = 1/sqrt(2); the offset follows from tanh(sqrt(2) x0) = 1/2
    return np.arctanh(0.5) / np.sqrt(2.0)


def test_profile_oracles(phi4_kink, sg_kink, phi6_kink):
    xs = np.linspace(-10.0, 10.0, 2001)
    assert np.max(np.abs(phi4_kink(xs) - np.tanh(np.sqrt(2.0) * xs))) <= 1e-8
    assert np.max(np.abs(sg_kink(xs) - 4.0 * np.arctan(np.exp(xs)))) <= 1e-8
    exact = np.sqrt((1.0 + np.tanh(np.sqrt(2.0) * (xs - phi6_shift()))) / 2.0)
    assert np.max(np.abs(phi6_kink(xs) - exact)) <= 1e-8


def test_sine_gordon_tails_match_closed_form(sg, sg_kink):
    # over the whole table, |x| <= 20, where the tail continuation starts
    model, table = sg
    for n, prof in ((0, sg_kink), (1, kink.kink_profile(model, table, 1, 2))):
        assert prof.half_width == 20.0
        exact = 4.0 * np.arctan(np.exp(prof.x)) + 2.0 * np.pi * n
        assert np.max(np.abs(prof.h - exact)) <= 1e-10
        tail = 4.0 * np.exp(-20.0)
        assert abs((prof.h[0] - prof.vac_left) / tail - 1.0) <= 1e-3
        assert abs((prof.h[-1] - prof.vac_right) / -tail - 1.0) <= 1e-3


def _counting(model):
    """model with every evaluation of W counted, directly or about a vacuum,
    and the list whose one entry holds the count."""
    count = [0]

    def counted(f):
        def g(*args):
            count[0] += 1
            return f(*args)
        return g

    return dataclasses.replace(model, derivs=(counted(model.derivs[0]), *model.derivs[1:]),
                               about=lambda v: counted(model.about(v))), count


def _phi6_exact(x):
    # sqrt((1 + tanh(sqrt(2) (x - x0))) / 2) without its cancellation in the left tail
    return 1.0 / np.sqrt(1.0 + np.exp(-2.0 * np.sqrt(2.0) * (x - phi6_shift())))


# (model, kink label n of n -> n+1, closed form, bound on max |h - closed form|
# over the whole table, W calls per tabulation). The bounds are three times
# the errors measured with RK45 on the log-distance (3.5e-12 sine-Gordon,
# 4.9e-13 phi4 and its monomial form, 9.3e-13 phi6; integrating H itself gave
# 3.3e-11, 6.7e-11, 3.3e-12, 2.1e-11 and 3.2e-9), the W-call budgets the
# measured counts plus 10% (1,444, 1,444, 1,696, 1,384 and 1,696;
# integrating H itself took 5,782, 3,196, 3,976, 5,026 and 6,064)
CLOSED_FORMS = {
    "sine_gordon (0,1)": (PotentialModel.sine_gordon(), 0,
                          lambda x: 4.0 * np.arctan(np.exp(x)), 1.1e-11, 1588),
    "sine_gordon (1,2)": (PotentialModel.sine_gordon(), 1,
                          lambda x: 2.0 * np.pi + 4.0 * np.arctan(np.exp(x)), 1.1e-11, 1588),
    "phi4": (PotentialModel.phi4(), 0, lambda x: np.tanh(np.sqrt(2.0) * x), 1.5e-12, 1866),
    "phi6 (1,2)": (PotentialModel.phi6(), 1, _phi6_exact, 2.8e-12, 1522),
    "custom_poly phi4": (PotentialModel.custom_poly([1.0, 0.0, -2.0, 0.0, 1.0]), 0,
                         lambda x: np.tanh(np.sqrt(2.0) * x), 1.5e-12, 1866),
}


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_profiles_match_closed_forms_within_budget(name):
    model, n, exact, bound, budget = CLOSED_FORMS[name]
    counted, calls = _counting(model)
    prof = kink.kink_profile(counted, find_vacua(model), n, n + 1)
    assert np.max(np.abs(prof.h - exact(prof.x))) <= bound
    assert calls[0] <= budget


def test_custom_trig_kink_matches_sine_gordon(sg, sg_kink):
    # both integrate W about the same vacua, cos(kv) and sin(kv) exact at 0
    # and within one rounding at 2 pi
    custom = PotentialModel.custom_trig([1.0, -1.0])
    prof = kink.kink_profile(custom, find_vacua(custom), 0, 1)
    assert np.array_equal(prof.x, sg_kink.x)
    assert np.max(np.abs(prof.h - sg_kink.h)) <= 1e-11


def test_center_values(phi4_kink, sg_kink, phi6_kink):
    assert abs(phi4_kink(0.0)) <= 1e-12
    assert abs(sg_kink(0.0) - np.pi) <= 1e-12
    assert abs(phi6_kink(0.0) - 0.5) <= 1e-12


def test_monotone_and_confined(phi4_kink, phi6_kink):
    for prof in (phi4_kink, phi6_kink):
        d = np.diff(prof.h)
        assert np.all(d >= 0.0)
        core = np.abs(prof.x) <= prof.half_width / 2
        assert np.all(np.diff(prof.h[core]) > 0.0)
        assert prof.h[0] >= prof.vac_left
        assert prof.h[-1] <= prof.vac_right


def test_position_from_value(phi4, sg, phi4_kink):
    phi4_model, phi4_table = phi4
    sg_model, sg_table = sg
    assert abs(kink.position_from_value(phi4_model, phi4_table, 0, 0.0)) <= 1e-12
    assert abs(kink.position_from_value(phi4_model, phi4_table, 0, np.tanh(np.sqrt(2.0))) - 1.0) <= 1e-10
    assert abs(kink.position_from_value(sg_model, sg_table, 0, 4.0 * np.arctan(np.e)) - 1.0) <= 1e-10
    with pytest.raises(ConfigError):
        kink.position_from_value(phi4_model, phi4_table, 0, 1.5)


def test_quadrature_ode_consistency(phi4, phi4_kink):
    model, table = phi4
    core = np.abs(phi4_kink.x) <= 0.75 * phi4_kink.half_width
    idx = np.nonzero(core)[0][::150]
    for i in idx:
        g = kink.position_from_value(model, table, 0, phi4_kink.h[i])
        assert abs(g - phi4_kink.x[i]) <= 1e-6


def test_energies(phi4, sg, phi6):
    cases = [
        (phi4, 0, 1, 4.0 * np.sqrt(2.0) / 3.0),
        (sg, 0, 1, 8.0),
        (phi6, 1, 2, np.sqrt(2.0) / 4.0),
    ]
    for (model, table), n, n2, expected in cases:
        assert abs(kink.kink_energy(model, table, n, n2) - expected) <= 1e-9 * expected


def test_bogomolny_bound_values(phi4, sg):
    phi4_model, _ = phi4
    sg_model, _ = sg
    assert abs(kink.bogomolny_bound(phi4_model, -1.0, 1.0) - 4.0 * np.sqrt(2.0) / 3.0) <= 1e-10
    assert kink.bogomolny_bound(phi4_model, 0.3, 0.3) == 0.0
    assert abs(kink.bogomolny_bound(sg_model, 0.0, 2.0 * np.pi) - 8.0) <= 1e-10


def test_bogomolny_saturation(phi4_kink, sg_kink, phi6_kink):
    for prof, expected in ((phi4_kink, 4.0 * np.sqrt(2.0) / 3.0), (sg_kink, 8.0),
                           (phi6_kink, np.sqrt(2.0) / 4.0)):
        ep = kink.potential_energy_of_profile(prof)
        assert abs(ep - expected) <= 1e-6 * expected


def test_ode_residual_via_spline(phi4_kink, sg_kink):
    for prof in (phi4_kink, sg_kink):
        spline_d = prof._spline.derivative()(prof.x)
        assert np.max(np.abs(spline_d - prof.deriv(prof.x, 1))) <= 1e-7


def test_tail_fits(phi4_kink, sg_kink, phi6_kink):
    cases = [
        (phi4_kink, 2.0 * np.sqrt(2.0), 2.0 * np.sqrt(2.0)),
        (sg_kink, 1.0, 1.0),
        (phi6_kink, np.sqrt(2.0), 2.0 * np.sqrt(2.0)),
    ]
    for prof, m_left, m_right in cases:
        left, right = kink.fit_tails(prof)
        assert abs(left.fitted_rate - m_left) <= 0.02 * m_left
        assert abs(right.fitted_rate - m_right) <= 0.02 * m_right
        assert left.expected_rate == prof.mass_left
        assert right.expected_rate == prof.mass_right


def test_tail_fit_underflow_window(phi6_kink, monkeypatch):
    window = (0.95 * phi6_kink.half_width - 0.5, 0.95 * phi6_kink.half_width)
    monkeypatch.setattr(kink, "default_tail_window", lambda _profile, _side: window)
    with pytest.raises(FitError):
        kink.fit_tails(phi6_kink)


def test_reflection_identity(phi4, phi4_kink):
    model, table = phi4
    anti = kink.kink_profile(model, table, 1, 0)
    assert np.array_equal(anti.h, phi4_kink.h[::-1])
    assert np.array_equal(anti.x, phi4_kink.x)
    xs = np.linspace(-4.0, 4.0, 101)
    assert np.allclose(anti(xs), phi4_kink(-xs), atol=1e-13)
    assert np.all(np.diff(anti.h) <= 0.0)


@pytest.fixture(scope="module")
def kink_pairs(phi4_kink, phi6_kink, sg_kink):
    """(kink n -> n+1, antikink n+1 -> n) of phi4, phi6 and sine-Gordon."""
    return [(prof, kink.kink_profile(prof.model, prof.table, prof.n_prime, prof.n))
            for prof in (phi4_kink, phi6_kink, sg_kink)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2), st.floats(-3.0, 3.0))
def test_reflection_property(kink_pairs, which, frac):
    # the antikink at x is the kink at -x. Measured on 200,001 points of
    # [-X, X] for every adjacent pair of the three tables: at most 3.6e-15
    # (sine-Gordon, values up to 4 pi); past the half width X both are the
    # same exponential tail, bit for bit
    prof, anti = kink_pairs[which]
    x = frac * prof.half_width
    if abs(x) > prof.half_width:
        assert anti(x) == prof(-x)
    else:
        assert abs(anti(x) - prof(-x)) <= 1e-14


def test_adjacency_required(phi6):
    model, table = phi6
    with pytest.raises(ConfigError):
        kink.kink_profile(model, table, 0, 2)


def test_stationary_residual(phi4, phi4_kink):
    model, _ = phi4
    res = kink.stationary_residual(model, phi4_kink.h, phi4_kink.dx)
    assert res <= 2e-3  # O(dx^2) at dx = 0.01 with W''' ~ 24
    vac = np.full(1001, 1.0)
    assert kink.stationary_residual(model, vac, 0.01) <= 1e-12
    # tanh(x) has the wrong scale for phi4: residual stays away from zero
    for dx in (0.01, 0.005):
        xs = np.arange(-10.0, 10.0 + 1e-12, dx)
        assert kink.stationary_residual(model, np.tanh(xs), dx) >= 0.5


def test_gamma_inequality_on_sampled_fields(phi4):
    model, _ = phi4
    rng = np.random.default_rng(12)
    xs = np.arange(-15.0, 15.0 + 1e-12, 0.01)
    for _ in range(5):
        phi = np.tanh(np.sqrt(2.0) * xs) + 0.3 * gaussian_bumps(xs, rng)
        dphi = central_diff(phi, 0.01)
        for i1, i2 in ((0, len(xs) - 1), (500, 2200), (1200, 1900)):
            lhs = abs(kink.bogomolny_bound(model, phi[i1], phi[i2]))
            rhs = integrate_grid(0.5 * dphi[i1:i2 + 1] ** 2 + model(phi[i1:i2 + 1], 0), 0.01)
            assert lhs <= rhs + 1e-6 * (1.0 + abs(rhs))


def test_csv_export(tmp_path, sg_kink):
    # the profile goes out the way `multikink kink` writes profile.csv
    path = tmp_path / "profile.csv"
    _write_csv(path, ["x", "H", "dH"], [sg_kink.x, sg_kink.h, sg_kink.deriv(sg_kink.x, 1)])
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(sg_kink.x), 3)
    assert np.array_equal(data[:, 1], sg_kink.h)
    text = path.read_bytes().decode()
    assert text.splitlines()[0] == "x,H,dH" and "\r" not in text


def test_tail_evaluation_beyond_grid(phi4_kink):
    # far outside the grid the tail formula continues the profile smoothly
    x = phi4_kink.half_width + 3.0
    exact = np.tanh(np.sqrt(2.0) * x)
    assert abs(phi4_kink(x) - exact) <= 1e-9
    assert phi4_kink.deriv(x, 1) > 0.0


def _lookup_points(prof, rng):
    """Random core points, every knot, each knot one ulp either side and the
    two table ends exactly: the points where a piece lookup can go wrong."""
    knots = prof.x
    return np.concatenate([rng.uniform(-prof.half_width, prof.half_width, 2000), knots,
                           np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                           [-prof.half_width, prof.half_width]])


@pytest.mark.parametrize("which", range(3))
@pytest.mark.parametrize("anti", [False, True])
def test_profile_lookup_matches_spline(kink_pairs, which, anti):
    # the piece found from the uniform knots gives the spline's value up to
    # rounding, on either side of a knot and at the table ends
    prof = kink_pairs[which][anti]
    tol = 4.0 * np.spacing(np.max(np.abs(prof.h)))
    xs = _lookup_points(prof, np.random.default_rng(which))
    core = np.abs(xs) <= prof.half_width
    assert np.max(np.abs(prof(xs[core]) - prof._spline(xs[core]))) <= tol
    # shape and order are free: a shuffled 2-D array gives the same values
    perm = np.random.default_rng(5).permutation(core.sum())
    assert np.array_equal(prof(xs[core][perm].reshape(-1, 1)).ravel(), prof(xs[core])[perm])
    for x in xs[core][::97]:
        val = prof(x)
        assert isinstance(val, float)
        assert abs(val - float(prof._spline(x))) <= tol


@pytest.mark.parametrize("which", range(3))
@pytest.mark.parametrize("anti", [False, True])
def test_profile_tails_and_non_finite_input(kink_pairs, which, anti):
    prof = kink_pairs[which][anti]
    X = prof.half_width
    left = -X - np.array([np.spacing(X), 0.5, 3.0])
    right = X + np.array([np.spacing(X), 0.5, 3.0])
    assert np.array_equal(prof(left), prof.vac_left + (prof.h[0] - prof.vac_left)
                          * np.exp(prof.mass_left * (left + X)))
    assert np.array_equal(prof(right), prof.vac_right + (prof.h[-1] - prof.vac_right)
                          * np.exp(-prof.mass_right * (right - X)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = prof(np.array([np.nan, -np.inf, np.inf, 0.0]))
        assert np.isnan(prof(np.nan))
    assert np.isnan(vals[0]) and not np.isnan(vals[3])
    assert (vals[1], vals[2]) == (prof.vac_left, prof.vac_right)
