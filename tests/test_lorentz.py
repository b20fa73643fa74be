import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multikink import ansatz, construct, evolve, lorentz
from multikink.errors import ConfigError, CoverageError


def test_boost_spec_validation():
    with pytest.raises(ConfigError):
        lorentz.BoostSpec(v=1.0)
    assert lorentz.BoostSpec(v=0.6).gamma == pytest.approx(1.25)


def test_identity_boost(sg2_params):
    out = lorentz.boost_params(sg2_params, lorentz.BoostSpec(v=0.0))
    assert out.velocities == sg2_params.velocities
    assert out.shifts == sg2_params.shifts


def test_velocity_cancellation(sg):
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.5,), (0.0,))
    out = lorentz.boost_params(params, lorentz.BoostSpec(v=0.5))
    assert abs(out.velocities[0]) <= 1e-15


def test_round_trip(sg2_params):
    boost = lorentz.BoostSpec(v=0.2, t0=1.5, x0=-0.7)
    params = sg2_params.with_parameters((-0.3, 0.3), (0.4, -0.2))
    back = lorentz.boost_params(lorentz.boost_params(params, boost), boost.inverse)
    assert np.allclose(back.velocities, params.velocities, atol=1e-14)
    assert np.allclose(back.shifts, params.shifts, atol=1e-14)


def test_composition(sg2_params):
    v1, v2 = 0.3, 0.4
    once = lorentz.boost_params(
        lorentz.boost_params(sg2_params, lorentz.BoostSpec(v=v1)), lorentz.BoostSpec(v=v2))
    combined = lorentz.boost_params(
        sg2_params, lorentz.BoostSpec(v=(v1 + v2) / (1.0 + v1 * v2)))
    assert np.allclose(once.velocities, combined.velocities, atol=1e-14)


# two kink velocities at least 1e-3 apart, shifts, and boosts with |v| <= 0.9
_speeds = st.floats(-0.9, 0.9)
_offsets = st.floats(-10.0, 10.0)
_velocity_pairs = st.tuples(_speeds, _speeds).map(sorted).filter(lambda v: v[1] - v[0] >= 1e-3)


@settings(max_examples=100, deadline=None)
@given(_velocity_pairs, st.tuples(_offsets, _offsets), _speeds, _offsets, _offsets)
def test_round_trip_property(sg2_params, velocities, shifts, v, t0, x0):
    # measured over 20,000 random draws from these ranges: at most 1.3e-13
    params = sg2_params.with_parameters(velocities, shifts)
    boost = lorentz.BoostSpec(v=v, t0=t0, x0=x0)
    back = lorentz.boost_params(lorentz.boost_params(params, boost), boost.inverse)
    assert np.allclose(back.velocities, params.velocities, rtol=0.0, atol=1e-12)
    assert np.allclose(back.shifts, params.shifts, rtol=0.0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(_velocity_pairs, st.tuples(_offsets, _offsets), _speeds, _speeds)
def test_velocity_addition_property(sg2_params, velocities, shifts, v1, v2):
    # boosts without translation form a group under relativistic velocity
    # addition; measured over 20,000 draws: velocities 2.4e-15, shifts 9.8e-14
    params = sg2_params.with_parameters(velocities, shifts)
    twice = lorentz.boost_params(
        lorentz.boost_params(params, lorentz.BoostSpec(v=v1)), lorentz.BoostSpec(v=v2))
    once = lorentz.boost_params(params, lorentz.BoostSpec(v=(v1 + v2) / (1.0 + v1 * v2)))
    assert np.allclose(twice.velocities, once.velocities, rtol=0.0, atol=1e-12)
    assert np.allclose(twice.shifts, once.shifts, rtol=0.0, atol=1e-12)


def test_velocity_order_preserved(sg2_params):
    for v in (-0.6, -0.2, 0.2, 0.6):
        out = lorentz.boost_params(sg2_params, lorentz.BoostSpec(v=v))
        assert out.velocities[0] < out.velocities[1]
        assert all(-1.0 < u < 1.0 for u in out.velocities)


def test_time_translation_shifts(sg2_params):
    out = lorentz.boost_params(sg2_params, lorentz.BoostSpec(v=0.0, t0=2.0))
    expected = tuple(a + v * 2.0 for a, v in zip(sg2_params.shifts, sg2_params.velocities))
    assert np.allclose(out.shifts, expected, atol=1e-14)


def test_interval_invariance():
    boost = lorentz.BoostSpec(v=0.6)
    for tp, xp in ((3.7, -2.2), (0.0, 5.0), (-1.0, 1.0)):
        t, x = boost.unprimed(tp, xp)
        assert t * t - x * x == pytest.approx(tp * tp - xp * xp, abs=1e-12)


@pytest.fixture(scope="module")
def phi4_slab(phi4):
    model, table = phi4
    params = ansatz.make_params(model, table, (0, 1), (0.0,), (0.0,))
    grid = np.linspace(-15.0, 15.0, 1501)
    state = ansatz.multikink(params, 0.0, grid)
    cfg = evolve.EvolveConfig(dt=0.018, t_end=12.0, snapshot_every=10)
    return params, evolve.evolve_nonlinear(state, model, cfg)


def test_boost_field_identity(phi4_slab):
    params, slab = phi4_slab
    gp = np.linspace(-5.0, 5.0, 201)
    fs = lorentz.boost_field(slab, lorentz.BoostSpec(v=0.0), 6.0, gp)
    ref = ansatz.multikink(params, 6.0, gp)
    # budget: evolution drift of the stored slab plus interpolation
    assert np.max(np.abs(fs.phi - ref.phi)) <= 1e-4


def test_boost_field_static_kink(phi4_slab):
    # a static kink seen from a frame moving at v travels at -v
    params, slab = phi4_slab
    boost = lorentz.BoostSpec(v=0.4)
    gp = np.linspace(-5.0, 5.0, 201)
    fs = lorentz.boost_field(slab, boost, 6.0, gp)
    ref = params.profile(1)(boost.gamma * (gp + 0.4 * 6.0))
    assert np.max(np.abs(fs.phi - ref)) <= 1e-3


def test_boost_round_trip_field(phi4_slab):
    params, slab = phi4_slab
    boost = lorentz.BoostSpec(v=0.3)
    gp = np.linspace(-6.0, 6.0, 241)
    # boost a family of snapshots, rebuild a primed slab, boost it back
    tps = np.linspace(4.0, 8.0, 33)
    states = [lorentz.boost_field(slab, boost, tp, gp) for tp in tps]
    primed = evolve.SpaceTimeSlab(tps, gp, [s.phi for s in states],
                                  [s.phi_dot for s in states])
    back = lorentz.boost_field(primed, boost.inverse, 6.0, np.linspace(-2.0, 2.0, 81))
    ref = ansatz.multikink(params, 6.0, np.linspace(-2.0, 2.0, 81))
    assert np.max(np.abs(back.phi - ref.phi)) <= 2e-3


def test_coverage_error(phi4_slab):
    _, slab = phi4_slab
    with pytest.raises(CoverageError) as err:
        lorentz.boost_field(slab, lorentz.BoostSpec(v=0.5), 30.0, np.linspace(-5, 5, 11))
    assert "slab covers" in str(err.value)


@pytest.mark.slow
def test_covariance_single_kink(sg):
    # K=1: both sides are the same exact kink, discrepancy at the
    # interpolation level
    model, table = sg
    params = ansatz.make_params(model, table, (0, 1), (0.3,), (0.0,))
    cfg = construct.SolverConfig(x_min=-30.0, x_max=30.0, dx=0.05)
    report = lorentz.verify_covariance(
        params, lorentz.BoostSpec(v=0.2), cfg,
        {"T": 2.0, "delta": 0.5, "t_final": 22.0, "tol": 1e-8, "max_iter": 25}, window_t=3.0)
    assert report["discrepancy"] <= 1e-5


def test_extend_backward_joins_slab(phi4_slab):
    # snapshots from t_min on at the plan's cadence, then the stored slab
    params, slab = phi4_slab
    cfg = construct.SolverConfig(x_min=-15.0, x_max=15.0, dx=0.02)
    t_min = -2.3
    ext = lorentz.extend_backward(slab, params.model, t_min, cfg)
    dt, every = cfg.plan(t_min, slab.times[0])
    assert ext.times[0] == t_min
    assert np.array_equal(ext.times[-len(slab):], slab.times)
    head = ext.times[:len(ext) - len(slab) + 1]
    assert np.allclose(np.diff(head), dt * every, rtol=1e-12, atol=0)
    assert np.array_equal(ext.phis[-len(slab):], slab.phis)
    assert lorentz.extend_backward(slab, params.model, 0.0, cfg) is slab
