import dataclasses

import mpmath as mp
import numpy as np
import pytest

from multikink.errors import ConfigError, DegenerateVacuumError, InvalidChainError
from multikink.potential import PotentialModel, find_vacua, validate_chain


def test_builtin_values(phi4, sg):
    phi4_model, _ = phi4
    sg_model, _ = sg
    assert phi4_model(1.0, 0) == 0.0
    assert phi4_model(0.0, 0) == 1.0
    assert sg_model(0.0, 2) == 1.0


def test_order_validation(phi4):
    model, _ = phi4
    with pytest.raises(ConfigError):
        model(0.5, 3)
    with pytest.raises(ConfigError):
        model(0.5, -1)


@pytest.mark.parametrize("fixture,expected_vacua,expected_masses", [
    ("phi4", (-1.0, 1.0), (2.0 * np.sqrt(2.0),) * 2),
    ("phi6", (-1.0, 0.0, 1.0), (2.0 * np.sqrt(2.0), np.sqrt(2.0), 2.0 * np.sqrt(2.0))),
])
def test_find_vacua_builtin(request, fixture, expected_vacua, expected_masses):
    model, table = request.getfixturevalue(fixture)
    assert np.allclose(table.vacua, expected_vacua, atol=1e-10)
    assert np.allclose(table.masses, expected_masses, atol=1e-10)
    for w in table.vacua:
        assert abs(model(w, 0)) <= 1e-12
        assert model(w, 2) > 1e-12


def test_find_vacua_sine_gordon_window(sg):
    model, _ = sg
    table = find_vacua(dataclasses.replace(model, search_interval=(-1.0, 7.0)))
    assert np.allclose(table.vacua, (0.0, 2.0 * np.pi), atol=1e-10)
    assert np.allclose(table.masses, (1.0, 1.0), atol=1e-10)


def test_custom_poly_matches_phi4(phi4):
    model, _ = phi4
    custom = PotentialModel.custom_poly([1.0, 0.0, -2.0, 0.0, 1.0])
    xs = np.linspace(-1.5, 1.5, 41)
    for order in range(3):
        assert np.allclose(custom(xs, order), model(xs, order), atol=1e-12)
    table = find_vacua(custom)
    assert np.allclose(table.vacua, (-1.0, 1.0), atol=1e-10)


def test_custom_trig_matches_sine_gordon(sg):
    model, _ = sg
    custom = PotentialModel.custom_trig([1.0, -1.0])
    xs = np.linspace(-3.0, 9.0, 41)
    assert np.array_equal(custom(xs, 0), model(xs, 0))
    for order in (1, 2):
        assert np.allclose(custom(xs, order), model(xs, order), atol=1e-12)


def test_cosine_forms_keep_relative_accuracy_near_the_vacuum(sg):
    # 1 - cos(1e-9) rounds to 0; W = 2 sin^2(phi/2) = 5e-19 (1 - 1e-18/12)
    model, _ = sg
    for w in (model(1e-9), PotentialModel.custom_trig([1.0, -1.0])(1e-9)):
        assert abs(w - 5e-19) <= 1e-12 * 5e-19


@pytest.mark.parametrize("model, vacua, masses", [
    (PotentialModel.sine_gordon(), (0.0, 2.0 * np.pi, 4.0 * np.pi), (1.0, 1.0, 1.0)),
    (PotentialModel.custom_trig([1.0, -1.0]), (0.0, 2.0 * np.pi), (1.0, 1.0)),
    (PotentialModel.phi4(), (-1.0, 1.0), (np.sqrt(8.0),) * 2),
    (PotentialModel.phi6(), (-1.0, 0.0, 1.0), (np.sqrt(8.0), np.sqrt(2.0), np.sqrt(8.0))),
    (PotentialModel.custom_poly([1.0, 0.0, -2.0, 0.0, 1.0]), (-1.0, 1.0), (np.sqrt(8.0),) * 2),
])
def test_vacua_land_on_the_nearest_double(model, vacua, masses):
    # Brent's method alone stops within 1e-12 of a root: it left sine-Gordon's
    # vacua at -5.4e-20 and 116 ulps above the double nearest 4 pi; the
    # Newton step after it lands on the double nearest each vacuum
    table = find_vacua(model)
    assert table.vacua == vacua
    assert table.masses == masses


@pytest.mark.parametrize("model, exact, vacua", [
    (PotentialModel.phi4(), lambda p: (1 - p**2) ** 2, lambda: (-1, 1)),
    (PotentialModel.phi6(), lambda p: p**2 * (1 - p**2) ** 2, lambda: (-1, 0, 1)),
    (PotentialModel.sine_gordon(), lambda p: 1 - mp.cos(p), lambda: (0, 2 * mp.pi, 4 * mp.pi)),
    (PotentialModel.custom_poly([1.0, 0.0, -2.0, 0.0, 1.0]), lambda p: (1 - p**2) ** 2, lambda: (-1, 1)),
    (PotentialModel.custom_trig([1.0, -1.0]), lambda p: 1 - mp.cos(p), lambda: (0, 2 * mp.pi)),
    # W = (1 - cos p)(1 + 0.3 sin p), whose sine terms give 0.3 (sin p - 0.5
    # sin 2p): W'(v) = 0 only as a sum over k, so sin(k delta) - k delta enters
    (PotentialModel.custom_trig([1.0, -1.0], [0.3, -0.15]),
     lambda p: (1 - mp.cos(p)) * (1 + mp.mpf(0.3) * mp.sin(p)), lambda: (0, 2 * mp.pi)),
])
def test_about_keeps_relative_accuracy_near_each_vacuum(model, exact, vacua):
    # W(v + delta) straight from W cancels near each vacuum v (at delta =
    # -1e-10, relative errors from 1.7e-7 for phi4 to 1.0 for the monomial
    # phi4, whose W rounds to 0 there); written in delta it
    # keeps its relative accuracy about the exact vacuum, which vacua()
    # gives to the working precision
    offsets = (1e-14, -1e-10, 3e-7, -1e-3, 0.05, -0.4, 0.9)
    found = find_vacua(model).vacua
    with mp.workdps(80):  # 1 - cos(2 pi + 1e-14) keeps 16 of 80 digits
        assert len(found) == len(vacua())
        for v, v_exact in zip(found, vacua()):
            w = model.about(v)
            for d in offsets:
                ref = exact(v_exact + mp.mpf(d))
                assert abs(float((w(d) - ref) / ref)) <= 1e-15
            assert np.array_equal(w(np.array(offsets)), [w(d) for d in offsets])


def test_degenerate_vacuum_rejected():
    quartic = PotentialModel.custom_poly([0.0, 0.0, 0.0, 0.0, 1.0], search_interval=(-1.0, 1.0))
    with pytest.raises(DegenerateVacuumError):
        find_vacua(quartic)


def test_positive_local_minimum_not_a_vacuum():
    # W = (1 - p^2)^2 + 0.1 has the same minima but no zeros
    lifted = PotentialModel.custom_poly([1.1, 0.0, -2.0, 0.0, 1.0], search_interval=(-2.0, 2.0))
    with pytest.raises(ConfigError):
        find_vacua(lifted)


def test_validate_chain(sg, phi4, phi6):
    _, sg_table3 = sg
    assert validate_chain(sg_table3, (0, 1, 2)).labels == (0, 1, 2)
    _, phi4_table = phi4
    assert validate_chain(phi4_table, (0, 1, 0)).labels == (0, 1, 0)
    _, phi6_table = phi6
    with pytest.raises(InvalidChainError):
        validate_chain(phi6_table, (0, 2))
    with pytest.raises(InvalidChainError):
        validate_chain(phi4_table, (0, 5))


@pytest.mark.parametrize("fixture", ["phi4", "phi6", "sg"])
def test_derivative_consistency(request, fixture):
    # finite differences of order k match order k+1 at O(h^2)
    model, _ = request.getfixturevalue(fixture)
    xs = np.linspace(-1.2, 1.2, 17)
    for k in range(2):
        errs = []
        for h in (2e-2, 1e-2):
            fd = (model(xs + h, k) - model(xs - h, k)) / (2.0 * h)
            errs.append(np.max(np.abs(fd - model(xs, k + 1))))
        assert errs[0] <= 0.1
        assert errs[1] <= 0.3 * errs[0] + 1e-12
