import numpy as np
import pytest
from hypothesis import settings

from multikink import ansatz, construct
from multikink.potential import PotentialModel, find_vacua
from multikink.kink import kink_profile


# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# failing property test reproduces locally; each test keeps its example count
settings.register_profile("ci", derandomize=True, database=None)


@pytest.fixture(scope="session")
def sg():
    model = PotentialModel.sine_gordon()
    return model, find_vacua(model)


@pytest.fixture(scope="session")
def phi4():
    model = PotentialModel.phi4()
    return model, find_vacua(model)


@pytest.fixture(scope="session")
def phi6():
    model = PotentialModel.phi6()
    return model, find_vacua(model)


@pytest.fixture(scope="session")
def sg_kink(sg):
    model, table = sg
    return kink_profile(model, table, 0, 1)


@pytest.fixture(scope="session")
def phi4_kink(phi4):
    model, table = phi4
    return kink_profile(model, table, 0, 1)


@pytest.fixture(scope="session")
def phi6_kink(phi6):
    # the kink between the vacua 0 and 1 (labels 1 -> 2)
    model, table = phi6
    return kink_profile(model, table, 1, 2)


@pytest.fixture(scope="session")
def sg2_params(sg):
    model, table = sg
    return ansatz.make_params(model, table, (0, 1, 2), (-0.3, 0.3), (0.0, 0.0))


@pytest.fixture(scope="session")
def sg2_construction(sg2_params):
    """Reference sine-Gordon two-kink construction (auto T, delta, t_final),
    converged tightly so parameter-derivative tests can reuse it."""
    cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.02)
    psi, report = construct.fixed_point(sg2_params, cfg, tol=1e-10, max_iter=30)
    return {"config": cfg, "psi": psi, "report": report}


@pytest.fixture(scope="session")
def sg2_shift_derivatives(sg2_params, sg2_construction):
    cfg = sg2_construction["config"]
    psi = sg2_construction["psi"]
    return [construct.param_derivative(sg2_params, psi, k, "shift", cfg)
            for k in (1, 2)]


@pytest.fixture(scope="session")
def sg2_velocity_derivatives(sg2_params, sg2_construction):
    cfg = sg2_construction["config"]
    psi = sg2_construction["psi"]
    return [construct.param_derivative(sg2_params, psi, k, "velocity", cfg)
            for k in (1, 2)]


@pytest.fixture(scope="session")
def sg2_restart(sg2_params, sg2_construction):
    """Second fixed-point run started from a perturbed admissible iterate."""
    import math
    from multikink.evolve import SpaceTimeSlab
    from multikink.numerics import gaussian_bumps

    cfg = sg2_construction["config"]
    rep = sg2_construction["report"]
    psi = sg2_construction["psi"]
    rng = np.random.default_rng(9)
    bump = 0.05 * gaussian_bumps(cfg.grid, rng)
    phis = np.array([math.exp(-rep.delta * (t - rep.T)) * bump for t in psi.times])
    g0 = SpaceTimeSlab(psi.times, cfg.grid, phis, np.zeros_like(phis))
    psi2, rep2 = construct.fixed_point(sg2_params, cfg, T=rep.T, delta=rep.delta,
                                       t_final=rep.t_final, tol=1e-10, max_iter=30,
                                       g0=g0)
    return {"psi": psi2, "report": rep2}


def two_soliton_oracle(t, x, v=0.3):
    """Exact sine-Gordon kink-kink solution in the (0, 2pi, 4pi) sector with
    velocities (-v, v) and both shifts zero (time offset tau recenters it)."""
    g = 1.0 / np.sqrt(1.0 - v * v)
    tau = -np.log(v) / (g * v)
    return 2.0 * np.pi + 4.0 * np.arctan(v * np.sinh(g * x) / np.cosh(g * v * (t - tau)))


def report_line(tag: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"
