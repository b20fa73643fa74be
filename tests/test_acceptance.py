"""End-to-end acceptance checks, one per criterion, each printing a
pass/fail line (run with -s to see them all)."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from multikink import ansatz, construct, evolve, kink, lorentz, spectral
from multikink.evolve import SpaceTimeSlab
from multikink.numerics import central_diff, integrate_grid, random_pair_field
from conftest import report_line, two_soliton_oracle


def _oracle_residual(W1, psi, points):
    """max |psi'' - W'(psi)| at sample points, via high-precision derivatives."""
    mp.mp.dps = 30
    worst = 0.0
    for x in points:
        r = mp.diff(psi, mp.mpf(x), 2) - W1(psi(mp.mpf(x)))
        worst = max(worst, abs(float(r)))
    return worst


def test_criterion_1_kink_oracles(phi4_kink, sg_kink):
    pts = [-3.0, -1.2, 0.0, 0.7, 2.5]
    res4 = _oracle_residual(lambda p: -4 * p * (1 - p**2),
                            lambda x: mp.tanh(mp.sqrt(2) * x), pts)
    res_sg = _oracle_residual(mp.sin, lambda x: 4 * mp.atan(mp.e**x), pts)
    xs = np.linspace(-10.0, 10.0, 4001)
    err4 = float(np.max(np.abs(phi4_kink(xs) - np.tanh(np.sqrt(2.0) * xs))))
    err_sg = float(np.max(np.abs(sg_kink(xs) - 4.0 * np.arctan(np.exp(xs)))))
    e4 = kink.kink_energy(phi4_kink.model, phi4_kink.table, 0, 1)
    e_sg = kink.kink_energy(sg_kink.model, sg_kink.table, 0, 1)
    de4 = abs(e4 - 4.0 * np.sqrt(2.0) / 3.0) / (4.0 * np.sqrt(2.0) / 3.0)
    de_sg = abs(e_sg - 8.0) / 8.0
    ok = (res4 <= 1e-10 and res_sg <= 1e-10 and err4 <= 1e-6 and err_sg <= 1e-6
          and de4 <= 1e-6 and de_sg <= 1e-6)
    report_line("C1 kink oracles", ok,
                f"sup errors {err4:.2e}/{err_sg:.2e}, energy rel {de4:.2e}/{de_sg:.2e}, "
                f"oracle residuals {res4:.2e}/{res_sg:.2e}")


def test_criterion_2_decay_rates(phi4_kink, sg_kink, phi6_kink):
    worst = 0.0
    details = []
    for name, prof in (("phi4", phi4_kink), ("sine_gordon", sg_kink), ("phi6", phi6_kink)):
        left, right = kink.fit_tails(prof)
        for fit in (left, right):
            rel = abs(fit.fitted_rate - fit.expected_rate) / fit.expected_rate
            worst = max(worst, rel)
            details.append(f"{name}.{fit.side} {rel:.2%}")
    report_line("C2 decay rates", worst <= 0.02, "; ".join(details))


def test_criterion_3_spectral(sg, phi4):
    grid = np.arange(-15.0, 15.0 + 1e-9, 0.01)
    sg_model, sg_table = sg
    disc = spectral.build_operator(sg_model, sg_table, 0, 1, grid)
    vals, vecs = spectral.low_spectrum(disc, 2)
    u0 = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    ker = disc.kernel_direction / np.linalg.norm(disc.kernel_direction)
    cos = abs(float(np.dot(u0, ker)))
    phi4_model, phi4_table = phi4
    disc4 = spectral.build_operator(phi4_model, phi4_table, 0, 1, grid)
    vals4, _ = spectral.low_spectrum(disc4, 2)
    oracle = spectral.OperatorDiscretization(
        grid=grid, v=8.0 - 12.0 / np.cosh(np.sqrt(2.0) * grid) ** 2, dx=disc4.dx,
        kernel_direction=disc4.kernel_direction)
    ovals, _ = spectral.low_spectrum(oracle, 2)
    shape_rel = abs(vals4[1] - ovals[1]) / ovals[1]
    ok = (abs(vals[0]) <= 1e-4 and cos >= 0.9999 and vals[1] >= 0.9
          and shape_rel <= 0.02)
    report_line("C3 spectral structure", ok,
                f"lam0 {vals[0]:.2e}, cos {cos:.6f}, lam1 {vals[1]:.3f}, "
                f"phi4 shape mode vs oracle {shape_rel:.2e} (value {vals4[1]:.4f})")


def test_criterion_4_zero_mode_conservation(sg):
    model, table = sg
    # static kink at dx = dt/0.9 = 0.01
    dx = 0.01
    grid = np.arange(-20.0, 20.0 + 1e-12, dx)
    params = ansatz.make_params(model, table, (0, 1), (0.0,), (0.0,))
    rng = np.random.default_rng(3)
    h0 = random_pair_field(grid, rng)
    h0 += 0.3 * np.stack([np.zeros_like(grid), params.profile(1).deriv(grid)])
    cfg = evolve.EvolveConfig(dt=0.9 * dx, t_end=10.0, snapshot_every=50)
    slab, pair = evolve.zero_mode_drift(params, h0, grid, 0.0, cfg)
    static = evolve.zero_mode_laws(params, slab, pair)["kink_1"]
    static_drift = static["psi0_drift"] / abs(pair[0, 0, 0])

    # moving kink law, integrated form, halving under refinement
    resids = []
    for dxm in (0.02, 0.01):
        gridm = np.arange(-30.0, 30.0 + 1e-12, dxm)
        moving = ansatz.make_params(model, table, (0, 1), (0.5,), (0.0,))
        rng = np.random.default_rng(5)
        hm = random_pair_field(gridm, rng)
        cfgm = evolve.EvolveConfig(dt=0.9 * dxm, t_end=10.0, snapshot_every=10)
        slab, pairm = evolve.zero_mode_drift(moving, hm, gridm, 0.0, cfgm)
        resids.append(evolve.zero_mode_laws(moving, slab, pairm)["kink_1"]["psi1_law_residual"])
    ratio = resids[0] / resids[1]
    ok = static_drift <= 1e-4 and resids[1] <= 5e-5 and ratio >= 3.0
    report_line("C4 zero-mode conservation", ok,
                f"static rel drift {static_drift:.2e} (<=1e-4), moving law residual "
                f"{resids[1]:.2e} at dx=0.01, refinement ratio {ratio:.2f} (>=3)")


def test_criterion_5_coercivity(sg, sg2_params):
    t_start = time.perf_counter()
    model, table = sg
    edge = min(table.masses) ** 2
    results = {}
    grid = np.arange(-25.0, 25.0 + 1e-9, 0.02)
    for v in (0.0, 0.5):
        params = ansatz.make_params(model, table, (0, 1), (v,), (0.0,))
        results[f"single v={v}"] = ansatz.coercivity_sample(
            params, 2.0, grid, np.random.default_rng(17), 100)
    results["multikink t=25"] = ansatz.coercivity_sample(
        sg2_params, 25.0, np.arange(-30.0, 30.0 + 1e-9, 0.02), np.random.default_rng(23), 100)
    elapsed = time.perf_counter() - t_start
    ok = all(r >= 0.05 * edge for r in results.values()) and elapsed <= 60.0
    report_line("C5 coercivity sampling", ok,
                ", ".join(f"{k}: {v:.3f}" for k, v in results.items())
                + f"; threshold {0.05 * edge}, runtime {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_6_construction(sg2_params, sg2_construction):
    rep = sg2_construction["report"]
    psi = sg2_construction["psi"]
    cfg = sg2_construction["config"]
    worst = 0.0
    for i, t in enumerate(psi.times):
        if t > rep.T + 10.0:
            break
        phi = ansatz.multikink(sg2_params, t, cfg.grid).phi + psi.phis[i]
        worst = max(worst, float(np.max(np.abs(phi - two_soliton_oracle(t, cfg.grid)))))
    coarse_cfg = construct.SolverConfig(x_min=-34.0, x_max=34.0, dx=0.04,
                                        snapshot_dt=0.5)
    _, coarse_rep = construct.fixed_point(sg2_params, coarse_cfg, T=rep.T,
                                          delta=rep.delta, t_final=rep.t_final,
                                          tol=1e-9)
    ratio = coarse_rep.final_residual / rep.final_residual
    ok = (rep.contraction_ratio < 0.5 and rep.fitted_decay_rate > 0.0
          and rep.decay_fit_r2 >= 0.99 and worst <= 1e-3 and ratio >= 3.0)
    report_line("C6 construction", ok,
                f"q {rep.contraction_ratio:.2e} (<0.5), decay rate "
                f"{rep.fitted_decay_rate:.3f} (R2 {rep.decay_fit_r2:.5f}), two-soliton "
                f"sup {worst:.2e} (<=1e-3), residual refinement x{ratio:.2f} (>=3)")


@pytest.mark.slow
def test_criterion_7_uniqueness(sg2_construction, sg2_restart):
    cfg = sg2_construction["config"]
    rep = sg2_construction["report"]
    psi = sg2_construction["psi"]
    psi2 = sg2_restart["psi"]
    diff = construct.weighted_norm(
        SpaceTimeSlab(psi.times, cfg.grid, psi2.phis - psi.phis,
                      psi2.phi_dots - psi.phi_dots), rep.T, rep.delta)
    ok = diff <= 10.0 * 1e-10
    report_line("C7 uniqueness surrogate", ok,
                f"restarted run differs by {diff:.2e} (<= 10 tol = 1e-09)")


@pytest.mark.slow
def test_criterion_8_parameter_derivatives(sg2_params, sg2_construction,
                                           sg2_shift_derivatives):
    cfg = sg2_construction["config"]
    rep = sg2_construction["report"]
    psi = sg2_construction["psi"]
    da1, da2 = sg2_shift_derivatives
    tol_fp = 1e-10
    eps = 1e-3
    kw = dict(T=rep.T, delta=rep.delta, t_final=rep.t_final, tol=tol_fp, max_iter=30)
    plus, _ = construct.fixed_point(
        sg2_params.with_parameters((-0.3, 0.3), (eps, 0.0)), cfg, **kw)
    minus, _ = construct.fixed_point(
        sg2_params.with_parameters((-0.3, 0.3), (-eps, 0.0)), cfg, **kw)
    fd = (plus.phis - minus.phis) / (2.0 * eps)
    fdd = (plus.phi_dots - minus.phi_dots) / (2.0 * eps)
    # compare on the physical window [T, T+12], clear of the truncation zone
    keep = psi.times <= rep.T + 12.0 + 1e-9
    mismatch = construct.weighted_norm(
        SpaceTimeSlab(psi.times[keep], cfg.grid, (fd - da1.phis)[keep],
                      (fdd - da1.phi_dots)[keep]), rep.T, rep.delta)
    signal = construct.weighted_norm(
        SpaceTimeSlab(psi.times[keep], cfg.grid, da1.phis[keep],
                      da1.phi_dots[keep]), rep.T, rep.delta)
    # O(eps^2) + 10 tol/eps budget, the second term from differencing two
    # constructions converged to tol_fp. Measured on this fixture, the
    # mismatch is 3.20e-7, 7.55e-7 and 2.86e-6 at eps = 1e-3, 2e-3 and
    # 4e-3; a least-squares fit of c2 eps^2 + c1 tol/eps gives c2 = 0.176
    # and c1 = 1.36 (within 3% at each eps). The eps^2 constant 1.0 keeps
    # a margin of 5.7 over c2, and the budget at eps = 1e-3, 2.0e-6, lies
    # 6.2 times above the measured mismatch.
    budget = 1.0 * eps**2 + 10.0 * tol_fp / eps
    fd_ok = mismatch <= budget and mismatch <= 0.01 * signal

    # translation identities; the time identity holds with d_t Psi equal to
    # + sum v_k d_{a_k} Psi (the sign follows from t -> t+s matching
    # a_k -> a_k + v_k s, and is confirmed by the finite-difference oracle)
    space_worst = 0.0
    time_worst = 0.0
    for i in range(len(psi.times)):
        from multikink.numerics import derivative
        dxpsi = derivative(psi.phis[i], cfg.dx)
        space_worst = max(space_worst, float(np.max(np.abs(
            dxpsi + da1.phis[i] + da2.phis[i]))))
        time_worst = max(time_worst, float(np.max(np.abs(
            psi.phi_dots[i] - (-0.3 * da1.phis[i] + 0.3 * da2.phis[i])))))
    ident_ok = space_worst <= 1e-5 and time_worst <= 1e-5
    report_line("C8 parameter derivatives", fd_ok and ident_ok,
                f"FD mismatch {mismatch:.2e} vs budget {budget:.2e} "
                f"(signal {signal:.2e}), space identity {space_worst:.2e}, "
                f"time identity {time_worst:.2e} (both <=1e-5)")


@pytest.mark.slow
def test_criterion_9_lorentz_covariance(sg2_params, sg2_construction):
    rep = sg2_construction["report"]
    cfg = sg2_construction["config"]
    boost = lorentz.BoostSpec(v=0.2)
    result = lorentz.verify_covariance(
        sg2_params, boost, cfg, {"T": rep.T, "delta": rep.delta, "t_final": rep.t_final,
                                 "tol": 1e-8, "max_iter": 25}, window_t=5.0)
    disc = result["discrepancy"]
    params = sg2_params.with_parameters((-0.3, 0.3), (0.4, -0.2))
    spec = lorentz.BoostSpec(v=0.2, t0=1.5, x0=-0.7)
    back = lorentz.boost_params(lorentz.boost_params(params, spec), spec.inverse)
    round_trip = max(max(abs(a - b) for a, b in zip(back.velocities, params.velocities)),
                     max(abs(a - b) for a, b in zip(back.shifts, params.shifts)))
    v1, v2 = 0.3, 0.4
    once = lorentz.boost_params(
        lorentz.boost_params(params, lorentz.BoostSpec(v=v1)), lorentz.BoostSpec(v=v2))
    combined = lorentz.boost_params(
        params, lorentz.BoostSpec(v=(v1 + v2) / (1.0 + v1 * v2)))
    comp = max(abs(a - b) for a, b in zip(once.velocities, combined.velocities))
    ok = disc <= 5e-3 and round_trip <= 1e-12 and comp <= 1e-12
    report_line("C9 Lorentz covariance", ok,
                f"discrepancy {disc:.2e} (<=5e-3) at {result['max_location']}, "
                f"round trip {round_trip:.1e}, composition {comp:.1e}")


def test_criterion_10_energy_and_sectors(sg, sg2_params):
    model, table = sg
    grid = np.arange(-30.0, 30.0 + 1e-9, 0.02)
    vac = ansatz.FieldState(t=0.0, grid=grid, phi=np.full_like(grid, table.vacuum(1)),
                            phi_dot=np.zeros_like(grid))
    e_vac = evolve.energy(vac, model)
    vac_ok = all(abs(e) <= 1e-12 for e in e_vac)

    params = ansatz.make_params(model, table, (0, 1), (0.5,), (0.0,))
    state = ansatz.multikink(params, 0.0, grid)
    gamma = 1.0 / np.sqrt(1.0 - 0.25)
    e_boost = evolve.energy(state, model)[0]
    boost_rel = abs(e_boost - 8.0 * gamma) / (8.0 * gamma)

    state2 = ansatz.multikink(sg2_params, 20.0, grid)
    sector_ok = evolve.detect_sector(state2, table) == (0, 2)

    # Gamma inequality on evolved snapshots
    slab = evolve.evolve_nonlinear(state, model,
                                   evolve.EvolveConfig(dt=0.018, t_end=10.0,
                                                       snapshot_every=100))
    gamma_ok = True
    for i in range(len(slab)):
        phi = slab.phis[i]
        dphi = central_diff(phi, slab.dx)
        for i1, i2 in ((0, len(grid) - 1), (400, 1800), (1000, 2600)):
            lhs = abs(kink.bogomolny_bound(model, phi[i1], phi[i2]))
            rhs = integrate_grid(0.5 * dphi[i1:i2 + 1] ** 2
                                 + model(phi[i1:i2 + 1], 0), slab.dx)
            if lhs > rhs + 1e-6 * (1.0 + abs(rhs)):
                gamma_ok = False
    ok = vac_ok and boost_rel <= 1e-4 and sector_ok and gamma_ok
    report_line("C10 energy and sectors", ok,
                f"vacuum energy {max(abs(e) for e in e_vac):.1e}, boosted kink energy "
                f"rel {boost_rel:.2e} (<=1e-4), sector (0,2) {sector_ok}, "
                f"Gamma inequality {gamma_ok}")
