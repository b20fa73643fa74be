"""One benchmark job in its own single-threaded process.

    python3 perfbench/job.py --workload NAME --seed N --out DIR [--setup-only] [--trace]

Set-up (imports, config parse, find_vacua, kink tabulation, input
generation) ends at a CLOCK_MONOTONIC stamp that run.py subtracts from the
moment it started the process. The job then replays the workload's library
calls, writing its outputs under DIR, and is timed as wall_s. The
correctness gates run after the clock has stopped and after tracing has
been removed. The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# derivative-sg2 input window: the reference construction's [T, t_final]
DERIV_T, DERIV_T_FINAL = 16.0, 48.0
# width of the physical window the gates read, after T
CONSTRUCT_WINDOW, DERIV_WINDOW = 10.0, 12.0
VELOCITY_EPS = 1e-3


def now() -> float:
    """The clock run.py reads too: set-up time spans both processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def two_soliton(t, x, v):
    """Exact sine-Gordon kink-kink (Perring & Skyrme) in the (0, 2pi, 4pi)
    sector, velocities (-v, v), both asymptotic shifts zero. Returns
    (phi, phi_t)."""
    g = 1.0 / math.sqrt(1.0 - v * v)
    s = g * v * (t + math.log(v) / (g * v))
    u = v * np.sinh(g * x) / math.cosh(s)
    return 2.0 * math.pi + 4.0 * np.arctan(u), -4.0 * u * g * v * math.tanh(s) / (1.0 + u * u)


def gate(value: float, limit: float, below: bool = True) -> dict:
    ok = value <= limit if below else value >= limit
    return {"value": float(value), "limit": float(limit), "ok": bool(ok)}


# ---- construct-sg2 ---------------------------------------------------

def setup_construct(mk, seed):
    cfg = mk.config.ExperimentConfig(CONFIGS / "sg2_construct.cfg")
    model = cfg.build_model()
    table = cfg.build_table(model)
    return {
        "cfg": cfg, "seed": cfg.seed(), "params": cfg.build_params(model, table),
        "sconf": cfg.build_solver_config(),
        "kwargs": dict(T=cfg.get_auto_float("construct", "T"),
                       delta=cfg.get_auto_float("construct", "delta"),
                       tol=cfg.get_float("construct", "tol", default=1e-8),
                       max_iter=cfg.get_int("construct", "max_iter", default=25),
                       t_final=cfg.get_auto_float("construct", "t_final")),
    }


def job_construct(mk, s, out: Path):
    psi, rep = mk.construct.fixed_point(s["params"], s["sconf"], **s["kwargs"])
    psi.save(out / "psi_slab")
    mk.cli._write_json(out / "report.json", {"report": rep.to_dict()}, s["cfg"], s["seed"])
    norms = np.array([math.sqrt(mk.ansatz.energy_norm_sq(
        np.stack([psi.phis[i], psi.phi_dots[i]]), psi.dx)) for i in range(len(psi))])
    mk.cli._write_csv(out / "decay_fit.csv", ["t", "energy_norm"], [psi.times, norms])
    return {"psi": psi, "report": rep}


def gates_construct(mk, s, r):
    psi, rep, params = r["psi"], r["report"], s["params"]
    v = params.velocities[1]
    err = 0.0
    for i, t in enumerate(psi.times):
        if t > rep.T + CONSTRUCT_WINDOW + 1e-9:
            break
        phi = mk.ansatz.multikink(params, t, psi.grid).phi + psi.phis[i]
        err = max(err, float(np.max(np.abs(phi - two_soliton(t, psi.grid, v)[0]))))
    return err, {
        "ref_err": gate(err, 1e-3),
        "converged": {"value": rep.converged, "ok": bool(rep.converged)},
        "contraction_ratio": gate(rep.contraction_ratio, 0.5),
        "decay_fit_r2": gate(rep.decay_fit_r2, 0.99, below=False),
    }


# ---- derivative-sg2 --------------------------------------------------

def exact_psi(mk, params, times, grid, v):
    """Exact two-soliton minus the ansatz, sampled at the given times."""
    p = params.with_parameters((-v, v), params.shifts)
    phis, dots = [], []
    for t in times:
        phi, phi_t = two_soliton(t, grid, v)
        h = mk.ansatz.multikink(p, t, grid)
        phis.append(phi - h.phi)
        dots.append(phi_t - h.phi_dot)
    return np.array(phis), np.array(dots)


def setup_derivative(mk, seed):
    s = setup_construct(mk, seed)
    sconf, params = s["sconf"], s["params"]
    dt, every = sconf.plan(DERIV_T, DERIV_T_FINAL)
    n_snap = int(round((DERIV_T_FINAL - DERIV_T) / dt)) // every + 1
    times = np.linspace(DERIV_T, DERIV_T_FINAL, n_snap)
    phis, dots = exact_psi(mk, params, times, sconf.grid, params.velocities[1])
    s["psi"] = mk.evolve.SpaceTimeSlab(times, sconf.grid, phis, dots)
    return s


def job_derivative(mk, s, out: Path):
    return {(which, k): mk.construct.param_derivative(s["params"], s["psi"], k, which,
                                                      s["sconf"])
            for which in ("shift", "velocity") for k in (1, 2)}


def gates_derivative(mk, s, r):
    psi, params = s["psi"], s["params"]
    keep = psi.times <= DERIV_T + DERIV_WINDOW + 1e-9
    da = [r[("shift", k)].phis[keep] for k in (1, 2)]
    dxpsi = np.array([mk.numerics.derivative(p, psi.dx) for p in psi.phis[keep]])
    space = np.max(np.abs(dxpsi + da[0] + da[1]))
    time_ = np.max(np.abs(psi.phi_dots[keep]
                          - sum(vk * d for vk, d in zip(params.velocities, da))))
    err = float(max(space, time_))
    v = params.velocities[1]
    plus = exact_psi(mk, params, psi.times[keep], psi.grid, v + VELOCITY_EPS)[0]
    minus = exact_psi(mk, params, psi.times[keep], psi.grid, v - VELOCITY_EPS)[0]
    fd = (plus - minus) / (2.0 * VELOCITY_EPS)
    dv = r[("velocity", 2)].phis[keep] - r[("velocity", 1)].phis[keep]
    size = float(np.max(np.abs(fd)))
    return err, {
        "ref_err": gate(err, 1e-5),
        "velocity_fd": gate(float(np.max(np.abs(dv - fd))), 0.01 * size),
    }


# ---- evolve-sg2 ------------------------------------------------------

def setup_evolve(mk, seed):
    out = {"seed": seed, "rng": np.random.default_rng(seed)}
    for key, name in (("e", "sg2_construct.cfg"), ("v", "sg2_verify.cfg")):
        cfg = mk.config.ExperimentConfig(CONFIGS / name)
        model = cfg.build_model()
        table = cfg.build_table(model)
        out[key] = {"cfg": cfg, "model": model, "table": table,
                    "params": cfg.build_params(model, table),
                    "grid": cfg.build_solver_config().grid,
                    "t_start": cfg.get_float("grid", "t_start", default=0.0),
                    "t_end": cfg.get_float("grid", "t_end", required=True),
                    "cfl": cfg.get_float("grid", "cfl", default=0.9),
                    "every": cfg.get_int("grid", "snapshot_every", default=25)}
    out["boost"] = out["v"]["cfg"].build_boost()
    out["samples"] = out["v"]["cfg"].get_int("verify", "coercivity_samples", default=100)
    cfg = mk.config.ExperimentConfig(CONFIGS / "sg_kink.cfg")
    model = cfg.build_model()
    out["s"] = {"cfg": cfg, "model": model, "table": cfg.build_table(model),
                "n": cfg.get_int("kink", "n", default=0),
                "n_prime": cfg.get_int("kink", "n_prime", default=1),
                "x_half": cfg.get_float("spectrum", "x_half", default=15.0),
                "dx": cfg.get_float("spectrum", "dx", default=0.01),
                "k": cfg.get_int("spectrum", "k", default=4)}
    return out


def _evolve_slab(mk, c):
    dx = float(c["grid"][1] - c["grid"][0])
    econf = mk.evolve.EvolveConfig(dt=c["cfl"] * dx, t_end=c["t_end"],
                                   snapshot_every=c["every"])
    state = mk.ansatz.multikink(c["params"], c["t_start"], c["grid"])
    slab = mk.evolve.evolve_nonlinear(state, c["model"], econf)
    energies = [mk.evolve.energy(slab.state(i), c["model"]) for i in range(len(slab))]
    sector = mk.evolve.detect_sector(slab.state(len(slab) - 1), c["table"])
    return slab, energies, sector


def _boost_window(slab, boost):
    """Primed time and grid whose pulled-back events lie inside the slab
    (1 length unit clear of its spatial edges) at the middle of its span."""
    g, v = boost.gamma, boost.v
    t_prime = g * 0.5 * (slab.times[0] + slab.times[-1])
    lo = (slab.grid[0] + 1.0) / g - v * t_prime
    hi = (slab.grid[-1] - 1.0) / g - v * t_prime
    return t_prime, np.arange(lo, hi, slab.dx)


def job_evolve(mk, s, out: Path):
    cli, ansatz, evolve = mk.cli, mk.ansatz, mk.evolve
    seed, rng, e, v, sp = s["seed"], s["rng"], s["e"], s["v"], s["s"]
    r = {}

    # the evolve command on sg2_construct.cfg
    slab, energies, sector = _evolve_slab(mk, e)
    slab.save(out / "slab")
    en = np.array(energies)
    cli._write_csv(out / "energy_series.csv", ["t", "E", "E_p", "E_k"],
                   [slab.times, en[:, 0], en[:, 1], en[:, 2]])
    cli._write_json(out / "evolve.json", {
        "energy_drift": float(np.max(np.abs(en[:, 0] - en[0, 0]))),
        "energy_initial": float(en[0, 0]), "sector": list(sector),
        "snapshots": len(slab)}, e["cfg"], seed)
    r.update(slab=slab, sector=sector, loaded=evolve.SpaceTimeSlab.load(out / "slab"))

    # the construction-free checks of the verify command on sg2_verify.cfg
    params, grid = v["params"], v["grid"]
    dx = float(grid[1] - grid[0])
    vslab, venergies, vsector = _evolve_slab(mk, v)
    result = {"energy_drift": {
        "initial": venergies[0][0],
        "max_drift": float(np.max(np.abs(np.array([x[0] for x in venergies])
                                         - venergies[0][0]))),
        "sector": list(vsector)}}
    t0 = max(v["t_start"], 1.0, mk.construct.default_start_time(params, grid))
    econf = evolve.EvolveConfig(dt=0.9 * dx, t_end=t0 + 10.0, snapshot_every=10)
    zslab, pairings = evolve.zero_mode_drift(
        params, mk.numerics.random_pair_field(grid, rng), grid, t0, econf)
    drift = {}
    for j in range(1, params.K + 1):
        p0, p1 = pairings[:, j - 1, 0], pairings[:, j - 1, 1]
        integral = np.concatenate([[0.0], np.cumsum(
            0.5 * (p0[1:] + p0[:-1]) * np.diff(zslab.times))])
        law = p1 - p1[0] + integral / params.gammas[j - 1]
        drift[f"kink_{j}"] = {"psi0_drift": float(np.max(np.abs(p0 - p0[0]))),
                              "psi1_law_residual": float(np.max(np.abs(law))),
                              "psi0_scale": float(np.max(np.abs(p0)))}
    result["zero_modes"] = drift
    t_eval = max(v["t_end"], 1.0)
    duals = []
    for j in range(1, params.K + 1):
        m = ansatz.zero_modes(params, j, t_eval, grid)
        duals.extend([m.psi0, m.psi1])
    worst = math.inf
    for _ in range(s["samples"]):
        h = ansatz.remove_projections(mk.numerics.random_pair_field(grid, rng), duals, dx)
        worst = min(worst, ansatz.quad_form_multi(params, t_eval, h, grid)
                    / ansatz.energy_norm_sq(h, dx))
    edge = min(params.table.masses) ** 2
    result["coercivity"] = {"min_rayleigh_ratio": float(worst), "continuum_edge": edge,
                            "samples": s["samples"], "t": t_eval}
    cli._write_json(out / "verification.json", result, v["cfg"], seed)
    r.update(vsector=vsector, coercivity=worst, edge=edge)

    # a boost of the reloaded slab
    t_prime, grid_prime = _boost_window(r["loaded"], s["boost"])
    r["boosted"] = mk.lorentz.boost_field(r["loaded"], s["boost"], t_prime, grid_prime)

    # the spectrum command on sg_kink.cfg
    sgrid = np.arange(-sp["x_half"], sp["x_half"] + 1e-9, sp["dx"])
    disc = mk.spectral.build_operator(sp["model"], sp["table"], sp["n"], sp["n_prime"], sgrid)
    vals, vecs = mk.spectral.low_spectrum(disc, sp["k"])
    k = sp["k"]
    cli._write_csv(out / "eigenpairs.csv", ["x"] + [f"v{i}" for i in range(k)],
                   [sgrid] + [vecs[:, i] for i in range(k)])
    ker = disc.kernel_direction / np.linalg.norm(disc.kernel_direction)
    u0 = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    lam0 = mk.spectral.coercivity_constant(disc, disc.kernel_direction, seed=seed)
    cli._write_json(out / "spectrum.json", {
        "eigenvalues": [float(x) for x in vals],
        "kernel_cosine_similarity": float(abs(np.dot(u0, ker))),
        "coercivity_lambda0": lam0}, sp["cfg"], seed)
    return r


def gates_evolve(mk, s, r):
    slab, loaded, boost, model = r["slab"], r["loaded"], s["boost"], s["e"]["model"]
    exact = all(np.array_equal(getattr(slab, a), getattr(loaded, a))
                for a in ("times", "grid", "phis", "phi_dots"))
    # E and P of the unboosted slab at its middle snapshot; P = -int phi_t phi_x
    state = slab.state(len(slab) // 2)
    e_lab = mk.evolve.energy(state, model)[0]
    p_lab = -mk.numerics.integrate_grid(
        state.phi_dot * mk.numerics.derivative(state.phi, state.dx), state.dx)
    expected = boost.gamma * (e_lab - boost.v * p_lab)
    err = abs(mk.evolve.energy(r["boosted"], model)[0] - expected) / abs(expected)
    sectors = [list(r["sector"]), list(r["vsector"])]
    return err, {
        "ref_err": gate(err, 1e-4),
        "sector": {"value": sectors, "ok": sectors == [[0, 2], [0, 2]]},
        "reload_bit_exact": {"value": exact, "ok": bool(exact)},
        "coercivity": gate(r["coercivity"], 0.05 * r["edge"], below=False),
    }


WORKLOADS = {
    "construct-sg2": (setup_construct, job_construct, gates_construct),
    "derivative-sg2": (setup_derivative, job_derivative, gates_derivative),
    "evolve-sg2": (setup_evolve, job_evolve, gates_evolve),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import multikink.cli
    mk = types.SimpleNamespace(**{name: sys.modules[f"multikink.{name}"] for name in (
        "ansatz", "cli", "config", "construct", "evolve", "lorentz", "numerics",
        "spectral")})
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(run_id=f"{args.workload}:{args.seed}")
        tracer.install()
    setup, job, gates = WORKLOADS[args.workload]
    state = setup(mk, args.seed)
    setup_done = now()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    job_start_span = len(tracer.spans) if tracer else 0
    result = job(mk, state, out)
    wall = now() - setup_done
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    ref_err, checks = gates(mk, state, result)
    doc = {"setup_done": setup_done, "wall_s": wall, "peak_rss_mb": rss_mb,
           "ref_err": ref_err, "gates": checks,
           "ok": all(c["ok"] for c in checks.values())}
    if tracer:
        from tracing import layer_metrics
        doc["layers"] = layer_metrics(tracer.spans, job_start_span)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
