"""Command-line front end: reproducible experiments from a config file.

Subcommands: kink, multikink, evolve, construct, boost, verify, spectrum.
Exit codes: 0 success, 2 configuration error, 3 numerical failure, which
includes a NaN or an infinity in any output. All JSON outputs embed the
resolved configuration, the seed and the package version; all randomness
is derived from the single seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import ansatz, construct, evolve, kink, lorentz, spectral
from .config import ExperimentConfig
from .errors import ConfigError, MultikinkError, NumericsError
from .numerics import capped_count, random_pair_field, require_finite


def _write_json(path: Path, payload: dict, cfg: ExperimentConfig, seed: int):
    """payload as strict JSON, with the resolved config, the seed and the
    package version. Nothing is written when a value is NaN or infinite:
    that is a NumericsError naming the file. Unmeasured values are None."""
    doc = dict(payload, artifact_version=__version__, config=cfg.resolved, seed=seed)
    try:
        text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as err:
        raise NumericsError(f"{path}: {err}") from err
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """One row per index of the columns, each value to 17 digits. Nothing is
    written when a column holds a NaN or an infinity: that is a
    NumericsError naming the file and the column."""
    for name, column in zip(header, columns):
        require_finite(path, f"column {name}", column)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _params_from_config(cfg: ExperimentConfig):
    """The multikink parameters; they carry the model and its vacuum table."""
    model = cfg.build_model()
    return cfg.build_params(model, cfg.build_table(model))


def cmd_kink(cfg: ExperimentConfig, out: Path, seed: int) -> None:
    model = cfg.build_model()
    table = cfg.build_table(model)
    n, n_prime = cfg.kink_labels()
    profile = kink.kink_profile(model, table, n, n_prime, **cfg.profile_settings())
    _write_csv(out / "profile.csv", ["x", "H", "dH"],
               [profile.x, profile.h, profile.deriv(profile.x, 1)])
    _write_json(out / "tails.json", {
        fit.side: {k: getattr(fit, k) for k in ("fitted_rate", "expected_rate", "fit_residual")}
        for fit in kink.fit_tails(profile)}, cfg, seed)
    e_bogomolny = kink.kink_energy(model, table, n, n_prime)
    e_grid = kink.potential_energy_of_profile(profile)
    _write_json(out / "energy.json", {
        "energy": e_bogomolny,
        "grid_potential_energy": e_grid,
        "relative_gap": abs(e_grid - e_bogomolny) / e_bogomolny,
    }, cfg, seed)


def cmd_multikink(cfg: ExperimentConfig, out: Path, seed: int) -> None:
    params = _params_from_config(cfg)
    grid = cfg.build_grid()
    t = cfg.t_start()
    state = ansatz.multikink(params, t, grid)
    _write_csv(out / "multikink.csv", ["x", "phi", "phi_dot"],
               [grid, state.phi, state.phi_dot])
    sector = evolve.detect_sector(state, params.table)
    _write_json(out / "sector.json", {
        "sector": list(sector), "t": t,
        "boundary_values": [float(state.phi[0]), float(state.phi[-1])],
    }, cfg, seed)


def _time_step(cfg: ExperimentConfig, grid) -> float:
    """[grid] cfl * dx, the step of every forward run."""
    return cfg.cfl() * float(grid[1] - grid[0])


def _evolve_from_config(cfg: ExperimentConfig, params, grid):
    """Evolve the ansatz from [grid] t_start to t_end with steps of at most
    [grid] cfl * dx: the slab and (E, E_p, E_k) per snapshot."""
    econf = evolve.EvolveConfig(
        dt=_time_step(cfg, grid), t_end=cfg.t_end(),
        snapshot_every=cfg.get_int("grid", "snapshot_every", default=25))
    slab = evolve.evolve_nonlinear(ansatz.multikink(params, cfg.t_start(), grid),
                                   params.model, econf)
    energies = np.array([evolve.energy(slab.state(i), params.model) for i in range(len(slab))])
    return slab, energies


def cmd_evolve(cfg: ExperimentConfig, out: Path, seed: int) -> None:
    params = _params_from_config(cfg)
    slab, energies = _evolve_from_config(cfg, params, cfg.build_grid())
    slab.save(out / "slab")
    _write_csv(out / "energy_series.csv", ["t", "E", "E_p", "E_k"],
               [slab.times, energies[:, 0], energies[:, 1], energies[:, 2]])
    _write_json(out / "evolve.json", {
        "energy_drift": float(np.max(np.abs(energies[:, 0] - energies[0, 0]))),
        "energy_initial": float(energies[0, 0]),
        "sector": list(evolve.detect_sector(slab.state(len(slab) - 1), params.table)),
        "snapshots": len(slab),
    }, cfg, seed)


def cmd_construct(cfg: ExperimentConfig, out: Path, seed: int) -> None:
    psi, rep = construct.fixed_point(_params_from_config(cfg), cfg.build_solver_config(),
                                     **cfg.fixed_point_settings())
    _write_json(out / "report.json", {"report": rep.to_dict()}, cfg, seed)
    psi.save(out / "psi_slab")
    _write_csv(out / "decay_fit.csv", ["t", "energy_norm"], [psi.times, psi.energy_norms()])


def cmd_boost(cfg: ExperimentConfig, out: Path, seed: int) -> None:
    params = _params_from_config(cfg)
    boost = cfg.build_boost()
    boosted = lorentz.boost_params(params, boost)
    back = lorentz.boost_params(boosted, boost.inverse)
    round_trip = max(
        max(abs(a - b) for a, b in zip(back.velocities, params.velocities)),
        max(abs(a - b) for a, b in zip(back.shifts, params.shifts)))
    tp, xp = 2.0, -1.5
    t_, x_ = lorentz.BoostSpec(v=boost.v).unprimed(tp, xp)
    _write_json(out / "boosted_params.json", {
        "velocities": list(boosted.velocities),
        "shifts": list(boosted.shifts),
        "round_trip_error": round_trip,
        "interval_error": abs((t_ * t_ - x_ * x_) - (tp * tp - xp * xp)),
    }, cfg, seed)


def cmd_spectrum(cfg: ExperimentConfig, out: Path, seed: int) -> None:
    model = cfg.build_model()
    table = cfg.build_table(model)
    n, n_prime = cfg.kink_labels()
    x_half = cfg.get_float("spectrum", "x_half", default=15.0)
    dx = cfg.get_float("spectrum", "dx", default=0.01)
    k = cfg.get_int("spectrum", "k", default=4)
    if dx <= 0 or x_half <= 0:
        raise ConfigError("[spectrum] dx and x_half must be positive")
    capped_count(2.0 * x_half / dx, "grid points of [spectrum] x_half and dx")
    grid = np.arange(-x_half, x_half + 1e-9, dx)
    disc = spectral.build_operator(model, table, n, n_prime, grid)
    vals, vecs = spectral.low_spectrum(disc, k)
    _write_csv(out / "eigenpairs.csv", ["x"] + [f"v{i}" for i in range(k)],
               [grid] + [vecs[:, i] for i in range(k)])
    ker = disc.kernel_direction / np.linalg.norm(disc.kernel_direction)
    u0 = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    lam0 = spectral.coercivity_constant(disc, disc.kernel_direction, seed=seed)
    _write_json(out / "spectrum.json", {
        "eigenvalues": [float(v) for v in vals],
        "kernel_cosine_similarity": float(abs(np.dot(u0, ker))),
        "coercivity_lambda0": lam0,
    }, cfg, seed)


def cmd_verify(cfg: ExperimentConfig, out: Path, seed: int) -> None:
    params = _params_from_config(cfg)
    rng = np.random.default_rng(seed)
    checks = {name: cfg.get_bool("verify", name, default=True)
              for name in ("energy_drift", "zero_modes", "coercivity")}
    grid = cfg.build_grid() if any(checks.values()) else None
    result: dict = {}
    if checks["coercivity"]:
        t_eval = max(cfg.t_end(), 1.0)
        # the sample is taken about the multikink, so every kink must be on
        # the grid; far off it the co-moving coordinates lose the grid's
        # resolution (t = 1e16) or overflow (t = 1e308)
        for k, (v, a) in enumerate(zip(params.velocities, params.shifts), start=1):
            if not grid[0] < a + v * t_eval < grid[-1]:
                raise ConfigError(
                    f"[grid] t_end = {t_eval:g} puts kink {k} at x = {a + v * t_eval:g}, off the "
                    f"grid [{grid[0]:g}, {grid[-1]:g}] that the coercivity sample needs it on")

    if checks["energy_drift"]:
        slab, energies = _evolve_from_config(cfg, params, grid)
        result["energy_drift"] = {
            "initial": float(energies[0, 0]),
            "max_drift": float(np.max(np.abs(energies[:, 0] - energies[0, 0]))),
            "sector": list(evolve.detect_sector(slab.state(len(slab) - 1), params.table)),
        }

    if checks["zero_modes"]:
        t0 = max(cfg.t_start(), 1.0)
        if params.K >= 2:
            # the pairing laws hold once the kinks are well separated; start
            # where the free forcing has become small
            t0 = max(t0, construct.default_start_time(params, grid))
        econf = evolve.EvolveConfig(dt=_time_step(cfg, grid), t_end=t0 + 10.0,
                                    snapshot_every=10)
        h0 = random_pair_field(grid, rng)
        result["zero_modes"] = evolve.zero_mode_laws(
            params, *evolve.zero_mode_drift(params, h0, grid, t0, econf))

    if checks["coercivity"]:
        n_samples = cfg.get_int("verify", "coercivity_samples", default=100)
        result["coercivity"] = {
            "min_rayleigh_ratio": ansatz.coercivity_sample(params, t_eval, grid, rng, n_samples),
            "continuum_edge": float(min(params.table.masses) ** 2),
            "samples": n_samples, "t": t_eval}

    if cfg.has("boost") and cfg.get_bool("verify", "covariance", default=True):
        result["covariance"] = lorentz.verify_covariance(
            params, cfg.build_boost(), cfg.build_solver_config(), cfg.fixed_point_settings(),
            window_t=cfg.get_float("verify", "window_t", default=5.0))

    _write_json(out / "verification.json", result, cfg, seed)


_COMMANDS = {
    "kink": cmd_kink,
    "multikink": cmd_multikink,
    "evolve": cmd_evolve,
    "construct": cmd_construct,
    "boost": cmd_boost,
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="multikink",
        description="Kinks, multikink fields and pure multi-soliton construction")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the experiment config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig(args.config)
        seed = cfg.seed(args.seed)
        out = Path(args.out) if args.out else Path(cfg.get_str("output", "directory", default="out"))
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"output directory {out}: {existing} is not a directory")
        _COMMANDS[args.command](cfg, out, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MultikinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
