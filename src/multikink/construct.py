"""Construction of pure multi-solitons by contraction mapping.

The error g of the ansatz solves a forced linear wave equation with the
multikink potential; the forcing is the nonlinearity N(g). The linear
solver integrates backward from vanishing data at a large final time, the
fixed point iterates g <- R N(g), and first parameter derivatives solve
the linearized equation with the potential W''(H + Psi).

All norms are discrete surrogates: the weighted norm takes the supremum
over stored snapshots only, which bounds the continuum supremum from
below.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .ansatz import AnsatzLevel, MultikinkParams, evaluate_ansatz, multikink
from .errors import ConfigError, FitError, NoContractionError
from .evolve import SPLINE_BLOCK, EvolveConfig, SpaceTimeSlab, _leapfrog, make_laplacian
from .numerics import central_diff, derivative2, fit_log_linear, integrate_grid


@dataclass
class SolverConfig:
    """Grid and stepping plan for the backward solver and fixed point."""

    x_min: float
    x_max: float
    dx: float = 0.02
    cfl: float = 0.9
    snapshot_dt: float = 0.25

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.dx, self.snapshot_dt))):
            raise ConfigError("x_min, x_max, dx and snapshot_dt must be finite")
        if self.x_max <= self.x_min:
            raise ConfigError("x_max must exceed x_min")
        if self.dx <= 0 or not 0 < self.cfl <= 1 or self.snapshot_dt <= 0:
            raise ConfigError("dx and snapshot_dt must be positive and cfl in (0, 1]")
        n = int(round((self.x_max - self.x_min) / self.dx))
        if n < 8:
            raise ConfigError("domain too narrow for the stencil")
        self.grid = self.x_min + self.dx * np.arange(n + 1)

    def plan(self, t_start: float, t_final: float):
        """(dt, snapshot_every) landing exactly on both endpoints with a
        uniform snapshot cadence."""
        span = t_final - t_start
        if span <= 0:
            raise ConfigError("t_final must exceed t_start")
        every = max(1, math.ceil(self.snapshot_dt / (self.cfl * self.dx)))
        n_snap = max(2, math.ceil(span / self.snapshot_dt))
        dt = span / (n_snap * every)
        return dt, every


@dataclass
class WeightedNormConfig:
    """Exponential weight e^{delta t} applied for snapshot times above T."""

    T: float
    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ConfigError("delta must be positive")


def _snapshot_energy_norms(slab: SpaceTimeSlab) -> np.ndarray:
    """sqrt(int g^2 + g_x^2 + g_t^2 dx) per snapshot."""
    out = np.empty(len(slab))
    for i in range(len(slab)):
        gx = central_diff(slab.phis[i], slab.dx)
        out[i] = math.sqrt(integrate_grid(
            slab.phis[i] ** 2 + gx**2 + slab.phi_dots[i] ** 2, slab.dx))
    return out


def weighted_norm(slab: SpaceTimeSlab, config: WeightedNormConfig,
                  kind: str = "energy") -> float:
    """sup over snapshots t >= T of e^{delta t} * norm of (g, g_t)(t).

    kind="energy" uses the H^1 x L^2 norm, kind="l2" the plain L^2 norm of
    the value component.
    """
    mask = slab.times >= config.T - 1e-9
    if not np.any(mask):
        raise ConfigError("slab has no snapshots at or after T")
    if kind == "energy":
        norms = _snapshot_energy_norms(slab)[mask]
    elif kind == "l2":
        norms = np.array([math.sqrt(integrate_grid(p**2, slab.dx))
                          for p in slab.phis[mask]])
    else:
        raise ConfigError(f"unknown norm kind {kind!r}")
    return float(np.max(np.exp(config.delta * slab.times[mask]) * norms))


def level_nonlinearity(level: AnsatzLevel, g) -> np.ndarray:
    """N(g) = -W'(H + g) + sum_k W'(H_k) + V g at one ansatz level."""
    g = np.asarray(g, dtype=float) if not np.isscalar(g) else float(g)
    return -level.params.model(level.H + g, 1) + level.sum_wp + level.V * g


def nonlinearity(params: MultikinkParams, g, t: float, grid: np.ndarray) -> np.ndarray:
    """N(g) = -W'(H + g) + sum_k W'(H_k) + V g, evaluated pointwise."""
    return level_nonlinearity(evaluate_ansatz(params, t, grid), g)


def _forcing_norm(params: MultikinkParams, t: float, grid: np.ndarray, dx: float) -> float:
    """|N(0)(t)|_{L2}, the free forcing's norm."""
    return math.sqrt(integrate_grid(nonlinearity(params, 0.0, t, grid) ** 2, dx))


def default_start_time(params: MultikinkParams, grid: np.ndarray,
                       threshold: float = 1e-3) -> float:
    """First time of the scan 0.5, 1.0, ..., 200 with |N(0)(t)|_{L2} <=
    threshold; the scan stops there. If no time qualifies, warns and
    returns the scanned time of the smallest norm."""
    times = np.arange(0.5, 200.0 + 1e-9, 0.5)
    dx = grid[1] - grid[0]
    norms = []
    for t in times:
        norms.append(_forcing_norm(params, t, grid, dx))
        if norms[-1] <= threshold:
            return float(t)
    warnings.warn("forcing never drops below threshold in the scanned range; "
                  "using the time of its minimum")
    return float(times[np.argmin(norms)])


def fitted_forcing_rate(params: MultikinkParams, grid: np.ndarray, T: float,
                        span: float = 10.0) -> float:
    """Exponential decay rate eta of |N(0)(t)| over [T, T + span]."""
    times = np.linspace(T, T + span, 21)
    dx = grid[1] - grid[0]
    norms = np.array([_forcing_norm(params, t, grid, dx) for t in times])
    slope, _, _, _ = fit_log_linear(times, norms)
    return -slope


@dataclass(frozen=True)
class LevelTerms:
    """Right-hand side of solve_backward computed from the ansatz level the
    solver evaluates for each step: terms(t, level) returns (b, f), the
    extra potential (or None) and the forcing."""

    terms: Callable[[float, AnsatzLevel], tuple]


def _level_terms(forcing, grid) -> Callable[[float, AnsatzLevel], tuple]:
    if isinstance(forcing, LevelTerms):
        return forcing.terms
    if forcing is None:
        zero = np.zeros_like(grid)
        return lambda _t, _level: (None, zero)
    if isinstance(forcing, SpaceTimeSlab):
        return lambda t, _level: (None, forcing.phi_at(t))
    return lambda t, _level: (None, forcing(t))


def solve_backward(params: MultikinkParams, forcing, t_start: float, t_final: float,
                   config: SolverConfig) -> SpaceTimeSlab:
    """Solve d_t^2 h - d_x^2 h + (V + b) h = f backward from zero data.

    Integrates from (h, d_t h)(t_final) = (0, 0) down to t_start with the
    leapfrog stepper; this realizes the decaying solution once t_final is
    large enough that the forcing is negligible beyond it.

    forcing may be None, a callable t -> f, a SpaceTimeSlab (interpolated
    cubically in time) or a LevelTerms giving b and f; b is zero otherwise.
    The ansatz is evaluated once per time level and shared by V and the
    LevelTerms.
    """
    grid = config.grid
    dx = config.dx
    dt, every = config.plan(t_start, t_final)
    n_steps = int(round((t_final - t_start) / dt))
    terms = _level_terms(forcing, grid)
    cfg = EvolveConfig(dt=dt, t_end=t_final, cfl_limit=config.cfl)
    lap = make_laplacian(dx, cfg.stencil_blend(dx))

    def accel(t, h, out):
        level = evaluate_ansatz(params, t, grid)
        extra, f = terms(t, level)
        lap(h, out)
        pot = level.V if extra is None else level.V + extra
        out[1:-1] -= pot[1:-1] * h[1:-1]
        out[1:-1] += f[1:-1]

    h = np.zeros_like(grid)
    hd = np.zeros_like(grid)
    times, phis, dots = _leapfrog(h, hd, -dt, n_steps, accel, t_final, every)
    return SpaceTimeSlab(times[::-1], grid, phis[::-1], dots[::-1])


# the forcing N(0) of the zero iterate
_FREE_FORCING = LevelTerms(lambda _t, level: (None, level_nonlinearity(level, 0.0)))


def _zero_slab(grid, times):
    z = np.zeros((len(times), len(grid)))
    z.flags.writeable = False  # one array backs both components
    return SpaceTimeSlab(times, grid, z, z)


def _diff_slab(a: SpaceTimeSlab, b: SpaceTimeSlab) -> SpaceTimeSlab:
    return SpaceTimeSlab(a.times, a.grid, a.phis - b.phis, a.phi_dots - b.phi_dots)


@dataclass
class ConstructReport:
    """Diagnostics of one fixed-point construction."""

    T: float
    delta: float
    t_final: float
    iterate_norms: list[float] = field(default_factory=list)
    contraction_ratio: float = float("nan")
    final_residual: float = float("nan")
    fitted_decay_rate: float = float("nan")
    decay_fit_r2: float = float("nan")
    converged: bool = False
    iterations: int = 0

    def to_dict(self) -> dict:
        return {
            "T": self.T, "delta": self.delta, "t_final": self.t_final,
            "iterate_norms": self.iterate_norms,
            "contraction_ratio": self.contraction_ratio,
            "final_residual": self.final_residual,
            "fitted_decay_rate": self.fitted_decay_rate,
            "decay_fit_r2": self.decay_fit_r2,
            "converged": self.converged, "iterations": self.iterations,
        }


def _probe_gap(prev: SpaceTimeSlab, nxt: SpaceTimeSlab, probe: np.ndarray):
    """(diff, scale) of two truncation probes at the probe times: diff is the
    largest |phi| or |phi_t| difference, scale the largest |phi| of nxt.

    The cubic splines in time treat each grid column on its own, so building
    them on blocks of columns gives the full-slab values bit for bit while
    holding only one block's coefficients at a time.
    """
    diff = 0.0
    scale = 1e-300
    for lo in range(0, len(prev.grid), SPLINE_BLOCK):
        cols = slice(lo, lo + SPLINE_BLOCK)
        pa = CubicSpline(prev.times, prev.phis[:, cols], axis=0)(probe)
        pb = CubicSpline(nxt.times, nxt.phis[:, cols], axis=0)(probe)
        da = CubicSpline(prev.times, prev.phi_dots[:, cols], axis=0)(probe)
        db = CubicSpline(nxt.times, nxt.phi_dots[:, cols], axis=0)(probe)
        diff = max(diff, float(np.max(np.abs(pa - pb))), float(np.max(np.abs(da - db))))
        scale = max(scale, float(np.max(np.abs(pb))))
    return diff, scale


def choose_final_time(params: MultikinkParams, config: SolverConfig, T: float,
                      delta: float, rtol: float = 1e-8, max_span: float = 400.0):
    """Double the truncation time until the zero-iterate response on the
    kept window stops changing (mirrors the limiting construction of the
    backward solver).

    Returns (t_final, slab): slab is the accepted response R N(0) on
    [T, t_final], which is the first fixed-point iterate.
    """
    span = max(16.0, 4.0 / delta)
    h_prev = solve_backward(params, _FREE_FORCING, T, T + span, config)
    probe = np.linspace(T, T + span, 41)
    while True:
        new_span = 2.0 * span
        if new_span > max_span:
            warnings.warn("truncation time hit its cap before stabilizing")
            return T + span, h_prev
        h_next = solve_backward(params, _FREE_FORCING, T, T + new_span, config)
        diff, scale = _probe_gap(h_prev, h_next, probe)
        if diff <= rtol * max(1.0, scale):
            return T + span, h_prev
        span = new_span
        h_prev = h_next
        probe = np.linspace(T, T + span, 41)


def measure_residual(params: MultikinkParams, psi_slab: SpaceTimeSlab,
                     boundary_margin: float = 5.0) -> float:
    """Sup over interior snapshots of the L2 norm of the PDE residual of
    H + Psi, measured with stencils independent of the solver (snapshot
    second differences in t, wide 4th-order stencil in x)."""
    grid = psi_slab.grid
    dx = psi_slab.dx
    mask = (grid >= grid[0] + boundary_margin) & (grid <= grid[-1] - boundary_margin)
    worst = 0.0
    # H + Psi per snapshot, held three at a time
    fields = (multikink(params, t, grid).phi + psi
              for t, psi in zip(psi_slab.times, psi_slab.phis))
    prev, cur = next(fields, None), next(fields, None)
    for i, nxt in enumerate(fields, start=1):
        dt1 = psi_slab.times[i] - psi_slab.times[i - 1]
        dt2 = psi_slab.times[i + 1] - psi_slab.times[i]
        if abs(dt1 - dt2) <= 1e-9:
            dtt = (prev - 2.0 * cur + nxt) / (dt1 * dt1)
            dxx = derivative2(cur, dx)
            r = dtt - dxx + params.model(cur, 1)
            worst = max(worst, math.sqrt(integrate_grid(r[mask] ** 2, dx)))
        prev, cur = cur, nxt
    return worst


def decay_fit(psi_slab: SpaceTimeSlab, T: float, span: float = 10.0):
    """Log-linear fit of the energy norm of (Psi, d_t Psi) over [T, T+span].

    Returns (rate, r2): rate > 0 means exponential decay at that rate.
    """
    norms = _snapshot_energy_norms(psi_slab)
    mask = (psi_slab.times >= T - 1e-9) & (psi_slab.times <= T + span + 1e-9)
    slope, _, r2, _ = fit_log_linear(psi_slab.times[mask], norms[mask])
    return -slope, r2


def fixed_point(params: MultikinkParams, config: SolverConfig,
                T: float | None = None, delta: float | None = None,
                tol: float = 1e-8, max_iter: int = 25,
                t_final: float | None = None, g0: SpaceTimeSlab | None = None,
                fit_span: float = 10.0):
    """Iterate g <- R N(g) from g = 0 until the weighted increment norm
    drops below tol; returns (Psi slab, ConstructReport).

    T defaults to the first time the free forcing N(0) is small, delta to
    half its fitted decay rate, and the truncation time to the stabilized
    doubling of choose_final_time, whose accepted slab R N(0) then serves
    as the first iterate when the iteration starts from g = 0.
    """
    grid = config.grid
    if T is None:
        T = default_start_time(params, grid)
    if delta is None:
        try:
            eta = fitted_forcing_rate(params, grid, T)
        except FitError:
            # forcing is identically zero (single boosted kinks are exact);
            # any weight below the slowest tail rate works
            eta = min(params.table.masses)
        if eta <= 0:
            raise NoContractionError("free forcing does not decay; increase T")
        delta = 0.5 * eta
    norm_cfg = WeightedNormConfig(T=T, delta=delta)
    first = None
    if t_final is None:
        t_final, first = choose_final_time(params, config, T, delta)
        if g0 is not None:
            first = None  # the first iterate is R N(g0), not R N(0)
    start_norm = _forcing_norm(params, T, grid, config.dx)
    if start_norm > 0.1:
        warnings.warn(f"|N(0)(T)| = {start_norm:.3g} is large; T may be too small")

    dt, every = config.plan(T, t_final)
    n_snap = int(round((t_final - T) / dt)) // every + 1
    times = np.linspace(T, t_final, n_snap)
    g = _zero_slab(grid, times) if g0 is None else g0

    report = ConstructReport(T=T, delta=delta, t_final=t_final)
    ratios = []
    rising = 0
    for it in range(max_iter):
        if first is not None:
            # R N(0) on [T, t_final]: the truncation search already solved it
            g_new, first = first, None
        else:
            g_new = solve_backward(params, LevelTerms(
                lambda t, level: (None, level_nonlinearity(level, g.phi_at(t)))),
                T, t_final, config)
        dnorm = weighted_norm(_diff_slab(g_new, g), norm_cfg)
        report.iterate_norms.append(dnorm)
        if len(report.iterate_norms) >= 2 and report.iterate_norms[-2] > 0:
            q = dnorm / report.iterate_norms[-2]
            ratios.append(q)
            rising = rising + 1 if q >= 1.0 else 0
            # increments hovering at the discrete floor are a stall, not a
            # divergence; only growth well above the floor aborts
            if rising >= 3 and dnorm > 100.0 * min(report.iterate_norms):
                raise NoContractionError(
                    f"increment ratio stayed >= 1 for 3 iterations (last q={q:.3g}); "
                    "try a larger T")
        g = g_new
        report.iterations = it + 1
        if dnorm < tol:
            report.converged = True
            break
    if ratios:
        # ratios taken once increments reach the discrete noise floor say
        # nothing about the map; keep those above the geometric midpoint
        # between the first and the smallest increment
        norms = np.asarray(report.iterate_norms)
        cutoff = math.sqrt(norms[0] * max(norms.min(), 1e-300))
        kept = [r for r, nxt in zip(ratios, norms[1:]) if nxt >= cutoff]
        report.contraction_ratio = float(np.median(kept if kept else ratios))
    if report.iterations > 0 and max_iter > 0:
        report.final_residual = measure_residual(params, g)
        try:
            rate, r2 = decay_fit(g, T, span=min(fit_span, t_final - T - 2 * config.snapshot_dt))
            report.fitted_decay_rate = rate
            report.decay_fit_r2 = r2
        except FitError:
            pass
    return g, report


def shift_derivative_of_kink(level: AnsatzLevel, k: int) -> np.ndarray:
    """d H_k / d a_k = -gamma_k H'(gamma_k (x - v_k t - a_k))."""
    return -level.params.gammas[k - 1] * level.slope(k)


def velocity_derivative_of_kink(level: AnsatzLevel, k: int) -> np.ndarray:
    """d H_k / d v_k = H'(gamma_k y) (gamma_k^3 v_k y - gamma_k t)."""
    p = level.params
    g = p.gammas[k - 1]
    v = p.velocities[k - 1]
    y = level.grid - v * level.t - p.shifts[k - 1]
    return level.slope(k) * (g**3 * v * y - g * level.t)


def param_derivative(params: MultikinkParams, psi_slab: SpaceTimeSlab, k: int,
                     which: str, config: SolverConfig) -> SpaceTimeSlab:
    """Solve the linear equation for d Psi / d a_k or d Psi / d v_k.

    The equation carries the potential W''(H + Psi) and the right-hand side
    -(W''(H + Psi) - W''(H_k)) dH_k; both are evaluated along the stored
    Psi slab (cubic interpolation in time, psi_slab.phi_at, whose
    interpolant is built once per slab and shared by all four derivatives).
    """
    if which not in ("shift", "velocity"):
        raise ConfigError("which must be 'shift' or 'velocity'")
    if not 1 <= k <= params.K:
        raise ConfigError(f"kink index {k} outside 1..{params.K}")
    dkink = shift_derivative_of_kink if which == "shift" else velocity_derivative_of_kink

    def terms(t, level):
        wpp_full = params.model(level.H + psi_slab.phi_at(t), 2)
        forcing = -(wpp_full - level.kink_wpp[k - 1]) * dkink(level, k)
        return wpp_full - level.V, forcing

    return solve_backward(params, LevelTerms(terms), float(psi_slab.times[0]),
                          float(psi_slab.times[-1]), config)


def suggest_domain(params: MultikinkParams, t_max: float, margin: float | None = None):
    """Spatial interval containing every kink over [0, t_max] plus a tail margin."""
    if margin is None:
        margin = 18.0 / min(params.table.masses)
    lo, hi = 0.0, 0.0
    for k in range(1, params.K + 1):
        for t in (0.0, t_max):
            pos = params.velocities[k - 1] * t + params.shifts[k - 1]
            lo = min(lo, pos)
            hi = max(hi, pos)
    return lo - margin, hi + margin
